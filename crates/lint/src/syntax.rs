//! A lightweight syntax layer over the token stream: brace trees,
//! lock-acquisition sites with held regions, and atomic
//! declarations/operations.
//!
//! This is deliberately NOT a full parser. It recovers exactly the
//! structure the concurrency rules need — where a lock guard's scope
//! ends, which field an atomic operation touches — from the same flat
//! token stream the D-rules match on. Held regions over-approximate in
//! the safe direction: a guard whose drop point we cannot prove is
//! assumed held to the end of its enclosing block.

use std::collections::{BTreeMap, BTreeSet};

use crate::engine::SourceFile;
use crate::lexer::TokKind;

/// Atomic integer/bool type names recognized as registrable fields.
pub const ATOMIC_TYPES: [&str; 11] = [
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
];

/// Atomic memory orderings (disjoint from `cmp::Ordering` variants, which
/// keeps `Ordering::Less` matches out of the registry).
pub const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Methods that forward their receiver without changing which lock it
/// denotes (`SLOT.get_or_init(..).lock()` acquires SLOT).
const TRANSPARENT_METHODS: [&str; 9] = [
    "unwrap",
    "unwrap_or_else",
    "expect",
    "get_or_init",
    "as_ref",
    "as_mut",
    "borrow",
    "borrow_mut",
    "get_mut",
];

/// One lock acquisition — a `.lock()`, `.read()` or `.write()` call with
/// an empty argument list (`io::Read::read(&mut buf)` takes arguments, so
/// it never matches) — with the token range over which its guard is
/// conservatively considered held.
#[derive(Debug)]
pub struct Acquire {
    /// The receiver's base identifier as written (`self.a.lock()` -> `a`).
    pub lock: String,
    /// File index of the call site.
    pub file: usize,
    /// Raw token index of the acquiring method name.
    pub tok: usize,
    /// Raw token index bounding the held region (inclusive).
    pub hold_end: usize,
}

/// A declared atomic field/static (owning declarations only — `&Atomic*`
/// borrows in parameter position are uses, not declarations).
#[derive(Debug)]
pub struct AtomicDecl {
    /// Registry key (`filestem.name`).
    pub key: String,
    /// Simple declared name.
    pub name: String,
    /// The atomic type name (`AtomicU64`, ...).
    pub ty: String,
    /// Declaring file index.
    pub file: usize,
    /// Raw token index of the name.
    pub tok: usize,
}

/// One atomic operation call site carrying an explicit `Ordering::*`.
#[derive(Debug)]
pub struct AtomicOp {
    /// Registry key the receiver resolved to, when it did.
    pub key: Option<String>,
    /// Receiver base identifier as written.
    pub recv: String,
    /// Operation method name (`load`, `store`, `fetch_add`, ...).
    pub op: String,
    /// The ordering named at this site (`Relaxed`, `SeqCst`, ...).
    pub ordering: String,
    /// File index of the call site.
    pub file: usize,
    /// Raw token index of the `Ordering` path (diagnostic anchor).
    pub tok: usize,
}

/// Per-file syntax facts.
#[derive(Debug, Default)]
pub struct FileSyntax {
    /// Code-token indices (comments stripped), shared by all passes.
    pub code: Vec<usize>,
    /// For each code position, the code position of the innermost
    /// enclosing `{` (usize::MAX at top level).
    pub encl_brace: Vec<usize>,
    /// Open-brace code position -> matching close-brace code position.
    pub brace_match: BTreeMap<usize, usize>,
}

/// The workspace syntax model.
#[derive(Debug, Default)]
pub struct Model {
    /// Per-file facts, parallel to the analyzed source slice.
    pub files: Vec<FileSyntax>,
    /// Lock acquisitions, in (file, token) order.
    pub acquires: Vec<Acquire>,
    /// Declared atomics.
    pub atomics: Vec<AtomicDecl>,
    /// Atomic operations with explicit orderings.
    pub atomic_ops: Vec<AtomicOp>,
}

/// Derives the short module qualifier for a workspace-relative path:
/// the file stem, or the crate directory name for `lib.rs`/`mod.rs`/
/// `main.rs` (`crates/obs/src/lib.rs` -> `obs`).
pub fn stem(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    let base = parts.last().copied().unwrap_or(rel);
    let name = base.strip_suffix(".rs").unwrap_or(base);
    if matches!(name, "lib" | "mod" | "main") {
        for (i, p) in parts.iter().enumerate().rev() {
            if *p == "src" && i > 0 {
                if let Some(prev) = parts.get(i - 1) {
                    return (*prev).to_string();
                }
            }
        }
    }
    name.to_string()
}

/// Builds the workspace model from lexed sources.
pub fn build(sources: &[SourceFile<'_>]) -> Model {
    let mut model = Model::default();
    for file in sources {
        model.files.push(file_syntax(file));
    }
    for fi in 0..sources.len() {
        scan_atomics(&mut model, sources, fi);
    }
    // Operations resolve against atomics declared in any file, so they
    // are scanned once every declaration is known.
    for fi in 0..sources.len() {
        scan_acquires(&mut model, sources, fi);
        scan_atomic_ops(&mut model, sources, fi);
    }
    model
}

/// Code indices, brace matching, and enclosing-brace map for one file.
fn file_syntax(file: &SourceFile<'_>) -> FileSyntax {
    let code: Vec<usize> = (0..file.toks.len()).filter(|&i| file.toks[i].is_code()).collect();
    let mut encl = vec![usize::MAX; code.len()];
    let mut brace_match = BTreeMap::new();
    let mut stack: Vec<usize> = Vec::new();
    for (ci, &ti) in code.iter().enumerate() {
        encl[ci] = stack.last().copied().unwrap_or(usize::MAX);
        let t = file.toks[ti].text;
        if t == "{" {
            stack.push(ci);
        } else if t == "}" {
            if let Some(open) = stack.pop() {
                brace_match.insert(open, ci);
            }
        }
    }
    FileSyntax { code, encl_brace: encl, brace_match }
}

fn text<'f>(file: &'f SourceFile<'_>, code: &[usize], ci: usize) -> &'f str {
    code.get(ci).map_or("", |&ti| file.toks[ti].text)
}

fn kind(file: &SourceFile<'_>, code: &[usize], ci: usize) -> Option<TokKind> {
    code.get(ci).map(|&ti| file.toks[ti].kind)
}

/// Strips the raw-identifier prefix.
fn plain(name: &str) -> &str {
    name.strip_prefix("r#").unwrap_or(name)
}

/// Walks backwards from a type token to its declaring `name:`, skipping
/// wrapper tokens (`Arc<`, `OnceLock<`, `[`, paths). Returns the code
/// index of the name and whether the chain passed through `&` (a borrow,
/// i.e. a use rather than an owning declaration).
fn decl_name_backwards(
    file: &SourceFile<'_>,
    code: &[usize],
    ty_ci: usize,
) -> Option<(usize, bool)> {
    let mut i = ty_ci.checked_sub(1)?;
    let mut borrowed = false;
    loop {
        let t = text(file, code, i);
        let k = kind(file, code, i)?;
        if t == ":" {
            if i >= 1 && text(file, code, i - 1) == ":" {
                // `::` path separator (std::sync::atomic::AtomicU64)
                i = i.checked_sub(2)?;
                continue;
            }
            // Declaration colon: the name sits just before it.
            let name_i = i.checked_sub(1)?;
            return (kind(file, code, name_i) == Some(TokKind::Ident)).then_some((name_i, borrowed));
        }
        match t {
            "&" => borrowed = true,
            "<" | "[" | "mut" | "dyn" => {}
            _ if k == TokKind::Ident || k == TokKind::Lifetime => {}
            _ => return None,
        }
        i = i.checked_sub(1)?;
    }
}

/// Walks a method-call receiver chain backwards from the `.` before the
/// method name, returning the base identifier's code index. Skips
/// balanced `(...)`/`[...]` groups and transparent forwarding methods.
fn receiver_base(file: &SourceFile<'_>, code: &[usize], dot_ci: usize) -> Option<usize> {
    let mut i = dot_ci.checked_sub(1)?;
    loop {
        let t = text(file, code, i);
        match t {
            ")" | "]" => {
                // Skip the balanced group backwards.
                let (open, close) = if t == ")" { ("(", ")") } else { ("[", "]") };
                let mut depth = 0i32;
                loop {
                    let tj = text(file, code, i);
                    if tj == close {
                        depth += 1;
                    } else if tj == open {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    i = i.checked_sub(1)?;
                }
                i = i.checked_sub(1)?;
                // A call `ident(...)`: transparent methods forward their
                // receiver; anything else is the chain's base producer.
                if kind(file, code, i) == Some(TokKind::Ident) {
                    let name = plain(text(file, code, i));
                    if TRANSPARENT_METHODS.contains(&name)
                        && i >= 1
                        && text(file, code, i - 1) == "."
                    {
                        i = i.checked_sub(2)?;
                        continue;
                    }
                    return Some(i);
                }
                return None;
            }
            _ if kind(file, code, i) == Some(TokKind::Ident) => return Some(i),
            _ => return None,
        }
    }
}

/// The code index of the `let` when the statement containing `ci` begins
/// with one (the guard is bound and lives to the end of the enclosing
/// block, not just the statement).
fn let_start(file: &SourceFile<'_>, syn: &FileSyntax, ci: usize) -> Option<usize> {
    let code = &syn.code;
    let here = syn.encl_brace.get(ci).copied().unwrap_or(usize::MAX);
    let mut start = ci;
    while start > 0 {
        let j = start - 1;
        // Statement boundary: `;` or a sibling block's `}` at our nesting
        // level, or the opening `{` of our own block (which sits one
        // level up, so it is matched by position, not level).
        let level = syn.encl_brace.get(j).copied().unwrap_or(usize::MAX);
        let t = text(file, code, j);
        if (level == here && (t == ";" || t == "}")) || j == here {
            break;
        }
        start = j;
    }
    (text(file, code, start) == "let").then_some(start)
}

/// True when the acquiring call at `ci` (the method-name code index) is
/// the outermost value of its expression: after its argument list, only
/// transparent forwarding calls may follow before the statement ends.
/// `let g = self.a.lock();` binds the guard; in
/// `let n = self.a.lock().len();` the guard is a temporary that dies at
/// the `;` even though the statement is a `let`.
fn guard_is_bound(file: &SourceFile<'_>, syn: &FileSyntax, ci: usize) -> bool {
    let code = &syn.code;
    let mut j = ci + 1; // the `(` of the acquiring call
    loop {
        if text(file, code, j) != "(" {
            return false;
        }
        // Skip the balanced argument list.
        let mut depth = 0i32;
        while j < code.len() {
            match text(file, code, j) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        match text(file, code, j + 1) {
            ";" => return true,
            "." if TRANSPARENT_METHODS.contains(&plain(text(file, code, j + 2)))
                && text(file, code, j + 3) == "(" =>
            {
                j += 3; // continue at the forwarding call's `(`
            }
            _ => return false,
        }
    }
}

/// The inclusive code index where a guard acquired at `ci` stops being
/// held: end of the enclosing block for `let`-bound guards (or an earlier
/// `drop(guard)` at the block's own level), the next `;` at the same
/// nesting level (or the block end) for temporaries.
fn hold_end(file: &SourceFile<'_>, syn: &FileSyntax, ci: usize) -> usize {
    let code = &syn.code;
    let block_open = syn.encl_brace.get(ci).copied().unwrap_or(usize::MAX);
    let block_close = if block_open == usize::MAX {
        code.len().saturating_sub(1)
    } else {
        syn.brace_match.get(&block_open).copied().unwrap_or(code.len().saturating_sub(1))
    };
    if let Some(start) = let_start(file, syn, ci).filter(|_| guard_is_bound(file, syn, ci)) {
        let name = match text(file, code, start + 1) {
            "mut" => text(file, code, start + 2),
            name => name,
        };
        return (ci..block_close)
            .find(|&j| {
                syn.encl_brace.get(j) == Some(&block_open)
                    && text(file, code, j) == "drop"
                    && text(file, code, j + 1) == "("
                    && text(file, code, j + 2) == name
                    && text(file, code, j + 3) == ")"
            })
            .map_or(block_close, |j| j + 3);
    }
    let mut j = ci + 1;
    while j < block_close {
        if text(file, code, j) == ";" && syn.encl_brace.get(j).copied() == Some(block_open) {
            return j;
        }
        j += 1;
    }
    block_close
}

/// Scans one file for lock acquisitions and their held regions.
fn scan_acquires(model: &mut Model, sources: &[SourceFile<'_>], fi: usize) {
    let file = &sources[fi];
    let syn = &model.files[fi];
    let code = &syn.code;
    for ci in 1..code.len() {
        if !matches!(text(file, code, ci), "lock" | "read" | "write")
            || text(file, code, ci - 1) != "."
            || text(file, code, ci + 1) != "("
            || text(file, code, ci + 2) != ")"
        {
            continue;
        }
        let lock = receiver_base(file, code, ci - 1)
            .map_or_else(|| "?".to_string(), |b| plain(text(file, code, b)).to_string());
        let end = hold_end(file, syn, ci);
        model.acquires.push(Acquire {
            lock,
            file: fi,
            tok: code[ci],
            hold_end: code.get(end).copied().unwrap_or(file.toks.len().saturating_sub(1)),
        });
    }
}

/// Scans one file for atomic field/static declarations.
fn scan_atomics(model: &mut Model, sources: &[SourceFile<'_>], fi: usize) {
    let file = &sources[fi];
    let syn = &model.files[fi];
    let code = &syn.code;
    let stem = stem(&file.rel);
    for ci in 0..code.len() {
        let t = text(file, code, ci);
        if !ATOMIC_TYPES.contains(&t) {
            continue;
        }
        if text(file, code, ci + 1) == ":" {
            continue; // `AtomicU64::new(...)` constructor path
        }
        let Some((name_ci, borrowed)) = decl_name_backwards(file, code, ci) else {
            continue;
        };
        if borrowed {
            continue;
        }
        let name = plain(text(file, code, name_ci)).to_string();
        model.atomics.push(AtomicDecl {
            key: format!("{stem}.{name}"),
            name,
            ty: t.to_string(),
            file: fi,
            tok: code[name_ci],
        });
    }
}

/// Scans one file for atomic operations with explicit orderings.
fn scan_atomic_ops(model: &mut Model, sources: &[SourceFile<'_>], fi: usize) {
    let file = &sources[fi];
    let syn = &model.files[fi];
    let code = &syn.code;
    let stem = stem(&file.rel);
    let declared: BTreeSet<&str> = model
        .atomics
        .iter()
        .filter(|a| a.file == fi)
        .map(|a| a.name.as_str())
        .collect();
    for ci in 0..code.len() {
        if text(file, code, ci) != "Ordering"
            || text(file, code, ci + 1) != ":"
            || text(file, code, ci + 2) != ":"
        {
            continue;
        }
        let ord = text(file, code, ci + 3);
        if !ATOMIC_ORDERINGS.contains(&ord) {
            continue; // cmp::Ordering variant
        }
        // Walk back to the enclosing call's `(`, then the op name and its
        // receiver.
        let mut depth = 0i32;
        let mut j = ci;
        let mut op_ci = None;
        while j > 0 {
            j -= 1;
            let tj = text(file, code, j);
            if tj == ")" {
                depth += 1;
            } else if tj == "(" {
                if depth == 0 {
                    if kind(file, code, j.wrapping_sub(1)) == Some(TokKind::Ident) {
                        op_ci = Some(j - 1);
                    }
                    break;
                }
                depth -= 1;
            }
        }
        let Some(op_ci) = op_ci else { continue };
        let op = plain(text(file, code, op_ci)).to_string();
        let is_atomic_op = matches!(op.as_str(), "load" | "store" | "swap")
            || op.starts_with("fetch_")
            || op.starts_with("compare_exchange");
        if !is_atomic_op {
            continue;
        }
        let recv_ci = if op_ci >= 1 && text(file, code, op_ci - 1) == "." {
            receiver_base(file, code, op_ci - 1)
        } else {
            None
        };
        let recv = recv_ci.map_or(String::new(), |b| plain(text(file, code, b)).to_string());
        let key = if !recv.is_empty() && declared.contains(recv.as_str()) {
            Some(format!("{stem}.{recv}"))
        } else {
            // An atomic declared in another file but touched here (rare:
            // pub statics). Resolve by unique global name match.
            let hits: Vec<&AtomicDecl> =
                model.atomics.iter().filter(|a| a.name == recv).collect();
            match hits.as_slice() {
                [only] => Some(only.key.clone()),
                _ => None,
            }
        };
        model.atomic_ops.push(AtomicOp {
            key,
            recv,
            op,
            ordering: ord.to_string(),
            file: fi,
            tok: code[ci],
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{test_regions, FileClass};
    use crate::lexer::lex;

    fn file<'a>(rel: &str, src: &'a str) -> SourceFile<'a> {
        let toks = lex(src);
        let in_test = test_regions(&toks);
        SourceFile { rel: rel.to_string(), class: FileClass::Lib, toks, in_test }
    }

    #[test]
    fn stems_qualify_lib_and_named_files() {
        assert_eq!(stem("crates/obs/src/session_trace.rs"), "session_trace");
        assert_eq!(stem("crates/obs/src/lib.rs"), "obs");
        assert_eq!(stem("crates/cdn/src/broker.rs"), "broker");
        assert_eq!(stem("src/lib.rs"), "lib"); // no crate dir to qualify by
    }

    #[test]
    fn acquisitions_name_their_receiver_base() {
        let src = "static LK: OnceLock<Mutex<u32>> = OnceLock::new();\n\
                   fn f(s: &S) { let g = LK.get_or_init(|| Mutex::new(0)).lock(); \
                   let h = slot().lock(); let r = s.inner.read(); r.read(&mut buf); }";
        let f = file("crates/x/src/init.rs", src);
        let m = build(std::slice::from_ref(&f));
        let locks: Vec<&str> = m.acquires.iter().map(|a| a.lock.as_str()).collect();
        // `read(&mut buf)` takes arguments: an io call, not a lock.
        assert_eq!(locks, ["LK", "slot", "inner"]);
    }

    #[test]
    fn let_guard_holds_to_block_end_temporary_to_statement() {
        let src = "impl S { fn f(&self) { let g = self.a.lock(); *self.b.lock() += 1; g; } }";
        let f = file("crates/x/src/scope.rs", src);
        let m = build(std::slice::from_ref(&f));
        let [a, b] = m.acquires.as_slice() else { panic!("{:?}", m.acquires) };
        // let-bound guard: held past the statement; temporary: released at
        // its own `;` (before the a guard's hold end).
        assert!(a.hold_end > b.tok, "a held across b's acquisition");
        assert!(b.hold_end < a.hold_end, "temporary b released before block end");
    }

    #[test]
    fn atomic_decls_and_ops() {
        let src = "static FLAG: AtomicBool = AtomicBool::new(false);\n\
                   struct C { n: AtomicU64 }\n\
                   impl C { fn bump(&self) { self.n.fetch_add(1, Ordering::Relaxed); } }\n\
                   fn arm() { FLAG.store(true, Ordering::SeqCst); }\n\
                   fn cmp(a: u32, b: u32) -> bool { matches!(a.cmp(&b), Ordering::Less) }";
        let f = file("crates/x/src/atom.rs", src);
        let m = build(std::slice::from_ref(&f));
        let keys: Vec<&str> = m.atomics.iter().map(|a| a.key.as_str()).collect();
        assert_eq!(keys, ["atom.FLAG", "atom.n"]);
        assert_eq!(m.atomic_ops.len(), 2, "cmp::Ordering must not count");
        let add = m.atomic_ops.iter().find(|o| o.op == "fetch_add").expect("fetch_add");
        assert_eq!(add.key.as_deref(), Some("atom.n"));
        assert_eq!(add.ordering, "Relaxed");
        let store = m.atomic_ops.iter().find(|o| o.op == "store").expect("store");
        assert_eq!(store.key.as_deref(), Some("atom.FLAG"));
        assert_eq!(store.ordering, "SeqCst");
    }

    #[test]
    fn borrowed_param_is_not_a_declaration() {
        let src = "fn peek(f: &AtomicBool) -> bool { f.load(Ordering::Relaxed) }";
        let f = file("crates/x/src/borrow.rs", src);
        let m = build(std::slice::from_ref(&f));
        assert!(m.atomics.is_empty());
    }

    #[test]
    fn indexed_atomic_receiver() {
        let src = "struct H { counts: [AtomicU64; 4] }\n\
                   impl H { fn rec(&self, i: usize) { self.counts[i].fetch_add(1, Ordering::Relaxed); } }";
        let f = file("crates/x/src/hist.rs", src);
        let m = build(std::slice::from_ref(&f));
        assert_eq!(m.atomics.len(), 1);
        assert_eq!(m.atomics[0].key, "hist.counts");
        assert_eq!(m.atomic_ops.len(), 1);
        assert_eq!(m.atomic_ops[0].key.as_deref(), Some("hist.counts"));
    }
}
