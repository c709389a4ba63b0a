//! A lightweight syntax layer over the token stream: brace trees, item
//! (fn/impl) discovery, a name-resolved call graph, lock-acquisition
//! sites with held regions, and atomic declarations/operations.
//!
//! This is deliberately NOT a full parser. It recovers exactly the
//! structure the concurrency rules need — which function a token belongs
//! to, where a lock guard's scope ends, what a method call might resolve
//! to — from the same flat token stream the D-rules match on. Everything
//! is an over-approximation in the safe direction for deadlock analysis:
//! a guard whose drop point we cannot prove is assumed held to the end of
//! its enclosing block, and a call we cannot resolve uniquely fans out to
//! every same-named function.

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

/// Call names so common on std types (collections, iterators, numerics)
/// that resolving them workspace-wide would wire the call graph to
/// unrelated same-named user functions. Calls to these resolve only
/// within the calling file.
pub const LOCAL_ONLY_METHODS: [&str; 79] = [
    "get", "get_mut", "insert", "push", "pop", "len", "is_empty", "clear", "clone", "next",
    "lock", "read", "write", "contains", "contains_key", "remove", "iter", "iter_mut",
    "into_iter", "drain", "take", "replace", "entry", "extend", "finish", "new", "collect",
    "cloned", "copied", "map", "filter", "filter_map", "flat_map", "fold", "sum", "product",
    "count", "min", "max", "rev", "chain", "zip", "enumerate", "skip", "windows", "chunks",
    "any", "all", "find", "position", "last", "first", "sort", "retain", "truncate", "join",
    "split", "parse", "to_vec", "to_string", "push_str", "add", "sub", "values", "keys",
    "swap", "drop", "abs", "load", "store", "fetch_add", "fetch_sub", "fetch_and", "fetch_or",
    "fetch_xor", "fetch_max", "fetch_min", "compare_exchange", "compare_exchange_weak",
];

/// One function item discovered in a file.
#[derive(Debug)]
pub struct FnDef {
    /// Index of the defining file in the model's source slice.
    pub file: usize,
    /// Simple name (`r#` prefix stripped).
    pub name: String,
    /// Display-qualified name: `stem::Type::name` or `stem::name`.
    pub qual: String,
    /// Raw token index of the name (diagnostic anchor).
    pub name_tok: usize,
    /// Raw token indices of the body braces `(open, close)`.
    pub body: (usize, usize),
    /// Whether the return type mentions `Mutex`/`RwLock` (a lock
    /// producer: `collector_slot().lock()` acquires it by the fn's name).
    pub produces_lock: bool,
    /// Calls made from the body, innermost-fn attribution.
    pub calls: Vec<Call>,
    /// Lock acquisitions made directly in the body.
    pub acquires: Vec<Acquire>,
}

/// One call site inside a function body.
#[derive(Debug)]
pub struct Call {
    /// Callee simple name.
    pub name: String,
    /// Raw token index of the callee name.
    pub tok: usize,
    /// `.name(...)` method-call form (resolution is narrower).
    pub method: bool,
    /// Method call whose receiver chain bottoms out at `self` (required
    /// for resolving std-vocabulary names like `push`/`len` to same-file
    /// fns — a guard's `.len()` must not bind to a user `len`).
    pub recv_self: bool,
    /// For `Qual::name(...)` path calls, the last qualifier segment
    /// (`CircuitBreaker`, `session_trace`, `Self`, ...). Resolution uses
    /// it to pick matching impl blocks or defining files and never falls
    /// back to a workspace-wide name match.
    pub path: Option<String>,
}

/// One lock acquisition (`.lock()` / `.read()` / `.write()`), with the
/// token range over which the guard is conservatively considered held.
#[derive(Debug)]
pub struct Acquire {
    /// Canonical lock id (`filestem.field` or `filestem.producer_fn`).
    pub lock: String,
    /// Raw token index of the acquiring method name.
    pub tok: usize,
    /// Raw token index bounding the held region (inclusive).
    pub hold_end: usize,
}

/// A declared `Mutex`/`RwLock` field, static, or typed local.
#[derive(Debug)]
pub struct LockDecl {
    /// Canonical lock id (`filestem.name`).
    pub id: String,
    /// Simple declared name.
    pub name: String,
    /// Declaring file index.
    pub file: usize,
    /// Raw token index of the name.
    pub tok: usize,
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
    /// Short qualifier per file (file stem, crate name for lib/mod/main).
    pub stems: Vec<String>,
    /// Crate directory per file (`crates/obs/src/metrics.rs` -> `obs`),
    /// empty when the file is not under `crates/`.
    pub crate_dirs: Vec<String>,
    /// Every function item, in (file, token) order.
    pub fns: Vec<FnDef>,
    /// Function ids by simple name.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Declared locks.
    pub locks: Vec<LockDecl>,
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

/// Rust keywords that look like calls when followed by `(`.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "for"
            | "match"
            | "loop"
            | "return"
            | "fn"
            | "let"
            | "in"
            | "as"
            | "move"
            | "mut"
            | "ref"
            | "else"
            | "break"
            | "continue"
            | "where"
            | "impl"
            | "dyn"
            | "use"
            | "pub"
            | "unsafe"
            | "await"
    )
}

/// Builds the workspace model from lexed sources.
pub fn build(sources: &[SourceFile<'_>]) -> Model {
    let mut model = Model::default();
    for file in sources {
        model.stems.push(stem(&file.rel));
        let parts: Vec<&str> = file.rel.split('/').collect();
        model.crate_dirs.push(match parts.as_slice() {
            ["crates", dir, ..] => (*dir).to_string(),
            _ => String::new(),
        });
        model.files.push(file_syntax(file));
    }
    for fi in 0..sources.len() {
        scan_items(&mut model, sources, fi);
        scan_atomics(&mut model, sources, fi);
    }
    // Second pass needs every lock/producer declared anywhere, so
    // acquisition resolution runs after all files' items are known.
    for fi in 0..sources.len() {
        scan_acquires_and_calls(&mut model, sources, fi);
        scan_atomic_ops(&mut model, sources, fi);
    }
    for (id, f) in model.fns.iter().enumerate() {
        model.by_name.entry(f.name.clone()).or_default().push(id);
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

/// Finds function items (and their impl context) in one file.
fn scan_items(model: &mut Model, sources: &[SourceFile<'_>], fi: usize) {
    let file = &sources[fi];
    let syn = &model.files[fi];
    let code = &syn.code;
    let stem = model.stems[fi].clone();
    // (close-brace code pos, context label) stack for impl/mod blocks.
    let mut ctx: Vec<(usize, String)> = Vec::new();
    let mut ci = 0usize;
    while ci < code.len() {
        while ctx.last().is_some_and(|(end, _)| ci > *end) {
            ctx.pop();
        }
        let t = text(file, code, ci);
        if t == "impl" {
            // `impl Type {` / `impl<..> Trait for Type {`: label by the
            // last ident before `{` (or the first after `for`).
            let mut j = ci + 1;
            let mut label = String::new();
            let mut after_for = false;
            while j < code.len() {
                let tj = text(file, code, j);
                if tj == "{" {
                    break;
                }
                if tj == "for" {
                    after_for = true;
                    label.clear();
                } else if kind(file, code, j) == Some(TokKind::Ident) {
                    if after_for && !label.is_empty() {
                        // first path segment after `for` wins
                    } else {
                        label = plain(tj).to_string();
                        if after_for {
                            after_for = false;
                        }
                    }
                }
                j += 1;
            }
            if j < code.len() {
                if let Some(&close) = syn.brace_match.get(&j) {
                    ctx.push((close, label));
                }
            }
            ci = j + 1;
            continue;
        }
        if t == "fn" && kind(file, code, ci + 1) == Some(TokKind::Ident) {
            let name_ci = ci + 1;
            let name = plain(text(file, code, name_ci)).to_string();
            // Find the body `{` at paren depth 0, or give up at `;`.
            let mut j = name_ci + 1;
            let mut paren = 0i32;
            let mut produces_lock = false;
            let mut body = None;
            while j < code.len() {
                let tj = text(file, code, j);
                match tj {
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    "{" if paren == 0 => {
                        body = Some(j);
                        break;
                    }
                    ";" if paren == 0 => break,
                    "Mutex" | "RwLock" if paren == 0 => produces_lock = true,
                    _ => {}
                }
                j += 1;
            }
            if let Some(open) = body {
                if let Some(&close) = syn.brace_match.get(&open) {
                    let qual = match ctx.last() {
                        Some((_, label)) if !label.is_empty() => {
                            format!("{stem}::{label}::{name}")
                        }
                        _ => format!("{stem}::{name}"),
                    };
                    model.fns.push(FnDef {
                        file: fi,
                        name,
                        qual,
                        name_tok: code[name_ci],
                        body: (code[open], code[close]),
                        produces_lock,
                        calls: Vec::new(),
                        acquires: Vec::new(),
                    });
                    ci = open + 1;
                    continue;
                }
            }
            ci = j + 1;
            continue;
        }
        // Lock declarations: `name: [wrappers] Mutex<` / `RwLock<`.
        if (t == "Mutex" || t == "RwLock") && text(file, code, ci + 1) == "<" {
            if let Some((name_ci, borrowed)) = decl_name_backwards(file, code, ci) {
                if !borrowed {
                    let name = plain(text(file, code, name_ci)).to_string();
                    model.locks.push(LockDecl {
                        id: format!("{stem}.{name}"),
                        name,
                        file: fi,
                        tok: code[name_ci],
                    });
                }
            }
        }
        ci += 1;
    }
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
            if kind(file, code, name_i) == Some(TokKind::Ident)
                && !is_keyword(text(file, code, name_i))
            {
                return Some((name_i, borrowed));
            }
            return None;
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

/// True when the statement containing `ci` begins with `let` (the guard
/// is bound and lives to the end of the enclosing block, not just the
/// statement).
fn statement_is_let(file: &SourceFile<'_>, syn: &FileSyntax, ci: usize) -> bool {
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
    text(file, code, start) == "let"
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
/// held: end of the enclosing block for `let`-bound guards, the next `;`
/// at the same nesting level (or the block end) for temporaries.
fn hold_end(file: &SourceFile<'_>, syn: &FileSyntax, ci: usize) -> usize {
    let code = &syn.code;
    let block_open = syn.encl_brace.get(ci).copied().unwrap_or(usize::MAX);
    let block_close = if block_open == usize::MAX {
        code.len().saturating_sub(1)
    } else {
        syn.brace_match.get(&block_open).copied().unwrap_or(code.len().saturating_sub(1))
    };
    if statement_is_let(file, syn, ci) && guard_is_bound(file, syn, ci) {
        return block_close;
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

/// Scans one file for lock acquisitions, local lock aliases, and call
/// sites, attributing each to the innermost enclosing fn.
fn scan_acquires_and_calls(model: &mut Model, sources: &[SourceFile<'_>], fi: usize) {
    let file = &sources[fi];
    let stem = model.stems[fi].clone();
    // Producer fns and lock decls, resolvable from this file.
    let producers: BTreeMap<&str, &str> = model
        .fns
        .iter()
        .filter(|f| f.produces_lock)
        .map(|f| (f.name.as_str(), model.stems[f.file].as_str()))
        .collect();
    let local_decls: BTreeSet<&str> = model
        .locks
        .iter()
        .filter(|l| l.file == fi)
        .map(|l| l.name.as_str())
        .collect();
    let any_decls: BTreeMap<&str, &str> = model
        .locks
        .iter()
        .map(|l| (l.name.as_str(), model.stems[l.file].as_str()))
        .collect();
    // Fns named `lock`/`read`/`write` in this file that directly acquire
    // exactly one lock: calls to them are acquisitions of that lock
    // (`self.lock()` on the segment store acquires its inner mutex).
    let syn_code_len = model.files[fi].code.len();

    // Local aliases: `let NAME = ... producer( ... ;` within any fn body.
    let mut aliases: BTreeMap<String, String> = BTreeMap::new();
    {
        let syn = &model.files[fi];
        let code = &syn.code;
        let mut ci = 0usize;
        while ci + 3 < syn_code_len {
            if text(file, code, ci) == "let" {
                let (name_ci, eq_ci) = if text(file, code, ci + 1) == "mut" {
                    (ci + 2, ci + 3)
                } else {
                    (ci + 1, ci + 2)
                };
                if kind(file, code, name_ci) == Some(TokKind::Ident)
                    && text(file, code, eq_ci) == "="
                {
                    // Scan the initializer to the statement end for a
                    // producer call.
                    let mut j = eq_ci + 1;
                    while j < syn_code_len && text(file, code, j) != ";" {
                        if kind(file, code, j) == Some(TokKind::Ident)
                            && text(file, code, j + 1) == "("
                        {
                            if let Some(pstem) = producers.get(plain(text(file, code, j))) {
                                aliases.insert(
                                    plain(text(file, code, name_ci)).to_string(),
                                    format!("{pstem}.{}", plain(text(file, code, j))),
                                );
                            }
                        }
                        j += 1;
                    }
                }
            }
            ci += 1;
        }
    }

    // Collect (per-fn) calls and acquisitions.
    let mut fn_calls: BTreeMap<usize, Vec<Call>> = BTreeMap::new();
    let mut fn_acquires: BTreeMap<usize, Vec<Acquire>> = BTreeMap::new();
    {
        let syn = &model.files[fi];
        let code = &syn.code;
        for ci in 0..code.len() {
            if kind(file, code, ci) != Some(TokKind::Ident) {
                continue;
            }
            let name = plain(text(file, code, ci)).to_string();
            if is_keyword(&name) || text(file, code, ci + 1) != "(" {
                continue;
            }
            if ci > 0 && text(file, code, ci - 1) == "fn" {
                continue; // the definition itself
            }
            let method = ci > 0 && text(file, code, ci - 1) == ".";
            let path = if !method
                && ci >= 3
                && text(file, code, ci - 1) == ":"
                && text(file, code, ci - 2) == ":"
                && kind(file, code, ci - 3) == Some(TokKind::Ident)
            {
                Some(plain(text(file, code, ci - 3)).to_string())
            } else {
                None
            };
            let raw_tok = code[ci];
            let Some(owner) = innermost_fn(model, fi, raw_tok) else { continue };

            // Lock acquisition?
            if method && matches!(name.as_str(), "lock" | "read" | "write") {
                if let Some(base_ci) = receiver_base(file, code, ci - 1) {
                    let base = plain(text(file, code, base_ci)).to_string();
                    let lock_id = if base == "self" {
                        None // resolved through the call graph instead
                    } else if let Some(id) = aliases.get(&base) {
                        Some(id.clone())
                    } else if let Some(pstem) = producers.get(base.as_str()) {
                        Some(format!("{pstem}.{base}"))
                    } else if local_decls.contains(base.as_str()) {
                        Some(format!("{stem}.{base}"))
                    } else if let Some(dstem) = any_decls.get(base.as_str()) {
                        Some(format!("{dstem}.{base}"))
                    } else if name == "lock" {
                        // `.lock()` is unambiguous even without a visible
                        // declaration (field of a struct declared
                        // elsewhere); `.read()`/`.write()` without a
                        // declaration stay calls (io traits).
                        Some(format!("{stem}.{base}"))
                    } else {
                        None
                    };
                    if let Some(lock) = lock_id {
                        let he = hold_end(file, syn, ci);
                        fn_acquires.entry(owner).or_default().push(Acquire {
                            lock,
                            tok: raw_tok,
                            hold_end: code
                                .get(he)
                                .copied()
                                .unwrap_or(file.toks.len().saturating_sub(1)),
                        });
                        continue;
                    }
                }
            }
            let recv_self = method
                && receiver_base(file, code, ci - 1)
                    .map(|b| plain(text(file, code, b)) == "self")
                    .unwrap_or(false);
            fn_calls
                .entry(owner)
                .or_default()
                .push(Call { name, tok: raw_tok, method, recv_self, path });
        }
    }
    for (owner, calls) in fn_calls {
        model.fns[owner].calls.extend(calls);
    }
    for (owner, acqs) in fn_acquires {
        model.fns[owner].acquires.extend(acqs);
    }
}

/// The innermost fn in `fi` whose body contains raw token `tok`.
fn innermost_fn(model: &Model, fi: usize, tok: usize) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (id, f) in model.fns.iter().enumerate() {
        if f.file == fi && f.body.0 < tok && tok < f.body.1 {
            let better = match best {
                None => true,
                Some(b) => model.fns[b].body.0 < f.body.0,
            };
            if better {
                best = Some(id);
            }
        }
    }
    best
}

/// Scans one file for atomic field/static declarations.
fn scan_atomics(model: &mut Model, sources: &[SourceFile<'_>], fi: usize) {
    let file = &sources[fi];
    let syn = &model.files[fi];
    let code = &syn.code;
    let stem = model.stems[fi].clone();
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
    let stem = model.stems[fi].clone();
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
    fn finds_fns_with_impl_context() {
        let src = "impl Foo { fn a(&self) {} }\nimpl Bar for Foo { fn b(&self) {} }\nfn free() {}";
        let f = file("crates/x/src/m.rs", src);
        let m = build(std::slice::from_ref(&f));
        let quals: Vec<&str> = m.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, ["m::Foo::a", "m::Foo::b", "m::free"]);
    }

    #[test]
    fn nested_fn_owns_its_calls() {
        let src = "fn outer() { fn inner() { helper(); } inner(); }";
        let f = file("crates/x/src/m.rs", src);
        let m = build(std::slice::from_ref(&f));
        let outer = m.fns.iter().find(|f| f.name == "outer").expect("outer");
        let inner = m.fns.iter().find(|f| f.name == "inner").expect("inner");
        assert_eq!(
            inner.calls.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
            ["helper"]
        );
        assert_eq!(
            outer.calls.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
            ["inner"]
        );
    }

    #[test]
    fn lock_declarations_and_acquisitions() {
        let src = "struct S { inner: Mutex<u32> }\n\
                   impl S { fn touch(&self) { let g = self.inner.lock(); drop(g); } }";
        let f = file("crates/x/src/store.rs", src);
        let m = build(std::slice::from_ref(&f));
        assert_eq!(m.locks.len(), 1);
        assert_eq!(m.locks[0].id, "store.inner");
        let touch = m.fns.iter().find(|f| f.name == "touch").expect("touch");
        assert_eq!(touch.acquires.len(), 1);
        assert_eq!(touch.acquires[0].lock, "store.inner");
    }

    #[test]
    fn producer_fn_and_alias_resolution() {
        let src = "fn slot() -> &'static Mutex<u32> { todo!() }\n\
                   fn direct() { let g = slot().lock(); drop(g); }\n\
                   fn via_alias() { let s = slot(); let g = s.lock(); drop(g); }";
        let f = file("crates/x/src/global.rs", src);
        let m = build(std::slice::from_ref(&f));
        for name in ["direct", "via_alias"] {
            let fun = m.fns.iter().find(|f| f.name == name).expect(name);
            assert_eq!(fun.acquires.len(), 1, "{name}");
            assert_eq!(fun.acquires[0].lock, "global.slot", "{name}");
        }
    }

    #[test]
    fn transparent_chain_reaches_base() {
        let src = "static LK: OnceLock<Mutex<u32>> = OnceLock::new();\n\
                   fn f() { let g = LK.get_or_init(|| Mutex::new(0)).lock(); drop(g); }";
        let f = file("crates/x/src/init.rs", src);
        let m = build(std::slice::from_ref(&f));
        let fun = m.fns.iter().find(|f| f.name == "f").expect("f");
        assert_eq!(fun.acquires.len(), 1);
        assert_eq!(fun.acquires[0].lock, "init.LK");
    }

    #[test]
    fn let_guard_holds_to_block_end_temporary_to_statement() {
        let src = "struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
                   impl S { fn f(&self) { let g = self.a.lock(); *self.b.lock() += 1; g; } }";
        let f = file("crates/x/src/scope.rs", src);
        let m = build(std::slice::from_ref(&f));
        let fun = m.fns.iter().find(|f| f.name == "f").expect("f");
        let a = fun.acquires.iter().find(|x| x.lock == "scope.a").expect("a");
        let b = fun.acquires.iter().find(|x| x.lock == "scope.b").expect("b");
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
