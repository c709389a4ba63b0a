//! The scope pass: one forward walk over a file's code tokens that
//! recovers exactly the structure the rules read — brace matching, the
//! `#[cfg(test)]` mask, the held region of every lock guard, and the
//! atomic declarations and `Ordering::*` sites.
//!
//! This is deliberately NOT a parser. Held regions over-approximate in the
//! safe direction: a guard whose drop point cannot be proven is held to
//! the end of its enclosing block.

use crate::lexer::{Tok, TokKind};

/// The widths of the atomic integer/bool types (`AtomicU64`, ...)
/// recognized as registrable fields.
const ATOMIC_WIDTHS: [&str; 11] =
    ["Bool", "U8", "U16", "U32", "U64", "Usize", "I8", "I16", "I32", "I64", "Isize"];

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

/// The attribute that starts a test-only item.
const CFG_TEST: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];

/// The first tokens of a statement that ends at its closing `}` with no
/// `;` (`if c { .. } else { .. }`, `match`, loops, a bare block).
const BLOCK_STATEMENTS: [&str; 8] = ["if", "else", "match", "while", "for", "loop", "unsafe", "{"];

/// What the scope pass found in one file. Token indices point into the
/// file's code tokens.
#[derive(Debug, Default)]
pub struct Scope {
    /// Per-token flag: inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// Lock acquisitions — `.lock()`, `.read()` or `.write()` with an empty
    /// argument list, so `io::Read::read(&mut buf)` never matches — made
    /// while another guard is held, each paired with the acquisition of
    /// the most recent guard still held. Test code takes no guards.
    pub nested: Vec<(usize, usize)>,
    /// Owning atomic declarations (`&Atomic*` borrows are uses), test code
    /// included: call sites resolve against all of them.
    pub atomics: Vec<AtomicDecl>,
    /// Atomic operations naming an explicit `Ordering::*`.
    pub orderings: Vec<OrderingSite>,
}

/// A declared atomic field or static.
#[derive(Debug)]
pub struct AtomicDecl {
    /// Simple declared name.
    pub name: String,
    /// The atomic type name (`AtomicU64`, ...).
    pub ty: String,
    /// Token of the name.
    pub tok: usize,
}

/// One atomic operation call site carrying an explicit `Ordering::*`.
#[derive(Debug)]
pub struct OrderingSite {
    /// Receiver base identifier as written (empty when there is none).
    pub recv: String,
    /// Operation method name (`load`, `store`, `fetch_add`, ...).
    pub op: String,
    /// The ordering named at this site (`Relaxed`, `SeqCst`, ...).
    pub ordering: String,
    /// Token of the `Ordering` path (diagnostic anchor).
    pub tok: usize,
}

/// An open block: where its current statement starts, and how many `(`
/// and `[` groups were open at its `{`.
#[derive(Clone, Copy)]
struct Block {
    stmt: usize,
    groups: usize,
}

/// A guard the walk holds: released at its block's end, at the end of the
/// block's statement when it is a temporary, or at `drop(binding)` in its
/// block.
struct Guard<'a> {
    tok: usize,
    depth: usize,
    binding: Option<&'a str>,
}

/// Where the walk stands relative to a `#[cfg(test)]` item.
#[derive(PartialEq)]
enum Test {
    /// Not inside a test item.
    Outside,
    /// Before the item's first `;` or `{` at or after token `item` (the one
    /// after any further attributes) outside any `(` or `[` group the item
    /// opens: `groups` were open at the attribute.
    Head { item: usize, groups: usize },
    /// Inside the item's body, which closes when fewer blocks are open.
    Body(usize),
}

/// Derives the short module qualifier for a workspace-relative path:
/// the file stem, or the crate directory name for `lib.rs`/`mod.rs`/
/// `main.rs` (`crates/obs/src/lib.rs` -> `obs`).
pub fn stem(rel: &str) -> String {
    let base = rel.rsplit('/').next().unwrap_or(rel);
    let name = base.strip_suffix(".rs").unwrap_or(base);
    let crate_dir = rel.rsplit_once("/src/").and_then(|(dir, _)| dir.rsplit('/').next());
    match crate_dir {
        Some(dir) if matches!(name, "lib" | "mod" | "main") => dir.to_string(),
        _ => name.to_string(),
    }
}

/// Strips the raw-identifier prefix.
fn plain(name: &str) -> &str {
    name.strip_prefix("r#").unwrap_or(name)
}

/// The text of token `i`, empty past either end.
fn text<'a>(toks: &[Tok<'a>], i: usize) -> &'a str {
    toks.get(i).map_or("", |t| t.text)
}

fn is_ident(toks: &[Tok<'_>], i: usize) -> bool {
    toks.get(i).is_some_and(|t| t.kind == TokKind::Ident)
}

/// Walks the file once. A block's statement starts after its `{`, its
/// last `;`, or the `}` that closed a block statement (`if`, `match`, a
/// loop, a bare block) outside any `(` or `[`; a guard is bound when its
/// statement is a `let` whose value is the acquisition itself.
pub fn scan(toks: &[Tok<'_>]) -> Scope {
    let mut scope = Scope { in_test: vec![false; toks.len()], ..Scope::default() };
    let mut blocks = vec![Block { stmt: 0, groups: 0 }]; // file level first
    let mut calls: Vec<usize> = Vec::new(); // open `(` tokens
    let mut brackets = 0usize; // open `[` tokens
    let mut held: Vec<Guard<'_>> = Vec::new();
    let mut test = Test::Outside;
    for i in 0..toks.len() {
        let groups = calls.len() + brackets;
        if test == Test::Outside
            && CFG_TEST.iter().enumerate().all(|(k, t)| text(toks, i + k) == *t)
        {
            let mut item = i + CFG_TEST.len();
            while text(toks, item) == "#" && text(toks, item + 1) == "[" {
                item = group_end(toks, item + 1) + 1;
            }
            test = Test::Head { item, groups };
        }
        scope.in_test[i] = test != Test::Outside;
        // Whether token `i` ends or opens the head of the test item.
        let item_level = matches!(test, Test::Head { item, groups: g } if i >= item && groups == g);
        let t = text(toks, i);
        match t {
            "{" => {
                blocks.push(Block { stmt: i + 1, groups });
                if item_level {
                    test = Test::Body(blocks.len());
                }
            }
            // An unmatched `}` only ends a file-level statement.
            "}" if blocks.len() == 1 => blocks = vec![Block { stmt: i + 1, groups }],
            "}" => {
                blocks.pop();
                held.retain(|g| g.depth <= blocks.len());
                if matches!(test, Test::Body(depth) if blocks.len() < depth) {
                    test = Test::Outside;
                }
                let depth = blocks.len();
                if let Some(block) = blocks.last_mut() {
                    let statement = text(toks, block.stmt);
                    if groups == block.groups && BLOCK_STATEMENTS.contains(&statement) {
                        held.retain(|g| g.depth != depth || g.binding.is_some());
                        block.stmt = i + 1;
                    }
                }
            }
            ";" => {
                held.retain(|g| g.depth != blocks.len() || g.binding.is_some());
                if let Some(block) = blocks.last_mut() {
                    block.stmt = i + 1;
                }
                if item_level {
                    test = Test::Outside;
                }
            }
            "(" => calls.push(i),
            ")" => {
                calls.pop();
            }
            "[" => brackets += 1,
            "]" => brackets = brackets.saturating_sub(1),
            "drop" if text(toks, i + 1) == "(" && text(toks, i + 3) == ")" => {
                let name = text(toks, i + 2);
                held.retain(|g| g.depth != blocks.len() || g.binding != Some(name));
            }
            "lock" | "read" | "write"
                if i > 0
                    && text(toks, i - 1) == "."
                    && text(toks, i + 1) == "("
                    && text(toks, i + 2) == ")"
                    && test == Test::Outside =>
            {
                if let Some(outer) = held.last() {
                    scope.nested.push((i, outer.tok));
                }
                let stmt = blocks.last().map_or(0, |block| block.stmt);
                let binding = (text(toks, stmt) == "let" && guard_is_bound(toks, i)).then(|| {
                    let name = text(toks, stmt + 1);
                    if name == "mut" {
                        text(toks, stmt + 2)
                    } else {
                        name
                    }
                });
                held.push(Guard { tok: i, depth: blocks.len(), binding });
            }
            "Ordering"
                if text(toks, i + 1) == ":"
                    && text(toks, i + 2) == ":"
                    && ATOMIC_ORDERINGS.contains(&text(toks, i + 3)) =>
            {
                // The enclosing call names the operation and its receiver.
                let Some(op_i) = calls.last().and_then(|open| open.checked_sub(1)) else {
                    continue;
                };
                let op = plain(text(toks, op_i));
                let atomic_op = matches!(op, "load" | "store" | "swap")
                    || op.starts_with("fetch_")
                    || op.starts_with("compare_exchange");
                if !is_ident(toks, op_i) || !atomic_op {
                    continue;
                }
                let recv = match op_i.checked_sub(1) {
                    Some(dot) if text(toks, dot) == "." => receiver(toks, dot),
                    _ => None,
                };
                scope.orderings.push(OrderingSite {
                    recv: recv.unwrap_or_default().to_string(),
                    op: op.to_string(),
                    ordering: text(toks, i + 3).to_string(),
                    tok: i,
                });
            }
            _ if t.strip_prefix("Atomic").is_some_and(|w| ATOMIC_WIDTHS.contains(&w))
                && text(toks, i + 1) != ":" =>
            {
                if let Some((name_i, false)) = declared_name(toks, i) {
                    let name = plain(text(toks, name_i)).to_string();
                    scope.atomics.push(AtomicDecl { name, ty: t.to_string(), tok: name_i });
                }
            }
            _ => {}
        }
    }
    scope
}

/// Walks back from an atomic type to its declaring `name:`, skipping
/// wrapper tokens (`Arc<`, `OnceLock<`, `[`, paths). Returns the name's
/// token and whether the chain passed through `&` (a borrow, i.e. a use
/// rather than an owning declaration).
fn declared_name(toks: &[Tok<'_>], ty: usize) -> Option<(usize, bool)> {
    let mut i = ty.checked_sub(1)?;
    let mut borrowed = false;
    loop {
        match text(toks, i) {
            ":" if i >= 1 && text(toks, i - 1) == ":" => {
                i = i.checked_sub(2)?; // `::` path separator
                continue;
            }
            ":" => {
                let name = i.checked_sub(1)?;
                return is_ident(toks, name).then_some((name, borrowed));
            }
            "&" => borrowed = true,
            "<" | "[" | "mut" | "dyn" => {}
            _ if is_ident(toks, i) => {}
            _ => return None,
        }
        i = i.checked_sub(1)?;
    }
}

/// The lock an acquisition at token `tok` takes: its receiver's base
/// identifier as written (`self.a.lock()` -> `a`), `?` when there is none.
pub fn lock_name<'a>(toks: &[Tok<'a>], tok: usize) -> &'a str {
    tok.checked_sub(1).and_then(|dot| receiver(toks, dot)).unwrap_or("?")
}

/// Walks a method-call receiver chain backwards from the `.` before the
/// method name to the base identifier. Skips balanced `(...)`/`[...]`
/// groups and transparent forwarding methods.
fn receiver<'a>(toks: &[Tok<'a>], dot: usize) -> Option<&'a str> {
    let mut i = dot.checked_sub(1)?;
    loop {
        let close = text(toks, i);
        if close != ")" && close != "]" {
            return is_ident(toks, i).then(|| plain(text(toks, i)));
        }
        let open = if close == ")" { "(" } else { "[" };
        let mut depth = 0i32;
        loop {
            match text(toks, i) {
                t if t == close => depth += 1,
                t if t == open => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                break;
            }
            i = i.checked_sub(1)?;
        }
        // A call `ident(...)`: transparent methods forward their receiver;
        // anything else is the chain's base producer.
        i = i.checked_sub(1)?;
        if !is_ident(toks, i) {
            return None;
        }
        let name = plain(text(toks, i));
        if !TRANSPARENT_METHODS.contains(&name) || i == 0 || text(toks, i - 1) != "." {
            return Some(name);
        }
        i = i.checked_sub(2)?;
    }
}

/// True when the acquisition at `i` is the outermost value of its
/// statement: after its argument list, only transparent forwarding calls
/// may follow before the `;`. `let g = self.a.lock();` binds the guard;
/// in `let n = self.a.lock().len();` the guard is a temporary.
fn guard_is_bound(toks: &[Tok<'_>], i: usize) -> bool {
    let mut j = i + 1; // the `(` of the acquiring call
    while text(toks, j) == "(" {
        j = group_end(toks, j);
        match text(toks, j + 1) {
            ";" => return true,
            "." if TRANSPARENT_METHODS.contains(&plain(text(toks, j + 2))) => j += 3,
            _ => return false,
        }
    }
    false
}

/// The token closing the `(` or `[` group that opens at `i`, or the
/// token count when the group never closes.
fn group_end(toks: &[Tok<'_>], i: usize) -> usize {
    let (open, close) = if text(toks, i) == "(" { ("(", ")") } else { ("[", "]") };
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(i) {
        if t.text == open {
            depth += 1;
        } else if t.text == close {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn pairs(src: &str) -> Vec<(&str, &str)> {
        let toks = lex(src);
        let nested = scan(&toks).nested;
        nested.into_iter().map(|(i, o)| (lock_name(&toks, i), lock_name(&toks, o))).collect()
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
        // `read(&mut buf)` takes arguments: an io call, not a lock.
        assert_eq!(pairs(src), [("slot", "LK"), ("inner", "slot")]);
    }

    #[test]
    fn let_guard_holds_to_block_end_temporary_to_statement() {
        let src = "impl S { fn f(&self) { let g = self.a.lock(); *self.b.lock() += 1; \
                   let h = self.c.lock(); } }";
        // The let-bound `a` is held across both; the temporary `b` is
        // released at its own `;`, so `c` nests under `a`, not `b`.
        assert_eq!(pairs(src), [("b", "a"), ("c", "a")]);
    }

    #[test]
    fn a_block_statement_ends_at_its_closing_brace() {
        // The `let` after `if c { .. }` starts a statement, so `a`'s guard
        // is bound and `b` nests under it.
        let src = "impl S { fn f(&self, c: bool) { if c { return; } let _g = self.a.lock(); \
                   let _h = self.b.lock(); } }";
        assert_eq!(pairs(src), [("b", "a")]);
        // A `match` statement's scrutinee guard dies at its closing brace,
        // and an `else` block ends the `if` statement.
        let src = "impl S { fn f(&self) { match self.a.lock().len() { 0 => {} _ => {} } \
                   let _g = self.b.lock(); if x { } else { } let _h = self.c.lock(); } }";
        assert_eq!(pairs(src), [("c", "b")]);
        // A closure's `}` inside the condition's parentheses ends nothing:
        // the condition's guard is still held in the block.
        let src = "impl S { fn f(&self) { if self.a.lock().iter().any(|x| { *x > 0 }) { \
                   let _h = self.b.lock(); } } }";
        assert_eq!(pairs(src), [("b", "a")]);
    }

    #[test]
    fn a_semicolon_inside_a_test_items_brackets_does_not_end_it() {
        let src = "#[cfg(test)] fn helper(v: [u8; 4]) -> u8 { v[0] }\n\
                   #[cfg(test)] const X: [u8; 2] = [0; 2];\n\
                   fn lib(v: &[u8]) -> u8 { v[1] }";
        let toks = lex(src);
        let scope = scan(&toks);
        let masked = |text: &str| {
            let at = toks.iter().position(|t| t.text == text).unwrap();
            scope.in_test[at]
        };
        assert!(masked("0") && masked("X"), "the test items are masked");
        assert!(!masked("lib") && !masked("1"), "the library fn after them is not");
    }

    #[test]
    fn atomic_decls_and_ops() {
        let src = "static FLAG: AtomicBool = AtomicBool::new(false);\n\
                   struct C { n: AtomicU64 }\n\
                   impl C { fn bump(&self) { self.n.fetch_add(1, Ordering::Relaxed); } }\n\
                   fn arm() { FLAG.store(true, Ordering::SeqCst); }\n\
                   fn cmp(a: u32, b: u32) -> bool { matches!(a.cmp(&b), Ordering::Less) }";
        let scope = scan(&lex(src));
        let names: Vec<&str> = scope.atomics.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, ["FLAG", "n"]);
        let sites: Vec<String> =
            scope.orderings.iter().map(|o| format!("{}.{} {}", o.recv, o.op, o.ordering)).collect();
        assert_eq!(
            sites,
            ["n.fetch_add Relaxed", "FLAG.store SeqCst"],
            "cmp::Ordering must not count"
        );
    }

    #[test]
    fn borrowed_param_is_not_a_declaration() {
        let scope = scan(&lex("fn peek(f: &AtomicBool) -> bool { f.load(Ordering::Relaxed) }"));
        assert!(scope.atomics.is_empty());
    }

    #[test]
    fn indexed_atomic_receiver() {
        let src = "struct H { counts: [AtomicU64; 4] }\n\
                   impl H { fn rec(&self, i: usize) { self.counts[i].fetch_add(1, Ordering::Relaxed); } }";
        let scope = scan(&lex(src));
        assert_eq!(scope.atomics.len(), 1);
        assert_eq!(scope.atomics[0].name, "counts");
        assert_eq!(scope.orderings.len(), 1);
        assert_eq!(scope.orderings[0].recv, "counts");
    }
}
