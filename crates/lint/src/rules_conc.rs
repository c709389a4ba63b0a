//! C1/C2 — the concurrency rules built on the [`crate::syntax`] model:
//! no lock is taken while another guard is held, and the atomics registry
//! cross-check against `crates/obs/ATOMICS.md`.

use std::collections::BTreeMap;
use std::path::Path;

use crate::diag::{Diagnostic, RuleId};
use crate::engine::{FileClass, SourceFile};
use crate::rules::table_rows;
use crate::syntax::Model;

/// Whether a token is in non-test library code, the only code C1/C2
/// constrain (test-only locks like serialization guards must not).
fn live_lib(sources: &[SourceFile<'_>], file: usize, tok: usize) -> bool {
    sources[file].class == FileClass::Lib && !sources[file].in_test[tok]
}

/// C1 — one lock at a time.
///
/// Every acquisition that falls inside another guard's held region is a
/// finding, re-acquiring the held lock included. The check is per
/// function body and token-level: nesting through a call is out of scope.
pub fn check_lock_nesting(model: &Model, sources: &[SourceFile<'_>], diags: &mut Vec<Diagnostic>) {
    let live: Vec<_> = model.acquires.iter().filter(|a| live_lib(sources, a.file, a.tok)).collect();
    for inner in &live {
        let src = &sources[inner.file];
        // The most recently acquired guard still held at `inner`.
        let Some(outer) = live.iter().rev().find(|a| {
            a.file == inner.file && a.tok < inner.tok && inner.tok <= a.hold_end
        }) else {
            continue;
        };
        let (t, held_at) = (&src.toks[inner.tok], src.toks[outer.tok].line);
        let message = if inner.lock == outer.lock {
            format!(
                "`{}` is re-acquired here while already held (since line {held_at}) — \
                 a self-deadlock on a non-reentrant lock",
                inner.lock
            )
        } else {
            format!(
                "`{}` is acquired here while `{}` is held (since line {held_at}) — take \
                 one lock at a time",
                inner.lock, outer.lock
            )
        };
        diags.push(Diagnostic::new(RuleId::C1, src.rel.clone(), t.line, t.col, message));
    }
}

/// Where the atomics registry lives.
pub const ATOMICS_REGISTRY_REL: &str = "crates/obs/ATOMICS.md";

/// One ordering discipline: `(name, allowed loads, allowed stores,
/// allowed read-modify-writes)`.
pub type Discipline =
    (&'static str, &'static [&'static str], &'static [&'static str], &'static [&'static str]);

/// Ordering disciplines. `compare_exchange` failure orderings are checked
/// against the load set.
pub const DISCIPLINES: &[Discipline] = &[
    ("relaxed-counter", &["Relaxed"], &["Relaxed"], &["Relaxed"]),
    ("relaxed-flag", &["Relaxed"], &["Relaxed"], &["Relaxed"]),
    ("relaxed-config", &["Relaxed"], &["Relaxed"], &["Relaxed"]),
    ("acquire-release-publication", &["Acquire"], &["Release"], &["AcqRel"]),
    ("seqcst", &["SeqCst"], &["SeqCst"], &["SeqCst"]),
];

#[derive(Debug)]
struct RegistryRow {
    ty: String,
    discipline: String,
    line: u32,
    used: bool,
}

/// C2 — atomics registry, checked both directions.
///
/// Every atomic field/static declared in library code must have a row in
/// `crates/obs/ATOMICS.md` naming its ordering discipline; every
/// `Ordering::*` call site on that field must conform to the discipline;
/// and every registry row must still correspond to a declared field.
pub fn check_atomics_registry(
    root: &Path,
    model: &Model,
    sources: &[SourceFile<'_>],
    diags: &mut Vec<Diagnostic>,
) {
    let decls: Vec<&crate::syntax::AtomicDecl> =
        model.atomics.iter().filter(|a| live_lib(sources, a.file, a.tok)).collect();
    let ops: Vec<&crate::syntax::AtomicOp> =
        model.atomic_ops.iter().filter(|o| live_lib(sources, o.file, o.tok)).collect();
    if decls.is_empty() && ops.is_empty() {
        return; // nothing to register; a missing file is fine
    }

    let registry_text = match std::fs::read_to_string(root.join(ATOMICS_REGISTRY_REL)) {
        Ok(t) => t,
        Err(_) => {
            diags.push(Diagnostic::new(
                RuleId::C2,
                ATOMICS_REGISTRY_REL,
                1,
                1,
                "atomics registry crates/obs/ATOMICS.md is missing".to_string(),
            ));
            return;
        }
    };

    // Parse `| `key` | type | discipline | description |` rows; rows whose
    // key cell is not backticked are headers/separators.
    let mut registry: BTreeMap<String, RegistryRow> = BTreeMap::new();
    for (lineno, cells) in table_rows(&registry_text) {
        let [key_cell, ty_cell, disc_cell, ..] = cells.as_slice() else { continue };
        let key = key_cell.trim_matches('`');
        if key.is_empty() || *key_cell == key {
            continue;
        }
        if !DISCIPLINES.iter().any(|(d, ..)| d == disc_cell) {
            diags.push(Diagnostic::new(
                RuleId::C2,
                ATOMICS_REGISTRY_REL,
                lineno,
                1,
                format!(
                    "unknown ordering discipline `{disc_cell}` for `{key}` (known: {})",
                    DISCIPLINES.iter().map(|(d, ..)| *d).collect::<Vec<_>>().join(", ")
                ),
            ));
            continue;
        }
        if registry.contains_key(key) {
            diags.push(Diagnostic::new(
                RuleId::C2,
                ATOMICS_REGISTRY_REL,
                lineno,
                1,
                format!("duplicate registry entry `{key}`"),
            ));
        } else {
            registry.insert(
                key.to_string(),
                RegistryRow {
                    ty: (*ty_cell).to_string(),
                    discipline: (*disc_cell).to_string(),
                    line: lineno,
                    used: false,
                },
            );
        }
    }

    // Direction 1: every declared atomic is registered, with its type.
    for d in &decls {
        let src = &sources[d.file];
        let t = &src.toks[d.tok];
        match registry.get_mut(&d.key) {
            None => diags.push(Diagnostic::new(
                RuleId::C2,
                src.rel.clone(),
                t.line,
                t.col,
                format!(
                    "atomic field `{}` ({}) is not registered in crates/obs/ATOMICS.md \
                     — add a row naming its ordering discipline",
                    d.key, d.ty
                ),
            )),
            Some(row) => {
                row.used = true;
                if !row.ty.contains(&d.ty) {
                    diags.push(Diagnostic::new(
                        RuleId::C2,
                        ATOMICS_REGISTRY_REL,
                        row.line,
                        1,
                        format!(
                            "registry entry `{}` declares type `{}` but the field is `{}`",
                            d.key, row.ty, d.ty
                        ),
                    ));
                }
            }
        }
    }

    // Direction 2: no stale registry rows.
    for (key, row) in &registry {
        if !row.used {
            diags.push(Diagnostic::new(
                RuleId::C2,
                ATOMICS_REGISTRY_REL,
                row.line,
                1,
                format!("registry entry `{key}` matches no declared atomic field"),
            ));
        }
    }

    // Call-site conformance.
    for op in &ops {
        let src = &sources[op.file];
        let t = &src.toks[op.tok];
        let Some(key) = &op.key else {
            // A lowercase receiver is a local borrow/clone of a field
            // (iteration variables, moved Arc clones) whose declared sites
            // are checked directly; only static-looking receivers must
            // resolve.
            if !op.recv.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                continue;
            }
            diags.push(Diagnostic::new(
                RuleId::C2,
                src.rel.clone(),
                t.line,
                t.col,
                format!(
                    "atomic `{}` on `{}` does not resolve to a declared atomic field — \
                     declare the field with an explicit atomic type so its discipline \
                     is checkable",
                    op.op, op.recv
                ),
            ));
            continue;
        };
        let Some(row) = registry.get(key) else {
            continue; // already reported at the declaration
        };
        let Some((_, loads, stores, rmws)) =
            DISCIPLINES.iter().find(|(d, ..)| *d == row.discipline)
        else {
            continue; // unknown discipline already reported at the row
        };
        let ord = op.ordering.as_str();
        let allowed = match op.op.as_str() {
            "load" => loads.contains(&ord),
            "store" => stores.contains(&ord),
            op if op.starts_with("compare_exchange") || op == "fetch_update" => {
                rmws.contains(&ord) || loads.contains(&ord)
            }
            _ => rmws.contains(&ord),
        };
        if !allowed {
            diags.push(Diagnostic::new(
                RuleId::C2,
                src.rel.clone(),
                t.line,
                t.col,
                format!(
                    "`{}` is registered as `{}` but `{}` here uses Ordering::{} — \
                     update the call site or the registry discipline",
                    key, row.discipline, op.op, op.ordering
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::test_regions;
    use crate::lexer::lex;
    use crate::syntax::build;

    fn file<'a>(rel: &str, src: &'a str) -> SourceFile<'a> {
        let toks = lex(src);
        let in_test = test_regions(&toks);
        SourceFile { rel: rel.to_string(), class: FileClass::Lib, toks, in_test }
    }

    fn c1(body: &str) -> Vec<Diagnostic> {
        let files = [file("crates/x/src/s.rs", body)];
        let mut diags = Vec::new();
        check_lock_nesting(&build(&files), &files, &mut diags);
        diags
    }

    #[test]
    fn nesting_in_either_order_fires_at_the_inner_acquisition() {
        let diags = c1("impl S {\n\
                        fn ab(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
                        fn ba(&self) { let g = self.b.lock(); let h = self.a.lock(); }\n}");
        let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
        assert_eq!(lines, [2, 3], "{diags:?}");
        assert!(diags[0].message.contains("`b` is acquired here while `a` is held"));
        assert!(diags[1].message.contains("`a` is acquired here while `b` is held"));
    }

    #[test]
    fn reentry_and_write_under_a_mutex_fire() {
        let diags = c1("impl S { fn f(&self) { let g = self.a.lock(); let h = self.a.lock(); } }");
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("re-acquired"), "{diags:?}");
        let diags = c1("impl S { fn f(&self) { let g = self.a.lock(); let h = self.r.write(); } }");
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn two_temporaries_in_one_statement_fire() {
        let diags = c1("impl S { fn fmt(&self, f: &mut F) -> R {\n\
                        f.debug_struct(\"S\").field(\"a\", &*self.a.lock())\n\
                        .field(\"b\", &*self.b.lock()).finish() } }");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn released_guards_io_calls_and_test_code_are_silent() {
        let src = "impl S {\n\
                   fn f(&self) { *self.a.lock() += 1; let g = self.b.lock(); }\n\
                   fn d(&self) { let g = self.a.lock(); drop(g); let h = self.b.lock(); }\n\
                   fn io(&self, r: &mut R) { let g = self.a.lock(); r.read(&mut buf); r.write(&buf); }\n}\n\
                   #[cfg(test)]\nmod tests { fn t(s: &S) { let g = s.b.lock(); let h = s.a.lock(); } }";
        let diags = c1(src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    fn run_c2(src: &str, registry: &str) -> Vec<Diagnostic> {
        let dir = std::env::temp_dir().join(format!(
            "vmp-lint-c2-{}-{}",
            std::process::id(),
            src.len() + registry.len()
        ));
        let _ = std::fs::create_dir_all(dir.join("crates/obs"));
        std::fs::write(dir.join("crates/obs/ATOMICS.md"), registry).expect("write registry");
        let files = [file("crates/x/src/atom.rs", src)];
        let mut diags = Vec::new();
        check_atomics_registry(&dir, &build(&files), &files, &mut diags);
        let _ = std::fs::remove_dir_all(&dir);
        diags
    }

    const ATOM_SRC: &str = "struct C { n: AtomicU64 }\n\
        impl C { fn bump(&self) { self.n.fetch_add(1, Ordering::Relaxed); } }";

    #[test]
    fn registered_matching_discipline_is_clean() {
        let reg = "| key | type | discipline | description |\n|---|---|---|---|\n\
                   | `atom.n` | AtomicU64 | relaxed-counter | test counter |\n";
        let diags = run_c2(ATOM_SRC, reg);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unregistered_field_and_stale_row_both_fire() {
        let reg = "| key | type | discipline | description |\n|---|---|---|---|\n\
                   | `atom.gone` | AtomicBool | relaxed-flag | no longer exists |\n";
        let diags = run_c2(ATOM_SRC, reg);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().any(|d| d.message.contains("not registered")));
        assert!(diags.iter().any(|d| d.message.contains("matches no declared")));
    }

    #[test]
    fn discipline_mismatch_fires_at_call_site() {
        let reg = "| key | type | discipline | description |\n|---|---|---|---|\n\
                   | `atom.n` | AtomicU64 | acquire-release-publication | published |\n";
        let diags = run_c2(ATOM_SRC, reg);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("Ordering::Relaxed"));
        assert_eq!(diags[0].file, "crates/x/src/atom.rs");
    }

    #[test]
    fn unknown_discipline_is_an_error() {
        let reg = "| key | type | discipline | description |\n|---|---|---|---|\n\
                   | `atom.n` | AtomicU64 | vibes | whatever |\n";
        let diags = run_c2(ATOM_SRC, reg);
        assert!(diags.iter().any(|d| d.message.contains("unknown ordering discipline")));
    }
}
