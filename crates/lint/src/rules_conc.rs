//! C1/C2 — the concurrency rules built on the scope pass
//! ([`crate::syntax`]): no lock is taken while another guard is held, and
//! the atomics registry cross-check against `crates/obs/ATOMICS.md`.

use std::collections::BTreeMap;

use crate::diag::{Diagnostic, RuleId};
use crate::engine::{FileClass, SourceFile};
use crate::rules::table_rows;
use crate::syntax::{lock_name, stem};

/// C1 — one lock at a time.
///
/// Every acquisition that falls inside another guard's held region is a
/// finding, re-acquiring the held lock included. The check is per
/// function body and token-level: nesting through a call is out of scope.
pub fn check_lock_nesting(sources: &[SourceFile<'_>], diags: &mut Vec<Diagnostic>) {
    for src in sources.iter().filter(|s| s.class == FileClass::Lib) {
        for &(tok, outer_tok) in &src.scope.nested {
            let held_at = src.toks[outer_tok].line;
            let (lock, outer) = (lock_name(&src.toks, tok), lock_name(&src.toks, outer_tok));
            let message = if lock == outer {
                format!(
                    "`{lock}` is re-acquired here while already held (since line {held_at}) — \
                     a self-deadlock on a non-reentrant lock"
                )
            } else {
                format!(
                    "`{lock}` is acquired here while `{outer}` is held (since line {held_at}) — \
                     take one lock at a time"
                )
            };
            diags.push(src.diag(RuleId::C1, tok, message));
        }
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
struct RegistryRow<'a> {
    ty: &'a str,
    discipline: &'a str,
    line: u32,
    used: bool,
}

/// C2 — atomics registry, checked both directions.
///
/// Every atomic field/static declared in library code must have a row in
/// the registry text (`None` when `crates/obs/ATOMICS.md` is missing)
/// naming its ordering discipline; every `Ordering::*` call site on that
/// field must conform to the discipline; and every registry row must
/// still correspond to a declared field.
pub fn check_atomics_registry(
    registry_text: Option<&str>,
    sources: &[SourceFile<'_>],
    diags: &mut Vec<Diagnostic>,
) {
    let key = |src: &SourceFile<'_>, name: &str| format!("{}.{name}", stem(&src.rel));
    // Call sites resolve against every declaration, test code included;
    // only live library declarations must be registered.
    let decls: Vec<_> =
        sources.iter().flat_map(|s| s.scope.atomics.iter().map(move |a| (s, a))).collect();
    let live_decls: Vec<_> = decls.iter().filter(|(s, a)| s.live_lib(a.tok)).collect();
    let ops: Vec<_> = sources
        .iter()
        .flat_map(|s| s.scope.orderings.iter().filter(|o| s.live_lib(o.tok)).map(move |o| (s, o)))
        .collect();
    if live_decls.is_empty() && ops.is_empty() {
        return; // nothing to register; a missing file is fine
    }
    let Some(registry_text) = registry_text else {
        let msg = "atomics registry crates/obs/ATOMICS.md is missing";
        diags.push(Diagnostic::new(RuleId::C2, ATOMICS_REGISTRY_REL, 1, 1, msg.to_string()));
        return;
    };
    let at_row =
        |line: u32, msg: String| Diagnostic::new(RuleId::C2, ATOMICS_REGISTRY_REL, line, 1, msg);

    // Parse `| `key` | type | discipline | description |` rows; rows whose
    // key cell is not backticked are headers/separators.
    let mut registry: BTreeMap<&str, RegistryRow<'_>> = BTreeMap::new();
    for (line, cells) in table_rows(registry_text) {
        let [key_cell, ty, discipline, ..] = cells.as_slice() else { continue };
        let key = key_cell.trim_matches('`');
        if key.is_empty() || key_cell == &key {
            continue;
        }
        if !DISCIPLINES.iter().any(|(d, ..)| d == discipline) {
            let known = DISCIPLINES.iter().map(|(d, ..)| *d).collect::<Vec<_>>().join(", ");
            let msg =
                format!("unknown ordering discipline `{discipline}` for `{key}` (known: {known})");
            diags.push(at_row(line, msg));
        } else if registry.contains_key(key) {
            diags.push(at_row(line, format!("duplicate registry entry `{key}`")));
        } else {
            registry.insert(key, RegistryRow { ty, discipline, line, used: false });
        }
    }

    // Direction 1: every declared atomic is registered, with its type.
    for (src, d) in live_decls {
        let key = key(src, &d.name);
        match registry.get_mut(key.as_str()) {
            None => {
                let msg = format!(
                    "atomic field `{key}` ({}) is not registered in crates/obs/ATOMICS.md \
                     — add a row naming its ordering discipline",
                    d.ty
                );
                diags.push(src.diag(RuleId::C2, d.tok, msg));
            }
            Some(row) => {
                row.used = true;
                if !row.ty.contains(&d.ty) {
                    let msg = format!(
                        "registry entry `{key}` declares type `{}` but the field is `{}`",
                        row.ty, d.ty
                    );
                    diags.push(at_row(row.line, msg));
                }
            }
        }
    }

    // Direction 2: no stale registry rows.
    for (key, row) in registry.iter().filter(|(_, row)| !row.used) {
        diags.push(at_row(
            row.line,
            format!("registry entry `{key}` matches no declared atomic field"),
        ));
    }

    // Call-site conformance.
    for (src, op) in ops {
        let key = if !op.recv.is_empty() && src.scope.atomics.iter().any(|a| a.name == op.recv) {
            Some(key(src, &op.recv))
        } else {
            // An atomic declared in another file but touched here (rare:
            // pub statics). Resolve by unique global name match.
            match decls.iter().filter(|(_, a)| a.name == op.recv).collect::<Vec<_>>().as_slice() {
                [(decl_src, a)] => Some(key(decl_src, &a.name)),
                _ => None,
            }
        };
        let Some(key) = key else {
            // A lowercase receiver is a local borrow/clone of a field
            // (iteration variables, moved Arc clones) whose declared sites
            // are checked directly; only static-looking receivers must
            // resolve.
            if op.recv.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                let msg = format!(
                    "atomic `{}` on `{}` does not resolve to a declared atomic field — \
                     declare the field with an explicit atomic type so its discipline \
                     is checkable",
                    op.op, op.recv
                );
                diags.push(src.diag(RuleId::C2, op.tok, msg));
            }
            continue;
        };
        // An unregistered field is reported at its declaration.
        let Some(row) = registry.get(key.as_str()) else { continue };
        let Some((_, loads, stores, rmws)) =
            DISCIPLINES.iter().find(|(d, ..)| *d == row.discipline)
        else {
            continue;
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
            let msg = format!(
                "`{key}` is registered as `{}` but `{}` here uses Ordering::{} — \
                 update the call site or the registry discipline",
                row.discipline, op.op, op.ordering
            );
            diags.push(src.diag(RuleId::C2, op.tok, msg));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `line: message` of each C1 finding in `src`.
    fn c1(src: &str) -> Vec<String> {
        let mut diags = Vec::new();
        check_lock_nesting(
            &[SourceFile::new("crates/x/src/s.rs", FileClass::Lib, src)],
            &mut diags,
        );
        diags.iter().map(|d| format!("{}: {}", d.line, d.message)).collect()
    }

    #[test]
    fn nesting_in_either_order_fires_at_the_inner_acquisition() {
        let found = c1("impl S {\n\
                        fn ab(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
                        fn ba(&self) { let g = self.b.lock(); let h = self.a.lock(); }\n}");
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].starts_with("2: `b` is acquired here while `a` is held"), "{found:?}");
        assert!(found[1].starts_with("3: `a` is acquired here while `b` is held"), "{found:?}");
    }

    #[test]
    fn reentry_and_write_under_a_mutex_fire() {
        let found = c1("impl S { fn f(&self) { let g = self.a.lock(); let h = self.a.lock(); } }");
        assert!(found.len() == 1 && found[0].contains("re-acquired"), "{found:?}");
        let found = c1("impl S { fn f(&self) { let g = self.a.lock(); let h = self.r.write(); } }");
        assert_eq!(found.len(), 1, "{found:?}");
    }

    #[test]
    fn two_temporaries_in_one_statement_fire() {
        let found = c1("impl S { fn fmt(&self, f: &mut F) -> R {\n\
                        f.debug_struct(\"S\").field(\"a\", &*self.a.lock())\n\
                        .field(\"b\", &*self.b.lock()).finish() } }");
        assert!(found.len() == 1 && found[0].starts_with("3: "), "{found:?}");
    }

    #[test]
    fn released_guards_io_calls_and_test_code_are_silent() {
        let src = "impl S {\n\
                   fn f(&self) { *self.a.lock() += 1; let g = self.b.lock(); }\n\
                   fn d(&self) { let g = self.a.lock(); drop(g); let h = self.b.lock(); }\n\
                   fn io(&self, r: &mut R) { let g = self.a.lock(); r.read(&mut buf); r.write(&buf); }\n}\n\
                   #[cfg(test)]\nmod tests { fn t(s: &S) { let g = s.b.lock(); let h = s.a.lock(); } }";
        assert_eq!(c1(src), Vec::<String>::new());
    }

    /// `file:line: message` of each C2 finding for one relaxed `fetch_add`
    /// on the field `atom.n`, against a registry holding `row`.
    fn c2(row: &str) -> Vec<String> {
        let src = "struct C { n: AtomicU64 }\n\
                   impl C { fn bump(&self) { self.n.fetch_add(1, Ordering::Relaxed); } }";
        let files = [SourceFile::new("crates/x/src/atom.rs", FileClass::Lib, src)];
        let registry =
            format!("| key | type | discipline | description |\n|---|---|---|---|\n{row}\n");
        let mut diags = Vec::new();
        check_atomics_registry(Some(&registry), &files, &mut diags);
        diags.iter().map(|d| format!("{}:{}: {}", d.file, d.line, d.message)).collect()
    }

    #[test]
    fn registered_matching_discipline_is_clean() {
        assert_eq!(
            c2("| `atom.n` | AtomicU64 | relaxed-counter | test counter |"),
            Vec::<String>::new()
        );
    }

    #[test]
    fn unregistered_field_and_stale_row_both_fire() {
        let found = c2("| `atom.gone` | AtomicBool | relaxed-flag | no longer exists |");
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().any(|d| d.contains("not registered")));
        assert!(found.iter().any(|d| d.contains("matches no declared")));
    }

    #[test]
    fn discipline_mismatch_fires_at_call_site() {
        let found = c2("| `atom.n` | AtomicU64 | acquire-release-publication | published |");
        assert!(found.len() == 1 && found[0].starts_with("crates/x/src/atom.rs:2: "), "{found:?}");
        assert!(found[0].contains("Ordering::Relaxed"));
    }

    #[test]
    fn unknown_discipline_is_an_error() {
        let found = c2("| `atom.n` | AtomicU64 | vibes | whatever |");
        assert!(found.iter().any(|d| d.contains("unknown ordering discipline")), "{found:?}");
    }
}
