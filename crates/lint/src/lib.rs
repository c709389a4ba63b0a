//! # vmp-lint — workspace determinism, panic-policy & concurrency analyzer
//!
//! The platform's headline guarantees — byte-identical figure replay,
//! seeded fault plans, a deterministic monitor experiment — were enforced
//! only by double-run diff tests: they catch a nondeterminism bug *after*
//! it ships, not at the line that introduced it. This crate turns those
//! invariants into build-time law with a project-specific static pass:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `D1` | no ambient clocks/env reads outside `crates/obs` and bin entrypoints; no `HashMap`/`HashSet` in figure paths |
//! | `D2` | no `.unwrap()` / `.expect("…")` / `panic!`-family / literal indexing in library code (ratcheted) |
//! | `D3` | every obs metric/span name matches `crates/obs/METRICS.md` |
//! | `D4` | `#![forbid(unsafe_code)]` in every non-shim crate root |
//! | `D5` | every `// vmp-lint: allow(...)` pragma suppresses something |
//! | `C1` | no lock is taken while another guard is held (re-entry included) unless a pragma states the order |
//! | `C2` | every atomic field is registered in `crates/obs/ATOMICS.md` with a discipline its `Ordering::*` call sites obey (both directions) |
//! | `C3` | no lossy `as` casts or unchecked `+=`/`*=` on counters in library code (ratcheted) |
//!
//! Zero dependencies (no `syn`, no `proc-macro2`): a small hand-rolled
//! lexer ([`lexer`]) tokenizes real Rust well enough to match rule
//! patterns without ever firing inside strings, raw strings, char/byte
//! literals, or (nested) block comments. Diagnostics are `file:line:col`,
//! canonically sorted, exported as text or stable `--json`.
//!
//! The D rules match short token sequences. The C rules read a little
//! more structure from the same token stream: [`syntax`] recovers lock
//! held regions (a `let`-bound guard lives to the end of its block, a
//! temporary to the end of its statement) and atomic touch-sites, on
//! which [`rules_conc`] runs the one-lock-at-a-time check and the atomics
//! registry conformance check. Run `vmp-lint --explain RULE` for any
//! rule's rationale and fix recipes.
//!
//! Suppression is inline and auditable: `// vmp-lint: allow(D2): reason`
//! on (or directly above) the offending line. Stale pragmas are errors
//! (D5), so suppressions cannot outlive the code they excuse.
//!
//! Pre-existing debt is grandfathered per-file and ratcheted: D2 in
//! `lint-baseline.json`, C3 in `lint-overflow-baseline.json`
//! ([`baseline`]): any *new* finding fails the build, and the committed
//! totals may only decrease (CI checks the ratchet direction across
//! commits). D1/D3/D4/D5 and C1/C2 are hard-fail from day one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod rules_conc;
pub mod rules_overflow;
pub mod syntax;

pub use baseline::{Baseline, RatchetCheck};
pub use diag::{Diagnostic, RuleId};
pub use engine::{analyze, Report};
