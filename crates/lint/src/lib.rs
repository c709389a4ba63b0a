//! # vmp-lint — the workspace rules no compiler knows
//!
//! The platform's headline guarantees — byte-identical figure replay,
//! seeded fault plans, a deterministic monitor experiment — are a policy
//! on library code. Most of it is compiler configuration (DESIGN.md §8):
//! `unsafe_code = "forbid"` for every crate (D4), clippy's
//! `disallowed-*` lists for ambient clocks, env reads and hashed
//! containers (D1), the panic and lossy-cast lints (D2, C3), and
//! `#[expect]` with `unfulfilled_lint_expectations` for stale exceptions
//! (D5). This crate checks the rest, which needs the workspace's own
//! registries or a rule narrower than any clippy lint:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `D2` | no integer-literal indexing in library code (`clippy::indexing_slicing` would flag every index) |
//! | `D3` | every obs metric/span name matches `crates/obs/METRICS.md`, both ways |
//! | `C1` | no lock is taken while another guard is held (re-entry included) |
//! | `C2` | every atomic field is registered in `crates/obs/ATOMICS.md` with a discipline its `Ordering::*` call sites obey (both directions) |
//!
//! Zero dependencies (no `syn`, no `proc-macro2`). Each file goes through
//! two stages:
//!
//! 1. [`lexer`] returns the file's code tokens — identifiers, integer
//!    literals, quoted strings, punctuation, and one opaque kind for
//!    every other literal and for lifetimes — and drops comments. Each
//!    literal and (nested) block comment is consumed whole, so no rule
//!    can fire inside one.
//! 2. [`syntax::scan`] walks those tokens once, keeping a stack of open
//!    blocks. It yields the `#[cfg(test)]` mask, every lock acquisition
//!    made while another guard is held (a `let`-bound guard lives to the
//!    end of its block or its `drop`, a temporary to the end of its
//!    statement), and the atomic declarations and `Ordering::*` sites.
//!
//! D2 and D3 ([`rules`]) match short token sequences outside the mask; C1
//! and C2 ([`rules_conc`]) read the scope pass's findings. Every rule is
//! hard: there is no suppression and no baseline. Diagnostics are
//! `file:line:col`, canonically sorted, exported as text or stable
//! `--json`. Run `vmp-lint --explain RULE` for any rule's rationale and
//! fix recipes.

// Library policy, enforced by clippy (DESIGN.md §8); test builds are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), warn(clippy::cast_sign_loss))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_macros))]
#![cfg_attr(not(test), warn(clippy::disallowed_types))]
#![warn(missing_docs)]

pub mod diag;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod rules_conc;
pub mod syntax;

pub use diag::{Diagnostic, RuleId};
pub use engine::analyze;
