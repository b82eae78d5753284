#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # flow3d-tidy — project lints for determinism and panic safety
//!
//! A std-only static-analysis pass over the 3D-Flow workspace, in the
//! spirit of rust-lang/rust's `tidy`: a small hand-rolled lexer (no
//! `syn`, builds offline) feeds pattern checks that encode the
//! invariants the engine's tests can only probe probabilistically:
//!
//! | id | name | guards against |
//! |----|------|----------------|
//! | D1 | `unordered-map`         | `HashMap`/`HashSet` iteration-order nondeterminism |
//! | D2 | `nondet-source`         | wall-clock / unseeded RNG in algorithm crates |
//! | D3 | `panic-unwrap`          | `unwrap`/`expect`/`panic!` in library non-test code |
//! | D4 | `float-eq`              | exact float `==`/`!=` in geometry/cost code |
//! | D5 | `missing-forbid-unsafe` | crate roots without `#![forbid(unsafe_code)]` |
//! | W1 | `contract-drift`        | config/CLI/doc, wire-command, and metric-name drift |
//! | W2 | `dead-pub`              | `pub` items no other crate references |
//! | W3 | `nondet-capture`        | shared mutable captures in `flow3d_par` closures |
//!
//! The D-family is per-file token analysis. The W-family runs on a
//! **symbol graph** ([`symbols`](crate) internals): every file is lexed
//! on every run and distilled into defs/refs/string-literal facts, and
//! cross-file passes compare code against code *and* code against the
//! operational docs (README.md, EXPERIMENTS.md, SERVING.md). A run
//! without `--fix` writes nothing.
//!
//! Why a *static* gate: PR 2/3 made the legalizer bit-identical across
//! thread counts, but that contract was enforced only by runtime
//! differential tests. One `HashMap` iteration on a result path can
//! reintroduce nondeterminism that a test matrix catches only when the
//! hash seed cooperates. `flow3d-tidy` rejects the pattern at CI time.
//! The same argument scales up: a wire command the docs don't know, a
//! metric the alert rows misname, or a `&mut` capture in a `par_map`
//! closure are all drift the runtime suites catch late or never.
//!
//! Every lint supports inline suppression that **requires a reason**:
//!
//! ```text
//! // flow3d-tidy: allow(panic-unwrap) — invariant: list checked non-empty above
//! ```
//!
//! Reason-less allows, unknown lint names, and allows that match
//! nothing are violations themselves, so the suppression inventory
//! cannot rot.
//!
//! Entry point: `cargo run -p flow3d-lint` (`--json`, `--fix`,
//! `--list`, `--root DIR`). It exits 0 when the tree is clean, 1 on
//! violations, and 2 on an I/O or usage error.
//!
//! ```
//! use flow3d_lint::{check_file, FilePolicy, Lint};
//!
//! let bad = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
//! let violations = check_file(bad, &FilePolicy::strict());
//! assert_eq!(violations.len(), 1);
//! assert_eq!(violations[0].lint, Lint::PanicUnwrap);
//! ```

mod capture;
mod contracts;
mod deadpub;
pub mod diag;
mod lexer;
pub mod lints;
mod symbols;
pub mod workspace;

pub use diag::{render_human, render_json, FileViolation};
pub use lints::{check_file, FilePolicy, Lint, Violation, ALL_LINTS};
pub use workspace::{find_workspace_root, run, TidyReport};
