//! `dsx-xtask` — repo-local developer tooling for the DSXplore workspace.
//!
//! The one subcommand today is `lint`: a concurrency-correctness static
//! analysis purpose-built for this codebase (see [`lints`] for the rule
//! table). PRs 5–7 concentrated the system's risk into a small amount of
//! `unsafe` concurrent code — the work-stealing pool and the
//! `SharedMutF32` raw-pointer seam — and these lints are the
//! machine-enforced floor under it: every `unsafe` justified, every weak
//! atomic ordering argued, library code panic-free unless a human signed
//! off, clean crates locked clean, and all parallelism routed through the
//! persistent pool.
//!
//! Run it as `cargo run -p dsx-xtask -- lint`; CI runs it before the main
//! build so a violation fails in seconds.

#![forbid(unsafe_code)]

pub mod lex;
pub mod lints;

pub use lints::{lint_root, Finding};
