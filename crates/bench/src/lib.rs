//! # rjms-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation. Each experiment is a binary (`cargo run -p rjms-bench
//! --release --bin <name>`) that prints the same rows/series the paper
//! reports; `EXPERIMENTS.md` at the repository root records paper-vs-measured
//! for each, and what a binary prints is its only record.
//!
//! This library crate carries the shared plumbing: a fixed-width text-table
//! writer, the standard experiment header, the paper's saturated
//! measurement grid run on the broker itself ([`grid`]), and the paired
//! overhead gates ([`overhead`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod grid;
pub mod overhead;
pub mod table;

pub use table::Table;

/// Prints the standard experiment header.
pub fn experiment_header(id: &str, artifact: &str, description: &str) {
    println!("================================================================");
    println!("{id} — reproduces {artifact}");
    println!("{description}");
    println!("================================================================");
}
