//! # chronos-bench
//!
//! Workload generators and the harnesses that regenerate every figure
//! and measured claim of the paper.
//!
//! * `cargo run -p chronos-bench --bin figures` prints Figures 1–13 and
//!   the four worked queries, with their exact paper answers asserted;
//! * `cargo run -p chronos-bench --bin experiments --release` runs the
//!   quantitative experiments (E14–E20 in DESIGN.md) and prints the
//!   tables recorded in EXPERIMENTS.md;
//! * `cargo bench -p chronos-bench` runs the criterion benchmarks behind
//!   those experiments.

pub mod figures;
pub mod workload;
