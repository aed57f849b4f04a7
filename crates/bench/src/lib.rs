//! # scdb-bench — harness support for the figure-regeneration binaries
//!
//! Shared plumbing for the `fig2`, `fig7`, `fig8` and `usability`
//! binaries: experiment runners that drive both systems over identical
//! workloads, and plain-text table/series rendering in the shape of the
//! paper's figures. The heavy lifting (protocols, contracts, metrics)
//! lives in the library crates; this crate only orchestrates and prints.

#![forbid(unsafe_code)]

pub mod run;
pub mod table;

pub use run::{
    eth_round, eth_round_on, scdb_round, scdb_round_on, EthRoundReport, ScdbRoundReport,
};
pub use table::{render_series, Table};

/// Reads `--name value` from the process arguments (tiny flag parser —
/// the binaries take a handful of knobs and no dependency is worth it).
pub fn arg_value(name: &str) -> Option<String> {
    let flag = format!("--{name}");
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
        if let Some(v) = a.strip_prefix(&format!("{flag}=")) {
            return Some(v.to_owned());
        }
    }
    None
}

/// Parses `--name value` as a type, with a default.
pub fn arg_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    arg_value(name)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
