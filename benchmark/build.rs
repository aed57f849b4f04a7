//! Stamps the compiler version into the binary so every results file
//! names the toolchain that produced its numbers.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |v| v.trim().to_owned());
    println!("cargo:rustc-env=SCDB_BENCHMARK_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
