//! §5.2.2 Usability — lines of user code to stand up a new marketplace.
//!
//! "SmartchainDB didn't require any user-implemented code, whereas the
//! equivalent smart contract required 175 lines of code to establish
//! one marketplace." The SmartchainDB side is *declarative*: the client
//! hands the driver small JSON specifications (data, not code) and every
//! validation rule ships natively; the ETH-SC side is the embedded
//! Solidity contract this repo's EVM runtime executes op-for-op.
//!
//! Run: `cargo run --release -p scdb-bench --bin usability`

#![forbid(unsafe_code)]

use scdb_bench::Table;
use scdb_evm::solidity::{solidity_loc, solidity_total_lines, REVERSE_AUCTION_SOL};

fn main() {
    println!("Usability — user-implemented code per new marketplace\n");

    let mut t = Table::new(["system", "user LoC", "what the user writes"]);
    t.row([
        "SmartchainDB",
        "0",
        "declarative tx specs (data), validated natively",
    ]);
    t.row([
        "ETH-SC (Solidity)",
        &solidity_loc().to_string(),
        "contract structs + methods + manual validation",
    ]);
    println!("{}", t.render());

    println!(
        "paper: 0 vs 175 lines; this repo's contract: {} non-blank lines ({} total).",
        solidity_loc(),
        solidity_total_lines()
    );
    println!("\nbreakdown of the Solidity the marketplace owner must write and audit:");
    let mut functions = 0;
    let mut requires = 0;
    let mut loops = 0;
    for line in REVERSE_AUCTION_SOL.lines() {
        let l = line.trim_start();
        if l.starts_with("function ") {
            functions += 1;
        }
        requires += l.matches("require(").count();
        loops += l.matches("for (").count();
    }
    let mut b = Table::new(["hand-written artifact", "count"]);
    b.row([
        "methods (incl. validation helpers)".to_owned(),
        functions.to_string(),
    ]);
    b.row([
        "manual require() validations".to_owned(),
        requires.to_string(),
    ]);
    b.row([
        "manual loops (incl. the O(n^2) match)".to_owned(),
        loops.to_string(),
    ]);
    println!("{}", b.render());
    println!(
        "every one of these is a native, reusable validation rule in SmartchainDB\n\
         (schema validation + C_alpha condition sets; see scdb-core::validate)."
    );
}
