//! Workspace automation: `cargo xtask <command>`.

mod lint_concurrency;
mod lint_public_items;

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint-concurrency") => lint_concurrency::run(),
        Some("lint-public-items") => lint_public_items::run(),
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`");
            eprintln!("commands: lint-concurrency, lint-public-items");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo xtask <command>");
            eprintln!("commands: lint-concurrency, lint-public-items");
            ExitCode::FAILURE
        }
    }
}
