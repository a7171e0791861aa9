//! CI gate entry point: `cargo run -p leca-audit [-- --root <dir>]`.
//!
//! Prints one `file:line: [rule] message` diagnostic per violation and
//! exits non-zero when any rule fires, so it can run as a required job.

use std::path::PathBuf;
use std::process::ExitCode;

use leca_audit::engine::audit_workspace_ast;
use leca_audit::find_workspace_root;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let Some(dir) = args.next() else {
                    eprintln!("error: --root requires a directory argument");
                    return ExitCode::FAILURE;
                };
                root = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                println!(
                    "leca-audit: workspace static-analysis gate\n\n\
                     USAGE: leca-audit [--root <dir>]\n\n\
                     Walks every .rs file under the workspace root (default: the\n\
                     enclosing cargo workspace) and enforces the unsafe-hygiene,\n\
                     allocation, threading, determinism, float-reduction, panic-\n\
                     freedom and env-confinement invariants documented in DESIGN.md.\n\
                     Exits non-zero on any violation."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unrecognized argument `{other}` (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().expect("cwd is readable");
            match find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("error: no enclosing cargo workspace found (pass --root)");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let (diags, stats) = match audit_workspace_ast(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "error: audit failed to read workspace at {}: {e}",
                root.display()
            );
            return ExitCode::FAILURE;
        }
    };
    for d in &diags {
        println!("{d}");
    }
    eprintln!(
        "leca-audit: parsed {} of {} files — {}",
        stats.parsed,
        stats.files,
        if diags.is_empty() {
            "clean".to_string()
        } else {
            format!("{} violation(s)", diags.len())
        }
    );
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
