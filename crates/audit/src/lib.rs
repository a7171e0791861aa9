//! `leca-audit` — workspace-specific static analysis the compiler can't do.
//!
//! The LeCA workspace concentrates all of its trust into a small amount of
//! `unsafe` (the AVX2 kernels, the worker pool) and a handful of
//! *conventions* (zero-allocation `_into` kernels, seeded randomness,
//! pool-only parallelism). `rustc` and clippy enforce none of those
//! conventions, so this crate parses every `.rs` file in the workspace
//! into a token tree (the offline `syn` shim) and checks repo-specific
//! invariants:
//!
//! | Rule | Invariant |
//! |---|---|
//! | [`rules::UNSAFE_COMMENT`] | every `unsafe` block / fn / impl is preceded by a `// SAFETY:` comment |
//! | [`rules::UNSAFE_ALLOWLIST`] | `unsafe` only appears in the explicit module allowlist |
//! | [`rules::THREAD_SPAWN`] | no thread spawning in library code outside the explicit spawn allowlist |
//! | [`rules::JOINED_SPAWN`] | spawn-allowlisted library files keep `JoinHandle`s — no detached threads |
//! | [`rules::HOT_PATH_ALLOC`] | no allocation calls inside `_into` kernel bodies (error/panic arms exempt) |
//! | [`rules::NONDETERMINISM`] | no wall-clock / OS-entropy randomness outside the bench harness |
//! | [`rules::LINT_HEADER`] | `#![forbid(unsafe_code)]` / `#![deny(unsafe_op_in_unsafe_fn)]` headers present |
//! | [`rules::ISA_CONFINEMENT`] | ISA intrinsics / feature detection only inside `crates/tensor/src/backend/` |
//! | [`rules::FLOAT_REDUCTION_ORDER`] | no iterator float reductions outside the sanctioned reduction ops |
//! | [`rules::PANIC_FREEDOM`] | no panic exits in the serve steady-state path or `_into` kernels |
//! | [`rules::ENV_READ_CONFINEMENT`] | all `std::env` access goes through `runtime_env` |
//!
//! The rules live in [`engine`]. This root module holds what they share:
//! the rule identifiers, the allowlists, the [`Diagnostic`] type and the
//! workspace walk.
//!
//! The binary (`cargo run -p leca-audit`) walks the workspace, prints
//! `file:line: [rule] message` diagnostics and exits non-zero on any
//! violation — it runs as a required CI job, so a future kernel PR cannot
//! silently regress the soundness story.

// The audit gate must hold itself to the strictest standard.
#![forbid(unsafe_code)]
// This crate's documentation is *about* safety comments, so the literal
// marker text appears next to perfectly safe items — which is exactly the
// pattern that lint's heuristic flags.
#![allow(clippy::unnecessary_safety_comment)]

use std::fmt;
use std::path::{Path, PathBuf};

pub mod engine;

pub mod rules {
    //! Stable rule identifiers, used in diagnostics and tests.

    /// `unsafe` block/fn/impl without a preceding `// SAFETY:` comment.
    pub const UNSAFE_COMMENT: &str = "unsafe-safety-comment";
    /// `unsafe` outside the allowlisted modules.
    pub const UNSAFE_ALLOWLIST: &str = "unsafe-allowlist";
    /// Thread spawning outside the worker pool.
    pub const THREAD_SPAWN: &str = "thread-spawn";
    /// Spawn-allowlisted library file with no `JoinHandle` in sight —
    /// a detached thread the shutdown path cannot join.
    pub const JOINED_SPAWN: &str = "joined-spawn";
    /// Allocation inside a zero-alloc `_into` kernel body.
    pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
    /// Wall-clock / OS-entropy nondeterminism outside seeded entry points.
    pub const NONDETERMINISM: &str = "nondeterminism";
    /// Required crate-level lint header missing.
    pub const LINT_HEADER: &str = "lint-header";
    /// ISA intrinsics or CPU-feature detection outside the backend layer.
    pub const ISA_CONFINEMENT: &str = "isa-confinement";
    /// Iterator float reduction (`.sum::<f32>()`, float-seeded `.fold`)
    /// outside the sanctioned reduction modules.
    pub const FLOAT_REDUCTION_ORDER: &str = "float-reduction-order";
    /// `unwrap`/`expect`/panic-macro/slice-index in the serve steady-state
    /// path or a `_into` kernel body.
    pub const PANIC_FREEDOM: &str = "panic-freedom";
    /// `std::env` access outside `runtime_env` and the sanctioned writers.
    pub const ENV_READ_CONFINEMENT: &str = "env-read-confinement";
    /// A file the engine could not lex/parse — nothing was audited, which
    /// is itself a violation.
    pub const PARSE_ERROR: &str = "parse-error";
}

/// Files allowed to contain `unsafe` (workspace-relative paths), with the
/// reason they are trusted. Everything else must be safe Rust — the safe
/// crates additionally carry `#![forbid(unsafe_code)]`.
pub const UNSAFE_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/tensor/src/backend/avx2.rs",
        "hand-written AVX2 f32 GEMM microkernel (bounds argued per load/store, Miri-exempt via cfg)",
    ),
    (
        "crates/tensor/src/backend/mod.rs",
        "runtime dispatch into target_feature functions (hand bodies and compiled scalar bodies) after CPUID detection",
    ),
    (
        "crates/tensor/src/parallel.rs",
        "worker pool: lifetime-erased job closures and disjoint row slices",
    ),
    (
        "tests/counting_alloc/mod.rs",
        "counting GlobalAlloc delegating verbatim to System, shared by the allocation-lockdown tests",
    ),
    (
        "crates/tensor/src/backend/qavx2.rs",
        "int8 AVX2 microkernel, quantize and requantize passes (bounds argued per load/store, Miri-exempt via cfg)",
    ),
    (
        "crates/tensor/src/backend/fastmath.rs",
        "FMA GEMM microkernel (bounds argued per load/store, Miri-exempt via cfg)",
    ),
    (
        "shims/loom/src/lib.rs",
        "model-checking shim: one pointer round-trip in Condvar::wait (guard lifetime argued)",
    ),
];

/// Files allowed to spawn threads directly. All other library code must
/// route parallelism through the `LECA_THREADS` pool so thread counts (and
/// the determinism contract) stay centrally controlled.
pub const SPAWN_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/tensor/src/parallel.rs",
        "the worker pool itself — the one sanctioned spawn site",
    ),
    (
        "crates/serve/src/supervisor.rs",
        "supervised serving shards: long-lived named threads, every handle joined on shutdown",
    ),
    (
        "shims/loom/src/lib.rs",
        "the model checker spawns the threads it schedules; every handle is joined at model exit",
    ),
];

/// Path prefixes allowed to read wall clocks / OS entropy. Everything else
/// must take a seeded `Rng` or an explicit timestamp argument.
pub const NONDET_ALLOWLIST_PREFIXES: &[&str] = &["crates/bench/", "shims/"];

/// The one directory allowed to name an ISA: intrinsics
/// (`core::arch`/`std::arch`), `#[target_feature]` attributes and CPUID
/// probes (`is_x86_feature_detected!`) live exclusively under the backend
/// layer. Everything above it calls the kernels of `leca_tensor::backend`,
/// so porting to a new ISA touches exactly one directory.
pub const ISA_ALLOWED_PREFIX: &str = "crates/tensor/src/backend/";

/// Crate-level lint headers the workspace promises. The audit fails when a
/// listed file lacks its header, or when the walk never sees it while its
/// crate directory exists.
pub const REQUIRED_HEADERS: &[(&str, &str)] = &[
    ("src/lib.rs", "#![forbid(unsafe_code)]"),
    ("crates/nn/src/lib.rs", "#![forbid(unsafe_code)]"),
    ("crates/data/src/lib.rs", "#![forbid(unsafe_code)]"),
    ("crates/circuit/src/lib.rs", "#![forbid(unsafe_code)]"),
    ("crates/sensor/src/lib.rs", "#![forbid(unsafe_code)]"),
    ("crates/baselines/src/lib.rs", "#![forbid(unsafe_code)]"),
    ("crates/core/src/lib.rs", "#![forbid(unsafe_code)]"),
    ("crates/bench/src/lib.rs", "#![forbid(unsafe_code)]"),
    ("crates/audit/src/lib.rs", "#![forbid(unsafe_code)]"),
    ("crates/serve/src/lib.rs", "#![forbid(unsafe_code)]"),
    (
        "crates/tensor/src/lib.rs",
        "#![deny(unsafe_op_in_unsafe_fn)]",
    ),
];

/// One audit finding, printed as `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Rule identifier from [`rules`].
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// True when `rel` is library code (compiled into a crate), as opposed to
/// tests, benches or examples — the spawn rule only binds library code
/// (tests may spawn threads *to test* the pool).
pub(crate) fn is_library_code(rel: &str) -> bool {
    let in_src = rel.starts_with("src/") || rel.contains("/src/");
    in_src && !rel.contains("/bin/")
}

pub(crate) fn allowlisted(list: &[(&str, &str)], rel: &str) -> bool {
    list.iter().any(|(p, _)| *p == rel)
}

// ---------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &[".git", "target", "fixtures", ".leca-cache"];

/// True when `dir/Cargo.toml` declares a `[workspace]` table.
fn declares_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|s| s.contains("[workspace]"))
}

/// Collects every `.rs` file under `root` (sorted, workspace-relative),
/// skipping build output, VCS metadata, the audit's own violation
/// fixtures, and any subdirectory that is a cargo workspace of its own
/// (it is audited, if at all, from its own root).
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !declares_workspace(&path) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Locates the workspace root: walks up from `start` until a `Cargo.toml`
/// containing a `[workspace]` table is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|d| declares_workspace(d))
        .map(Path::to_path_buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostic_formats_file_line_rule() {
        let d = Diagnostic {
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            rule: rules::UNSAFE_COMMENT,
            message: "m".into(),
        };
        assert_eq!(
            d.to_string(),
            "crates/x/src/lib.rs:7: [unsafe-safety-comment] m"
        );
    }
}
