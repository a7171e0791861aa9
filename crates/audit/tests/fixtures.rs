//! Acceptance tests for the audit gate, per the issue:
//!
//! 1. the binary must FAIL (exit != 0) with `file:line` diagnostics on a
//!    fixture tree seeded with violations (undocumented `unsafe`,
//!    `Vec::new` inside an `_into` kernel, a stray `thread::spawn`);
//! 2. the real workspace must pass clean — this test IS the gate, so
//!    `cargo test` alone already enforces every invariant;
//! 3. a nested directory that is a cargo workspace of its own is never
//!    walked.

use std::path::{Path, PathBuf};
use std::process::Command;

use leca_audit::engine::audit_workspace_ast;
use leca_audit::rules;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn real_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn binary_fails_on_seeded_violations_with_file_line_diagnostics() {
    let out = Command::new(env!("CARGO_BIN_EXE_leca-audit"))
        .arg("--root")
        .arg(fixture_root())
        .output()
        .expect("audit binary runs");
    assert!(
        !out.status.success(),
        "audit must exit non-zero on the violation fixtures"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);

    // Undocumented unsafe, outside the allowlist: both rules, exact line.
    assert!(
        stdout.contains(&format!(
            "crates/tensor/src/bad_unsafe.rs:6: [{}]",
            rules::UNSAFE_COMMENT
        )),
        "missing unsafe-comment diagnostic in:\n{stdout}"
    );
    assert!(
        stdout.contains(&format!(
            "crates/tensor/src/bad_unsafe.rs:6: [{}]",
            rules::UNSAFE_ALLOWLIST
        )),
        "missing allowlist diagnostic in:\n{stdout}"
    );

    // Hot-path allocation in an `_into` kernel: the Vec::new line, not the
    // Err(format!) cold path.
    assert!(
        stdout.contains(&format!(
            "crates/tensor/src/bad_kernel.rs:9: [{}]",
            rules::HOT_PATH_ALLOC
        )),
        "missing hot-path-alloc diagnostic in:\n{stdout}"
    );
    assert!(
        !stdout.contains("bad_kernel.rs:7"),
        "Err(format!) cold path must be exempt:\n{stdout}"
    );

    // Library-code spawn + wall-clock read.
    assert!(
        stdout.contains(&format!(
            "crates/nn/src/bad_spawn.rs:6: [{}]",
            rules::THREAD_SPAWN
        )),
        "missing thread-spawn diagnostic in:\n{stdout}"
    );
    assert!(
        stdout.contains(&format!(
            "crates/nn/src/bad_spawn.rs:5: [{}]",
            rules::NONDETERMINISM
        )),
        "missing nondeterminism diagnostic in:\n{stdout}"
    );

    // ISA tokens escaping the backend layer: the intrinsic import, the
    // target_feature attribute and the CPUID probe each get their line.
    for line in [5, 7, 14] {
        assert!(
            stdout.contains(&format!(
                "crates/nn/src/bad_isa.rs:{line}: [{}]",
                rules::ISA_CONFINEMENT
            )),
            "missing isa-confinement diagnostic for line {line} in:\n{stdout}"
        );
    }

    // The FMA tier's tokens are confined exactly like plain AVX2: the
    // intrinsic import, the two-feature attribute and the fma CPUID probe
    // each get their line when they appear outside the backend layer.
    for line in [5, 7, 14] {
        assert!(
            stdout.contains(&format!(
                "crates/nn/src/bad_fma.rs:{line}: [{}]",
                rules::ISA_CONFINEMENT
            )),
            "missing isa-confinement diagnostic for fma line {line} in:\n{stdout}"
        );
    }

    // AST-only semantic rules, each at its exact line: iterator float
    // reductions (turbofish sum and float-seeded fold) in the policed
    // nn tree…
    for line in [4, 8] {
        assert!(
            stdout.contains(&format!(
                "crates/nn/src/bad_float.rs:{line}: [{}]",
                rules::FLOAT_REDUCTION_ORDER
            )),
            "missing float-reduction diagnostic for line {line} in:\n{stdout}"
        );
    }

    // …raw env reads and writes from library code…
    for line in [4, 8] {
        assert!(
            stdout.contains(&format!(
                "crates/nn/src/bad_env.rs:{line}: [{}]",
                rules::ENV_READ_CONFINEMENT
            )),
            "missing env-confinement diagnostic for line {line} in:\n{stdout}"
        );
    }

    // …and panic exits on the serve steady-state path: unchecked index,
    // `.unwrap()` and `panic!` each get their line, while the PANIC-OK
    // annotated index (line 17) and the `#[cfg(test)]` module stay clean.
    for line in [4, 8, 12] {
        assert!(
            stdout.contains(&format!(
                "crates/serve/src/worker.rs:{line}: [{}]",
                rules::PANIC_FREEDOM
            )),
            "missing panic-freedom diagnostic for line {line} in:\n{stdout}"
        );
    }
    for line in [17, 25] {
        assert!(
            !stdout.contains(&format!("crates/serve/src/worker.rs:{line}")),
            "sanctioned panic-freedom control on line {line} must stay clean:\n{stdout}"
        );
    }

    // Sanctioned controls for the semantic rules: the reduction module
    // owns its accumulation order, and the env parsing layer reads the
    // environment by design.
    assert!(
        !stdout.contains("ops/reduce.rs"),
        "sanctioned reduction fixture must stay clean:\n{stdout}"
    );
    assert!(
        !stdout.contains("runtime_env.rs"),
        "sanctioned env-layer fixture must stay clean:\n{stdout}"
    );

    // The clean control crate contributes nothing.
    assert!(
        !stdout.contains("clean/src/good.rs"),
        "control fixture must stay clean:\n{stdout}"
    );

    // Nor does the sanctioned fast-math backend module: FMA intrinsics,
    // target_feature(avx2, fma) and documented unsafe are all at home
    // under crates/tensor/src/backend/.
    assert!(
        !stdout.contains("backend/fastmath.rs"),
        "sanctioned fastmath fixture must stay clean:\n{stdout}"
    );
}

#[test]
fn binary_succeeds_on_real_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_leca-audit"))
        .arg("--root")
        .arg(real_root())
        .output()
        .expect("audit binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "workspace must audit clean\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
}

#[test]
fn binary_skips_nested_workspaces() {
    let out = Command::new(env!("CARGO_BIN_EXE_leca-audit"))
        .arg("--root")
        .arg(fixture_root())
        .output()
        .expect("audit binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().count() > 0 && !stdout.contains("nested/"),
        "the nested-workspace fixture must never be audited:\n{stdout}"
    );
}

#[test]
fn workspace_is_clean_via_library_api() {
    let (diags, stats) = audit_workspace_ast(&real_root()).expect("workspace is readable");
    assert!(
        diags.is_empty(),
        "audit violations:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The parser covers the bulk of the tree, and every file of a clean
    // tree parses.
    assert!(stats.parsed > 40, "only parsed {} files", stats.parsed);
    assert_eq!(stats.files, stats.parsed);
}
