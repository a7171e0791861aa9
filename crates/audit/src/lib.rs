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
//! the rule identifiers, the allowlists, the [`Diagnostic`] type, the
//! workspace walk, and [`strip_source`], a comment/string-aware line
//! scanner whose comment channel is how the engine finds the `// SAFETY:`
//! and `// PANIC-OK:` comments next to a flagged site.
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
/// listed file exists without its header (or is missing entirely while its
/// crate directory exists).
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

// ---------------------------------------------------------------------
// Comment-channel scanner
// ---------------------------------------------------------------------

/// One source line after lexical stripping: `code` has comments and the
/// contents of string/char literals blanked out; `comment` holds the
/// comment text that appeared on the line (line, doc or block comments).
#[derive(Debug, Default, Clone)]
pub struct Line {
    /// Code with literals/comments removed (quotes retained as `""`).
    pub code: String,
    /// Concatenated comment text on this line.
    pub comment: String,
}

impl Line {
    fn is_comment_only(&self) -> bool {
        self.code.trim().is_empty() && !self.comment.trim().is_empty()
    }

    fn is_attr_only(&self) -> bool {
        let t = self.code.trim();
        (t.starts_with("#[") || t.starts_with("#![")) && self.comment.trim().is_empty()
    }
}

/// Strips `src` into per-line code/comment channels with a small state
/// machine. Handles nested block comments, string escapes, raw strings
/// (`r#".."#`, any hash count), byte strings and char-vs-lifetime
/// disambiguation — everything the workspace's sources actually contain.
pub fn strip_source(src: &str) -> Vec<Line> {
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut st = St::Code;
    let mut out: Vec<Line> = vec![Line::default()];
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if matches!(st, St::LineComment) {
                st = St::Code;
            }
            out.push(Line::default());
            i += 1;
            continue;
        }
        let cur = out.last_mut().expect("line stack never empty");
        match st {
            St::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    st = St::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    st = St::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    st = St::Str;
                    i += 1;
                } else if (c == 'r' || c == 'b')
                    && !(i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_'))
                {
                    // Possible raw / byte / raw-byte string: b" r" r#" br#"
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    let is_raw = (c == 'r' || chars.get(i + 1) == Some(&'r')) || hashes == 0;
                    if chars.get(j) == Some(&'"') && (is_raw || c == 'b') {
                        cur.code.push('"');
                        if c == 'b' && chars.get(i + 1) != Some(&'r') && hashes == 0 {
                            st = St::Str; // plain byte string: escapes apply
                        } else {
                            st = St::RawStr(hashes);
                        }
                        i = j + 1;
                    } else {
                        cur.code.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                    let n1 = chars.get(i + 1).copied();
                    let n2 = chars.get(i + 2).copied();
                    let lifetime = matches!(n1, Some(x) if x.is_alphanumeric() || x == '_')
                        && n2 != Some('\'');
                    if lifetime {
                        cur.code.push('\'');
                        i += 1;
                    } else {
                        cur.code.push('\'');
                        st = St::Char;
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            St::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            St::BlockComment(d) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    st = St::BlockComment(d + 1);
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    st = if d == 1 {
                        St::Code
                    } else {
                        St::BlockComment(d - 1)
                    };
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' {
                    // The escaped char may itself be a literal newline (a
                    // string line-continuation); it still ends a source
                    // line, so the line channel must advance or every
                    // diagnostic after it drifts up by one.
                    if chars.get(i + 1) == Some(&'\n') {
                        out.push(Line::default());
                    }
                    i += 2;
                } else if c == '"' {
                    cur.code.push('"');
                    st = St::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            St::RawStr(h) => {
                if c == '"' {
                    let mut k = 0u32;
                    while chars.get(i + 1 + k as usize) == Some(&'#') && k < h {
                        k += 1;
                    }
                    if k == h {
                        cur.code.push('"');
                        st = St::Code;
                        i += 1 + h as usize;
                        continue;
                    }
                }
                i += 1;
            }
            St::Char => {
                if c == '\\' {
                    if chars.get(i + 1) == Some(&'\n') {
                        out.push(Line::default());
                    }
                    i += 2;
                } else if c == '\'' {
                    cur.code.push('\'');
                    st = St::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    out
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

/// Shared adjacency rule for escape-hatch comments (`SAFETY:`,
/// `PANIC-OK:`): the marker counts when it appears trailing on the flagged
/// line or on the contiguous run of comment-only / attribute-only lines
/// directly above it.
pub(crate) fn has_marker_comment(lines: &[Line], idx: usize, marker: &str) -> bool {
    if lines[idx].comment.contains(marker) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = &lines[i];
        if l.is_comment_only() {
            if l.comment.contains(marker) {
                return true;
            }
        } else if !l.is_attr_only() {
            return false;
        }
    }
    false
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

    fn codes(src: &str) -> Vec<String> {
        strip_source(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn scanner_strips_line_and_doc_comments() {
        let lines = strip_source("let x = 1; // unsafe in a comment\n/// unsafe doc\nfn f() {}\n");
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].comment.contains("unsafe in a comment"));
        assert!(!lines[1].code.contains("unsafe"));
        assert_eq!(lines[2].code, "fn f() {}");
    }

    #[test]
    fn scanner_strips_strings_and_raw_strings() {
        let c = codes("let s = \"unsafe { }\"; let r = r#\"vec![unsafe]\"#; go();\n");
        assert!(!c[0].contains("unsafe"));
        assert!(!c[0].contains("vec!"));
        assert!(c[0].contains("go()"));
    }

    #[test]
    fn scanner_handles_nested_block_comments_and_chars() {
        let src =
            "/* outer /* unsafe */ still comment */ let c = '\\''; let l: &'static str = \"\";\n";
        let c = codes(src);
        assert!(!c[0].contains("unsafe"));
        assert!(c[0].contains("'static"));
        // Braces inside char literals and raw strings are blanked, so the
        // code channel stays brace-balanced.
        let c = codes("{ let a = '{'; let b = r\"}}}\"; done() }");
        assert_eq!(c[0].matches('{').count(), 1, "{c:?}");
        assert_eq!(c[0].matches('}').count(), 1, "{c:?}");
    }

    #[test]
    fn scanner_string_escapes_do_not_terminate_early() {
        let c = codes(r#"let s = "a\"unsafe\""; tail();"#);
        assert!(!c[0].contains("unsafe"));
        assert!(c[0].contains("tail()"));
        // A `\` line continuation inside a string (or, on torn input, a
        // char) literal still ends a source line: the line channel must
        // advance, or every comment below the literal drifts up by one.
        let four = strip_source("a\nb\nc\nd\n").len();
        assert_eq!(
            strip_source("let s = \"head \\\n  tail\";\nlet t = 'x';\nunsafe { q() };\n").len(),
            four
        );
        assert_eq!(
            strip_source("let c = '\\\n';\n// SAFETY: x\nunsafe { q() };\n").len(),
            four
        );
    }

    #[test]
    fn safety_comment_walks_past_attributes() {
        let src = "// SAFETY: fine\n#[inline]\nunsafe { x() };\n";
        let lines = strip_source(src);
        assert!(has_marker_comment(&lines, 2, "SAFETY:"));
    }

    #[test]
    fn safety_comment_blocked_by_code_line() {
        let src = "// SAFETY: stale\nlet y = 1;\nunsafe { x() };\n";
        let lines = strip_source(src);
        assert!(!has_marker_comment(&lines, 2, "SAFETY:"));
    }

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
