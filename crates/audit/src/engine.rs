//! The audit engine: every rule of `leca-audit`, checked on a real token
//! tree (the offline `syn` shim: full-fidelity lexer + item-level
//! parser). Working on tokens rather than lines is what lets a rule tell
//! a test module from library code wherever it sits in the file, scope
//! itself to one function body, and classify tokens (is this `[` an
//! index or an array type?). Three rules are only expressible that way:
//!
//! | Rule | Invariant |
//! |---|---|
//! | [`rules::FLOAT_REDUCTION_ORDER`] | no iterator float reductions (`.sum::<f32>()`, float-seeded `.fold`) outside the sanctioned reduction ops |
//! | [`rules::PANIC_FREEDOM`] | no `unwrap`/`expect`/panic-macros/indexing in the serve steady-state path; no panic exits in `_into` kernels |
//! | [`rules::ENV_READ_CONFINEMENT`] | all `std::env` access goes through `runtime_env` (reads) or the pinning harness (writes) |
//!
//! Architecture: every file is read and tokenized once, and the one token
//! forest serves three readers. Pass 1 runs over the raw forest (nothing
//! the parser consumes can hide a token) and covers the context-free
//! rules: `unsafe` hygiene, nondeterminism and ISA confinement —
//! including tokens inside attributes and `macro_rules!` bodies. Pass 2
//! walks the item tree parsed from the same forest with a context (`Cx`)
//! carrying `#[cfg(test)]` scope, cold (error/assert-arm) scope and
//! `_into`-kernel scope, and covers the structural rules and the crate
//! header. The comment channel is the third reader: every token spans a
//! start and an end, so source text outside all spans is comment text,
//! which is where the `// SAFETY:` and `// PANIC-OK:` markers live.
//! Escape hatches mirror the `// SAFETY:` convention: a
//! `// PANIC-OK: <bounds/invariant argument>` comment trailing the
//! flagged line (or on the contiguous comment run above it) sanctions a
//! panic-freedom site.
//!
//! Scoping decision, recorded here because it is deliberate: the
//! slice-index sub-rule of [`rules::PANIC_FREEDOM`] binds only the serve
//! steady-state files, not `_into` kernel bodies. Kernels index on every
//! line by design; their bounds are argued by `debug_assert!` preambles
//! and enforced by the Miri/asan CI tiers, so flagging each `a[i]` would
//! drown the signal. Panic *exits* (`unwrap`, `expect`, `panic!`) are
//! flagged in kernels too.

use std::path::Path;

use crate::{
    allowlisted, is_library_code, rules, Diagnostic, ISA_ALLOWED_PREFIX, NONDET_ALLOWLIST_PREFIXES,
    REQUIRED_HEADERS, SPAWN_ALLOWLIST, UNSAFE_ALLOWLIST,
};
use syn::{Attribute, Delimiter, Group, Item, Span, TokenTree};

// ---------------------------------------------------------------------
// Structural-rule scopes and allowlists
// ---------------------------------------------------------------------

/// Files forming the serving tier's steady-state request path: once a
/// request is admitted, no code on this path may panic (a panic kills a
/// whole batch and trips the supervisor's revive machinery for what
/// should have been an `Err`). Startup/config/supervisor code is
/// excluded — failing fast at boot is correct there.
pub const PANIC_FREE_FILES: &[&str] = &[
    "crates/serve/src/reply.rs",
    "crates/serve/src/queue.rs",
    "crates/serve/src/worker.rs",
    "crates/serve/src/service.rs",
    "crates/serve/src/breaker.rs",
    "crates/serve/src/metrics.rs",
];

/// Library trees where iterator float reductions are policed: the crates
/// whose numerics define the determinism contract.
pub const FLOAT_SCOPE_PREFIXES: &[&str] = &["crates/tensor/src/", "crates/nn/src/"];

/// Directory prefixes sanctioned to own their reduction order (kernel
/// backends are *defined* by their accumulation strategy).
pub const FLOAT_SANCTIONED_PREFIXES: &[&str] = &["crates/tensor/src/backend/"];

/// Individual files sanctioned to spell out float reductions, with the
/// reason they are trusted.
pub const FLOAT_SANCTIONED_FILES: &[(&str, &str)] = &[
    (
        "crates/tensor/src/ops/reduce.rs",
        "the sanctioned reduction module — owns the canonical in-order accumulation",
    ),
    (
        "crates/tensor/src/tensor.rs",
        "Tensor::sum / Tensor::mean define the canonical element order callers inherit",
    ),
];

/// Library files allowed to *read* process environment directly. All
/// other library code takes parsed values from `runtime_env` so
/// trimming and validation stay uniform.
pub const ENV_READ_ALLOWLIST: &[(&str, &str)] = &[(
    "crates/tensor/src/runtime_env.rs",
    "the single env parsing layer — every LECA_* knob is read and validated here",
)];

/// Library files allowed to *write* process environment. Writes are
/// process-global and racy, so only the bench pinning harness (which
/// pins `LECA_BACKEND` per measured column and restores it) is trusted.
pub const ENV_WRITE_ALLOWLIST: &[(&str, &str)] = &[(
    "crates/bench/src/harness.rs",
    "backend pinning: pins LECA_BACKEND per measured column and restores the previous value",
)];

/// `std::env` functions that read the environment.
const ENV_READ_FNS: &[&str] = &["var", "var_os", "vars", "vars_os"];

/// `std::env` functions that mutate the environment.
const ENV_WRITE_FNS: &[&str] = &["set_var", "remove_var"];

/// Macros whose expansion unconditionally panics.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Assert-family macros: cold argument lists (alloc-exempt), and not
/// themselves panic-freedom violations (a failed invariant check *is*
/// the sanctioned way to die).
const ASSERT_MACROS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// Rust keywords — an ident from this set before `[` introduces a type,
/// pattern or expression position, never an indexing base.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "union", "unsafe", "use", "where", "while", "yield",
];

// ---------------------------------------------------------------------
// Token-slice helpers
// ---------------------------------------------------------------------

fn ident_at(tts: &[TokenTree], i: usize) -> Option<&str> {
    tts.get(i).and_then(TokenTree::ident_text)
}

fn punct_at(tts: &[TokenTree], i: usize, ch: char) -> bool {
    tts.get(i).and_then(TokenTree::punct_char) == Some(ch)
}

fn group_at(tts: &[TokenTree], i: usize, delim: Delimiter) -> Option<&Group> {
    match tts.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == delim => Some(g),
        _ => None,
    }
}

/// True when `tts[i..]` spells `<first> :: <second>` as a path.
fn path2(tts: &[TokenTree], i: usize, second: &str) -> bool {
    punct_at(tts, i + 1, ':') && punct_at(tts, i + 2, ':') && ident_at(tts, i + 3) == Some(second)
}

/// True when the token stream of a `.fold(seed, …)` call starts with a
/// float seed: a float literal (optionally negated) or an `f32::`/`f64::`
/// associated constant like `f32::NEG_INFINITY`.
fn fold_seed_is_float(args: &[TokenTree]) -> bool {
    let at = usize::from(punct_at(args, 0, '-'));
    match args.get(at) {
        Some(TokenTree::Literal(l)) => l.is_float(),
        Some(TokenTree::Ident(id)) => {
            matches!(id.text(), "f32" | "f64") && punct_at(args, at + 1, ':')
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------
// Comment channel
// ---------------------------------------------------------------------

/// One source line as the escape-hatch markers see it.
#[derive(Debug, Default)]
struct SourceLine {
    /// Some token covers part of the line.
    code: bool,
    /// The first token that starts on the line is `#` (an attribute).
    attr: bool,
    /// The line's text outside every token span: its comments, plus
    /// whitespace.
    comment: String,
}

impl SourceLine {
    fn has_comment(&self) -> bool {
        !self.comment.trim().is_empty()
    }
}

/// Splits `src` into lines and reads each line's comment channel off the
/// token spans of `forest`, the lexer's output for `src`. The lexer skips
/// only whitespace and comments, so what no span covers is comment text.
fn source_lines(src: &str, forest: &[TokenTree]) -> Vec<SourceLine> {
    /// Every span in source order (a group adds its two delimiters),
    /// with whether the token is `#`.
    fn flatten(tts: &[TokenTree], out: &mut Vec<(Span, bool)>) {
        for t in tts {
            if let TokenTree::Group(g) = t {
                out.push((g.span_open(), false));
                flatten(g.stream(), out);
                out.push((g.span_close(), false));
            } else {
                out.push((t.span(), t.punct_char() == Some('#')));
            }
        }
    }
    let mut spans = Vec::new();
    flatten(forest, &mut spans);
    let mut spans = spans.into_iter().peekable();
    // End of the last span entered, as (line, column).
    let mut covered_to = (0, 0);
    let mut lines = Vec::new();
    for (l, text) in src.split('\n').enumerate() {
        let mut line = SourceLine::default();
        let mut first_token = true;
        for (c, ch) in text.chars().enumerate() {
            let at = (l + 1, c + 1);
            while let Some((span, hash)) =
                spans.next_if(|(s, _)| (s.start.line, s.start.column) <= at)
            {
                if first_token {
                    line.attr = hash;
                    first_token = false;
                }
                covered_to = (span.end.line, span.end.column);
            }
            if at < covered_to {
                line.code = true;
            } else {
                line.comment.push(ch);
            }
        }
        lines.push(line);
    }
    lines
}

/// Shared adjacency rule for escape-hatch comments (`SAFETY:`,
/// `PANIC-OK:`): the marker counts when it appears trailing on the flagged
/// line (1-based) or on the contiguous run of comment-only /
/// attribute-only lines directly above it.
fn has_marker_comment(lines: &[SourceLine], line: usize, marker: &str) -> bool {
    let Some(idx) = line.checked_sub(1).filter(|&i| i < lines.len()) else {
        return false;
    };
    if lines[idx].comment.contains(marker) {
        return true;
    }
    for l in lines[..idx].iter().rev() {
        let comment_only = !l.code && l.has_comment();
        if comment_only && l.comment.contains(marker) {
            return true;
        }
        let attr_only = l.attr && !l.has_comment();
        if !comment_only && !attr_only {
            return false;
        }
    }
    false
}

// ---------------------------------------------------------------------
// Per-item scan context
// ---------------------------------------------------------------------

/// Structural context threaded through the pass-2 walk.
#[derive(Debug, Clone, Copy, Default)]
struct Cx {
    /// Inside a `#[cfg(test)]` item (at any nesting depth).
    in_test: bool,
    /// Inside a cold argument list (`Err(…)`, assert/panic macro args).
    cold: bool,
    /// Inside the body of a `fn …_into` kernel.
    in_into: bool,
}

impl Cx {
    fn with_test(self, attrs: &[Attribute]) -> Self {
        Cx {
            in_test: self.in_test || attrs.iter().any(Attribute::is_cfg_test),
            ..self
        }
    }
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

struct Engine<'a> {
    rel: &'a str,
    /// Comment channel, for `SAFETY:` / `PANIC-OK:` adjacency.
    lines: Vec<SourceLine>,
    diags: Vec<Diagnostic>,
    // Per-file rule applicability, resolved once.
    unsafe_allowed: bool,
    spawn_allowlisted: bool,
    is_lib: bool,
    nondet_exempt: bool,
    isa_exempt: bool,
    float_scope: bool,
    panic_scope: bool,
    env_read_ok: bool,
    env_write_ok: bool,
    /// The crate header this file must declare, if it is a crate root
    /// listed in [`REQUIRED_HEADERS`].
    required_header: Option<&'static str>,
    // joined-spawn bookkeeping (library, non-test region only).
    saw_spawn: bool,
    saw_join_handle: bool,
    /// Name of the `_into` kernel whose body is being walked.
    current_kernel: Option<String>,
}

impl<'a> Engine<'a> {
    fn new(rel: &'a str) -> Self {
        let is_lib = is_library_code(rel);
        let float_sanctioned = FLOAT_SANCTIONED_PREFIXES.iter().any(|p| rel.starts_with(p))
            || allowlisted(FLOAT_SANCTIONED_FILES, rel);
        Engine {
            rel,
            lines: Vec::new(),
            diags: Vec::new(),
            unsafe_allowed: allowlisted(UNSAFE_ALLOWLIST, rel),
            spawn_allowlisted: allowlisted(SPAWN_ALLOWLIST, rel),
            is_lib,
            nondet_exempt: NONDET_ALLOWLIST_PREFIXES.iter().any(|p| rel.starts_with(p)),
            isa_exempt: rel.starts_with(ISA_ALLOWED_PREFIX),
            float_scope: is_lib
                && !float_sanctioned
                && FLOAT_SCOPE_PREFIXES.iter().any(|p| rel.starts_with(p)),
            panic_scope: PANIC_FREE_FILES.contains(&rel),
            env_read_ok: !is_lib
                || rel.starts_with("shims/")
                || rel.ends_with("/main.rs")
                || allowlisted(ENV_READ_ALLOWLIST, rel),
            env_write_ok: !is_lib
                || rel.starts_with("shims/")
                || allowlisted(ENV_WRITE_ALLOWLIST, rel),
            required_header: REQUIRED_HEADERS
                .iter()
                .find(|(p, _)| *p == rel)
                .map(|&(_, h)| h),
            saw_spawn: false,
            saw_join_handle: false,
            current_kernel: None,
        }
    }

    fn push(&mut self, line: usize, rule: &'static str, message: String) {
        self.diags.push(Diagnostic {
            file: self.rel.to_string(),
            line,
            rule,
            message,
        });
    }

    /// Audits one lexed file: the comment channel, pass 1 over the raw
    /// forest, then pass 2 and the header rule over the parsed items.
    fn audit(&mut self, src: &str, forest: &[TokenTree]) {
        self.lines = source_lines(src, forest);
        self.scan_raw(forest);
        let file = syn::parse_file(forest);
        self.walk_items(&file.items, Cx::default());
        self.lint_header(&file.attrs);
    }

    /// `// PANIC-OK:` trailing the line or on the comment run above it.
    fn panic_ok(&self, line: usize) -> bool {
        has_marker_comment(&self.lines, line, "PANIC-OK:")
    }

    fn safety_comment(&self, line: usize) -> bool {
        has_marker_comment(&self.lines, line, "SAFETY:")
    }

    // -----------------------------------------------------------------
    // Pass 1: raw token forest — context-free rules. Runs on every token
    // of the file, including attribute arguments and macro bodies.
    // -----------------------------------------------------------------

    fn scan_raw(&mut self, tts: &[TokenTree]) {
        for (i, t) in tts.iter().enumerate() {
            match t {
                TokenTree::Ident(id) => {
                    let line = id.span().start.line;
                    match id.text() {
                        "unsafe" => self.unsafe_site(tts, i, line),
                        "thread_rng" | "from_entropy" => self.nondet(line, id.text()),
                        "SystemTime" if path2(tts, i, "now") => {
                            self.nondet(line, "SystemTime::now")
                        }
                        "rand" if path2(tts, i, "random") => self.nondet(line, "rand::random"),
                        "target_feature" | "is_x86_feature_detected" => self.isa(line, id.text()),
                        "core" if path2(tts, i, "arch") => self.isa(line, "core::arch"),
                        "std" if path2(tts, i, "arch") => self.isa(line, "std::arch"),
                        _ => {}
                    }
                }
                TokenTree::Group(g) => self.scan_raw(g.stream()),
                _ => {}
            }
        }
    }

    fn unsafe_site(&mut self, tts: &[TokenTree], i: usize, line: usize) {
        if !self.unsafe_allowed {
            self.push(
                line,
                rules::UNSAFE_ALLOWLIST,
                format!(
                    "`unsafe` outside the audited allowlist ({} trusted modules); \
                     either keep this file safe or extend UNSAFE_ALLOWLIST with a rationale",
                    UNSAFE_ALLOWLIST.len()
                ),
            );
        }
        let kind = match tts.get(i + 1) {
            Some(TokenTree::Ident(k)) if k.text() == "fn" => "fn",
            Some(TokenTree::Ident(k)) if matches!(k.text(), "impl" | "trait") => "impl",
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => "block",
            _ => "item",
        };
        if !self.safety_comment(line) {
            self.push(
                line,
                rules::UNSAFE_COMMENT,
                format!("`unsafe` {kind} without a `// SAFETY:` comment on the preceding lines"),
            );
        }
    }

    fn nondet(&mut self, line: usize, tok: &str) {
        if self.nondet_exempt {
            return;
        }
        self.push(
            line,
            rules::NONDETERMINISM,
            format!(
                "`{tok}` outside the bench harness — take a seeded `Rng` (or an \
                 explicit timestamp) so results stay reproducible"
            ),
        );
    }

    fn isa(&mut self, line: usize, tok: &str) {
        if self.isa_exempt {
            return;
        }
        self.push(
            line,
            rules::ISA_CONFINEMENT,
            format!(
                "`{tok}` outside `{ISA_ALLOWED_PREFIX}` — ISA-specific code lives \
                 in `leca_tensor::backend`; call its kernels instead of \
                 naming an ISA here"
            ),
        );
    }

    // -----------------------------------------------------------------
    // Pass 2: parsed item tree — structural rules.
    // -----------------------------------------------------------------

    fn walk_items(&mut self, items: &[Item], cx: Cx) {
        for item in items {
            match item {
                Item::Fn(f) => {
                    let cx = cx.with_test(&f.attrs);
                    self.scan_stream(&f.sig, cx);
                    if let Some(block) = &f.block {
                        if f.ident.text().ends_with("_into") {
                            let prev = self.current_kernel.replace(f.ident.text().to_string());
                            self.scan_stream(
                                block.stream(),
                                Cx {
                                    in_into: true,
                                    ..cx
                                },
                            );
                            self.current_kernel = prev;
                        } else {
                            self.scan_stream(block.stream(), cx);
                        }
                    }
                }
                Item::Mod(m) => {
                    let cx = cx.with_test(&m.attrs);
                    if let Some(content) = &m.content {
                        self.walk_items(content, cx);
                    }
                }
                Item::Impl(imp) => {
                    let cx = cx.with_test(&imp.attrs);
                    self.scan_stream(&imp.header, cx);
                    self.walk_items(&imp.items, cx);
                }
                Item::MacroDef(m) => {
                    let cx = cx.with_test(&m.attrs);
                    self.scan_stream(m.body.stream(), cx);
                }
                Item::Verbatim(v) => {
                    let cx = cx.with_test(&v.attrs);
                    self.scan_stream(&v.tokens, cx);
                }
            }
        }
    }

    /// Token-stream scan for the structural rules. `cx` carries test /
    /// cold / kernel scope; groups recurse with the same context except
    /// where a cold call is recognized.
    fn scan_stream(&mut self, tts: &[TokenTree], cx: Cx) {
        let mut i = 0;
        while i < tts.len() {
            match &tts[i] {
                TokenTree::Ident(id) => {
                    let line = id.span().start.line;
                    let text = id.text();
                    // Cold argument lists: Err(…) and macro invocations of
                    // the assert/panic families. Recurse with cold=true and
                    // step past the group so it is not re-scanned hot.
                    if text == "Err" {
                        if let Some(g) = group_at(tts, i + 1, Delimiter::Parenthesis) {
                            self.scan_stream(g.stream(), Cx { cold: true, ..cx });
                            i += 2;
                            continue;
                        }
                    }
                    if punct_at(tts, i + 1, '!')
                        && (PANIC_MACROS.contains(&text) || ASSERT_MACROS.contains(&text))
                    {
                        if PANIC_MACROS.contains(&text) {
                            self.panic_exit(line, &format!("{text}!"), cx);
                        }
                        if let Some(TokenTree::Group(g)) = tts.get(i + 2) {
                            self.scan_stream(g.stream(), Cx { cold: true, ..cx });
                            i += 3;
                            continue;
                        }
                        i += 2;
                        continue;
                    }
                    match text {
                        "thread" if path2(tts, i, "spawn") => {
                            self.spawn_site(line, "thread::spawn", cx)
                        }
                        "thread" if path2(tts, i, "Builder") => {
                            self.spawn_site(line, "thread::Builder", cx)
                        }
                        "JoinHandle" if !cx.in_test => self.saw_join_handle = true,
                        "Vec" if path2(tts, i, "new") => self.alloc(line, "Vec::new", cx),
                        "Box" if path2(tts, i, "new") => self.alloc(line, "Box::new", cx),
                        "String" if path2(tts, i, "new") => self.alloc(line, "String::new", cx),
                        "vec" if punct_at(tts, i + 1, '!') => self.alloc(line, "vec!", cx),
                        "format" if punct_at(tts, i + 1, '!') => self.alloc(line, "format!", cx),
                        "to_vec" => self.alloc(line, "to_vec", cx),
                        "with_capacity" => self.alloc(line, "with_capacity", cx),
                        "to_string" => self.alloc(line, "to_string", cx),
                        "env" if punct_at(tts, i + 1, ':') && punct_at(tts, i + 2, ':') => {
                            if let Some(f) = ident_at(tts, i + 3) {
                                self.env_site(line, f, cx);
                            }
                        }
                        _ => {}
                    }
                }
                TokenTree::Punct(p) if p.as_char() == '.' => {
                    let line = p.span().start.line;
                    match ident_at(tts, i + 1) {
                        Some(m @ ("sum" | "product"))
                            if punct_at(tts, i + 2, ':')
                                && punct_at(tts, i + 3, ':')
                                && punct_at(tts, i + 4, '<')
                                && matches!(ident_at(tts, i + 5), Some("f32" | "f64")) =>
                        {
                            let ty = ident_at(tts, i + 5).expect("matched above");
                            self.float_reduction(line, &format!(".{m}::<{ty}>()"), cx);
                        }
                        Some("fold") => {
                            if let Some(g) = group_at(tts, i + 2, Delimiter::Parenthesis) {
                                if fold_seed_is_float(g.stream()) {
                                    self.float_reduction(line, ".fold(<float seed>, …)", cx);
                                }
                            }
                        }
                        Some("clone")
                            if group_at(tts, i + 2, Delimiter::Parenthesis)
                                .is_some_and(|g| g.stream().is_empty()) =>
                        {
                            self.alloc(line, ".clone()", cx);
                        }
                        Some("collect") => self.alloc(line, ".collect", cx),
                        Some(m @ ("unwrap" | "expect"))
                            if group_at(tts, i + 2, Delimiter::Parenthesis).is_some() =>
                        {
                            self.panic_exit(line, &format!(".{m}()"), cx);
                        }
                        _ => {}
                    }
                }
                TokenTree::Group(g) => {
                    if g.delimiter() == Delimiter::Bracket && i > 0 {
                        self.index_site(g, &tts[i - 1], cx);
                    }
                    self.scan_stream(g.stream(), cx);
                }
                _ => {}
            }
            i += 1;
        }
    }

    fn spawn_site(&mut self, line: usize, needle: &str, cx: Cx) {
        if !self.is_lib || cx.in_test {
            return;
        }
        if self.spawn_allowlisted {
            self.saw_spawn = true;
            return;
        }
        self.push(
            line,
            rules::THREAD_SPAWN,
            format!(
                "`{needle}` in library code — route parallelism through \
                 `leca_tensor::parallel` so LECA_THREADS and the determinism \
                 contract stay in force"
            ),
        );
    }

    fn alloc(&mut self, line: usize, tok: &str, cx: Cx) {
        if !cx.in_into || cx.cold {
            return;
        }
        let name = self.current_kernel.clone().unwrap_or_default();
        self.push(
            line,
            rules::HOT_PATH_ALLOC,
            format!(
                "`{tok}` inside zero-alloc kernel `{name}` — `_into` bodies must \
                 reuse caller buffers (allocations in Err(..)/panic! arms are exempt)"
            ),
        );
    }

    fn float_reduction(&mut self, line: usize, pat: &str, cx: Cx) {
        if !self.float_scope || cx.in_test {
            return;
        }
        self.push(
            line,
            rules::FLOAT_REDUCTION_ORDER,
            format!(
                "iterator float reduction `{pat}` outside the sanctioned reduction \
                 ops — accumulation order defines the numeric contract; call \
                 `ops::reduce` (or move the kernel into `leca_tensor::backend`)"
            ),
        );
    }

    /// `unwrap()` / `expect()` / panic-family macro — a panic *exit*.
    fn panic_exit(&mut self, line: usize, pat: &str, cx: Cx) {
        if cx.in_test || !(self.panic_scope || cx.in_into) {
            return;
        }
        if self.panic_ok(line) {
            return;
        }
        let place = if cx.in_into {
            format!(
                "kernel `{}`",
                self.current_kernel.as_deref().unwrap_or_default()
            )
        } else {
            "the serve steady-state path".to_string()
        };
        self.push(
            line,
            rules::PANIC_FREEDOM,
            format!(
                "`{pat}` in {place} — return an error instead, or mark the site \
                 `// PANIC-OK:` with the invariant that rules the panic out"
            ),
        );
    }

    /// `base[…]` indexing in the serve steady-state path. `prev` is the
    /// token before the bracket group: indexing requires an expression
    /// base (a non-keyword ident, or a paren/bracket group).
    fn index_site(&mut self, g: &Group, prev: &TokenTree, cx: Cx) {
        if !self.panic_scope || cx.in_test {
            return;
        }
        let is_base = match prev {
            TokenTree::Ident(id) => !KEYWORDS.contains(&id.text()),
            TokenTree::Group(p) => {
                matches!(p.delimiter(), Delimiter::Parenthesis | Delimiter::Bracket)
            }
            _ => false,
        };
        if !is_base {
            return;
        }
        let line = g.span_open().start.line;
        if self.panic_ok(line) {
            return;
        }
        self.push(
            line,
            rules::PANIC_FREEDOM,
            "slice/array index in the serve steady-state path — prefer `get`/iterators, \
             or mark the site `// PANIC-OK:` with the bounds argument"
                .to_string(),
        );
    }

    fn env_site(&mut self, line: usize, func: &str, cx: Cx) {
        if cx.in_test {
            return;
        }
        if ENV_READ_FNS.contains(&func) && !self.env_read_ok {
            self.push(
                line,
                rules::ENV_READ_CONFINEMENT,
                format!(
                    "`env::{func}` outside `runtime_env` — every LECA_* knob is read \
                     through `leca_tensor::runtime_env` so trimming, validation and \
                     deprecation warnings stay uniform"
                ),
            );
        } else if ENV_WRITE_FNS.contains(&func) && !self.env_write_ok {
            self.push(
                line,
                rules::ENV_READ_CONFINEMENT,
                format!(
                    "`env::{func}` in library code — process-global env writes belong \
                     to tests and the bench pinning harness (ENV_WRITE_ALLOWLIST)"
                ),
            );
        }
    }

    /// The lint-header rule: a listed crate root must carry its header
    /// among the file's leading inner attributes (`#![forbid(unsafe_code)]`
    /// et al.), checked structurally.
    fn lint_header(&mut self, attrs: &[Attribute]) {
        let Some(header) = self.required_header else {
            return;
        };
        // "#![forbid(unsafe_code)]" → path "forbid", argument ident.
        let inner = header.trim_start_matches("#![").trim_end_matches(']');
        let (want_path, want_arg) = match inner.split_once('(') {
            Some((p, a)) => (p, a.trim_end_matches(')')),
            None => (inner, ""),
        };
        let has = attrs.iter().any(|a| {
            a.inner
                && a.path == want_path
                && (want_arg.is_empty() || attr_tokens_contain(&a.tokens, want_arg))
        });
        if !has {
            self.push(
                1,
                rules::LINT_HEADER,
                format!("missing crate header `{header}`"),
            );
        }
    }

    fn finish(mut self) -> Vec<Diagnostic> {
        if self.is_lib && self.spawn_allowlisted && self.saw_spawn && !self.saw_join_handle {
            self.push(
                0,
                rules::JOINED_SPAWN,
                "spawns threads but never names a `JoinHandle` — every spawned \
                 thread must be joined on shutdown (no detached threads)"
                    .to_string(),
            );
        }
        self.diags
    }
}

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

/// Audits one file. A file that fails to lex yields a
/// [`rules::PARSE_ERROR`] diagnostic (the engine audited nothing, which is
/// itself a finding — `rustc` will reject the file anyway, but the audit
/// must not silently skip it), and a crate root among them also misses
/// its header.
pub fn audit_file_ast(rel: &str, src: &str) -> Vec<Diagnostic> {
    let mut engine = Engine::new(rel);
    match syn::tokenize(src) {
        Ok(forest) => engine.audit(src, &forest),
        Err(e) => {
            engine.push(
                e.at.line,
                rules::PARSE_ERROR,
                format!("not lexable ({e}) — the AST engine audited nothing here"),
            );
            engine.lint_header(&[]);
        }
    }
    engine.finish()
}

/// Workspace scan counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct AstStats {
    /// `.rs` files considered.
    pub files: usize,
    /// Files tokenized and walked (the rest failed to lex).
    pub parsed: usize,
}

/// Runs every rule over the workspace rooted at `root`. Returns the
/// diagnostics, sorted and with at most one per `(file, line, rule)`,
/// plus scan statistics.
pub fn audit_workspace_ast(root: &Path) -> std::io::Result<(Vec<Diagnostic>, AstStats)> {
    let mut diags = Vec::new();
    let mut stats = AstStats::default();
    let mut unseen = REQUIRED_HEADERS.to_vec();
    for path in crate::collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        stats.files += 1;
        unseen.retain(|(p, _)| *p != rel);
        let file_diags = audit_file_ast(&rel, &src);
        if file_diags.iter().all(|d| d.rule != rules::PARSE_ERROR) {
            stats.parsed += 1;
        }
        diags.extend(file_diags);
    }
    // A required crate root the walk never saw is flagged when its crate
    // directory exists (so the rule ports to partial fixture trees).
    for (rel, header) in unseen {
        let path = root.join(rel);
        let crate_dir = path.parent().and_then(Path::parent);
        if crate_dir.is_some_and(|d| d.exists() && d != root) {
            diags.push(Diagnostic {
                file: rel.to_string(),
                line: 0,
                rule: rules::LINT_HEADER,
                message: format!("required file missing (must declare `{header}`)"),
            });
        }
    }
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    diags.dedup_by(|a, b| (&a.file, a.line, a.rule) == (&b.file, b.line, b.rule));
    Ok((diags, stats))
}

fn attr_tokens_contain(tts: &[TokenTree], name: &str) -> bool {
    tts.iter().any(|t| match t {
        TokenTree::Ident(i) => i.text() == name,
        TokenTree::Group(g) => attr_tokens_contain(g.stream(), name),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_at(diags: &[Diagnostic], rule: &str) -> Vec<usize> {
        diags
            .iter()
            .filter(|d| d.rule == rule)
            .map(|d| d.line)
            .collect()
    }

    #[test]
    fn undocumented_unsafe_is_flagged_with_line() {
        let src = "fn f() {\n    let p = unsafe { *q };\n}\n";
        let d = audit_file_ast("crates/tensor/src/parallel.rs", src);
        assert_eq!(rules_at(&d, rules::UNSAFE_COMMENT), vec![2]);
        let commented = "fn f() {\n    // SAFETY: q is valid\n    let p = unsafe { *q };\n}\n";
        assert!(audit_file_ast("crates/tensor/src/parallel.rs", commented).is_empty());
        // Documented but outside the allowlist: only the allowlist rule.
        let misplaced = "// SAFETY: documented but misplaced\nfn f() { unsafe { q() }; }\n";
        let d = audit_file_ast("crates/nn/src/layer.rs", misplaced);
        assert_eq!(rules_at(&d, rules::UNSAFE_ALLOWLIST), vec![2]);
        assert!(rules_at(&d, rules::UNSAFE_COMMENT).is_empty(), "{d:?}");
        // Mentions in comments and strings are not `unsafe` tokens.
        let mentions = "// this fn would be unsafe if...\nconst S: &str = \"unsafe\";\n";
        assert!(audit_file_ast("crates/nn/src/layer.rs", mentions).is_empty());
        // A `\` line continuation inside a string spans two source lines;
        // the `unsafe` below it is still reported on its own line.
        let continued = "const S: &str = \"head \\\n  tail\";\nconst T: char = 'x';\n\
                         fn f() { unsafe { q() }; }\n";
        let d = audit_file_ast("crates/nn/src/layer.rs", continued);
        assert_eq!(rules_at(&d, rules::UNSAFE_ALLOWLIST), vec![4], "{d:?}");
    }

    #[test]
    fn unsafe_inside_macro_bodies_is_seen() {
        // Item parsing must not hide tokens inside `macro_rules!` bodies.
        let src = "macro_rules! gen {\n    () => { unsafe { x() } };\n}\n";
        let d = audit_file_ast("crates/nn/src/layer.rs", src);
        assert_eq!(rules_at(&d, rules::UNSAFE_ALLOWLIST), vec![2]);
    }

    #[test]
    fn spawn_rules_bind_library_code_outside_cfg_test() {
        let src = "pub fn lib_code() { std::thread::spawn(|| {}); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { std::thread::spawn(|| {}).join().unwrap(); }\n\
                   }\n";
        let d = audit_file_ast("crates/serve/src/config.rs", src);
        assert_eq!(rules_at(&d, rules::THREAD_SPAWN), vec![1]);
        // Integration tests may spawn freely: the rule binds library code.
        assert!(audit_file_ast("tests/pool_stress.rs", src).is_empty());
        // Allowlisted spawners must keep their `JoinHandle`s...
        let detached = "pub fn go() { std::thread::Builder::new().spawn(f).unwrap(); }\n";
        let d = audit_file_ast("crates/serve/src/supervisor.rs", detached);
        assert_eq!(rules_at(&d, rules::JOINED_SPAWN), vec![0], "{d:?}");
        assert!(rules_at(&d, rules::THREAD_SPAWN).is_empty(), "{d:?}");
        let joined = "pub fn go() -> std::thread::JoinHandle<()> {\n\
                          std::thread::Builder::new().spawn(f).unwrap()\n\
                      }\n";
        assert!(audit_file_ast("crates/serve/src/supervisor.rs", joined).is_empty());
        // ...and a handle named only in the test module does not count.
        let test_only = "pub fn go() { std::thread::spawn(f); }\n\
                         #[cfg(test)]\n\
                         mod tests { fn t(h: std::thread::JoinHandle<()>) {} }\n";
        let d = audit_file_ast("crates/tensor/src/parallel.rs", test_only);
        assert_eq!(rules_at(&d, rules::JOINED_SPAWN), vec![0], "{d:?}");
    }

    #[test]
    fn spawn_after_the_test_module_is_still_flagged() {
        // Code *after* a test module is library code again.
        let src = "#[cfg(test)]\n\
                   mod tests { fn t() {} }\n\
                   pub fn lib_code() { std::thread::spawn(|| {}); }\n";
        let d = audit_file_ast("crates/serve/src/config.rs", src);
        assert_eq!(rules_at(&d, rules::THREAD_SPAWN), vec![3]);
        // `#[cfg(test)]` on a method exempts that method only.
        let src = "pub struct Q;\n\
                   impl Q {\n\
                       #[cfg(test)]\n\
                       pub fn len(&self) -> usize { std::thread::spawn(|| {}); 0 }\n\
                   }\n\
                   pub fn later() { std::thread::spawn(|| {}); }\n";
        let d = audit_file_ast("crates/serve/src/queue.rs", src);
        assert_eq!(rules_at(&d, rules::THREAD_SPAWN), vec![6], "{d:?}");
    }

    #[test]
    fn hot_path_alloc_in_into_kernels_with_cold_arms() {
        let src = "fn add_into(out: &mut [f32]) -> Result<(), E> {\n\
                       if bad {\n\
                           return Err(E::Shape { l: a.to_vec(), r: vec![m] });\n\
                       }\n\
                       debug_assert!(ok, \"{}\", msg.to_string());\n\
                       let t = Vec::new();\n\
                       Ok(())\n\
                   }\n\
                   fn add(out: &mut [f32]) {\n    let t = Vec::new();\n}\n";
        let d = audit_file_ast("crates/tensor/src/ops/matmul.rs", src);
        assert_eq!(rules_at(&d, rules::HOT_PATH_ALLOC), vec![6], "{d:?}");
        // Braces in char literals and raw strings neither end the kernel
        // body early nor extend it past its closing brace.
        let src = "fn pack_into(out: &mut [u8]) {\n\
                       let open = '{';\n\
                       let esc = '\\u{7F}';\n\
                       let tpl = r#\"{ \"k\": } } }\"#;\n\
                       let v = Vec::new();\n\
                   }\n\
                   fn after() { let w = Vec::new(); }\n";
        let d = audit_file_ast("crates/tensor/src/tensor.rs", src);
        assert_eq!(rules_at(&d, rules::HOT_PATH_ALLOC), vec![5], "{d:?}");
    }

    #[test]
    fn isa_and_nondeterminism_tokens_flagged_outside_their_home() {
        let src = "use core::arch::x86_64::_mm256_add_ps;\n\
                   #[target_feature(enable = \"avx2\")]\n\
                   fn f() { if std::is_x86_feature_detected!(\"avx2\") {} }\n";
        let d = audit_file_ast("crates/nn/src/layers/linear.rs", src);
        assert_eq!(rules_at(&d, rules::ISA_CONFINEMENT), vec![1, 2, 3]);
        assert!(audit_file_ast("crates/tensor/src/backend/avx2.rs", src)
            .iter()
            .all(|d| d.rule != rules::ISA_CONFINEMENT));
        // Mentions in comments and strings, and identifiers merely
        // containing a token, are not flagged.
        let mentions = "// talk about core::arch and target_feature here\n\
                        const S: &str = \"std::arch\";\n\
                        const MY_TARGET_FEATURES: usize = 3;\n";
        assert!(audit_file_ast("crates/nn/src/layer.rs", mentions).is_empty());
        // Wall clock and OS entropy: flagged outside the bench harness.
        let nondet = "fn f() {\n    let t = std::time::SystemTime::now();\n\
                      let mut rng = thread_rng();\n}\n";
        let d = audit_file_ast("crates/core/src/trainer.rs", nondet);
        assert_eq!(rules_at(&d, rules::NONDETERMINISM), vec![2, 3], "{d:?}");
        assert!(audit_file_ast("crates/bench/src/harness.rs", nondet).is_empty());
    }

    #[test]
    fn float_reduction_flagged_in_scope_and_sanctioned_in_reduce() {
        let src = "pub fn mean(xs: &[f32]) -> f32 {\n\
                       let s = xs.iter().sum::<f32>();\n\
                       let m = xs.iter().fold(0.0f32, |m, &v| m.max(v));\n\
                       let p = xs.iter().product::<f64>();\n\
                       s + m + p as f32\n\
                   }\n";
        let d = audit_file_ast("crates/nn/src/shape_ops.rs", src);
        assert_eq!(rules_at(&d, rules::FLOAT_REDUCTION_ORDER), vec![2, 3, 4]);
        // Same code in the sanctioned reduction module: clean.
        assert!(audit_file_ast("crates/tensor/src/ops/reduce.rs", src).is_empty());
        // Integer reductions anywhere: clean.
        let ints = "pub fn n(xs: &[usize]) -> usize { xs.iter().sum::<usize>() }\n";
        assert!(audit_file_ast("crates/nn/src/shape_ops.rs", ints).is_empty());
        // Tensor::sum call sites (no turbofish) are not reductions: clean.
        let call = "pub fn m(t: &Tensor) -> f32 { t.sum() / t.len() as f32 }\n";
        assert!(audit_file_ast("crates/nn/src/shape_ops.rs", call).is_empty());
    }

    #[test]
    fn float_fold_with_neg_infinity_seed_is_flagged() {
        let src = "pub fn mx(xs: &[f32]) -> f32 {\n\
                       xs.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v))\n\
                   }\n";
        let d = audit_file_ast("crates/tensor/src/quant.rs", src);
        assert_eq!(rules_at(&d, rules::FLOAT_REDUCTION_ORDER), vec![2]);
        // Non-float fold seeds are not reductions over floats: clean.
        let usize_fold = "pub fn c(xs: &[f32]) -> usize {\n\
                              xs.iter().fold(0usize, |n, _| n + 1)\n\
                          }\n";
        assert!(audit_file_ast("crates/tensor/src/quant.rs", usize_fold).is_empty());
    }

    #[test]
    fn panic_freedom_flags_unwrap_expect_panics_and_indexing() {
        let src = "pub fn handle(q: &Q, i: usize) -> u32 {\n\
                       let v = q.items[i];\n\
                       let w = q.get(i).unwrap();\n\
                       let x = q.get(i).expect(\"present\");\n\
                       if v == 0 { panic!(\"boom\"); }\n\
                       v + w + x\n\
                   }\n";
        let d = audit_file_ast("crates/serve/src/worker.rs", src);
        assert_eq!(
            rules_at(&d, rules::PANIC_FREEDOM),
            vec![2, 3, 4, 5],
            "{d:?}"
        );
    }

    #[test]
    fn panic_ok_marker_and_test_modules_sanction_sites() {
        let src = "pub fn handle(q: &Q, i: usize) -> u32 {\n\
                       // PANIC-OK: i < len checked by the admission gate\n\
                       let v = q.items[i];\n\
                       v\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t(q: &Q) { q.get(0).unwrap(); }\n\
                   }\n";
        assert!(audit_file_ast("crates/serve/src/worker.rs", src).is_empty());
    }

    #[test]
    fn panic_freedom_outside_scoped_files_is_silent() {
        let src = "pub fn parse() -> usize { \"3\".parse().unwrap() }\n";
        assert!(audit_file_ast("crates/serve/src/config.rs", src).is_empty());
        assert!(audit_file_ast("crates/nn/src/layer.rs", src).is_empty());
    }

    #[test]
    fn panic_exits_in_kernels_flagged_but_indexing_is_not() {
        let src = "pub fn scale_into(out: &mut [f32], a: &[f32]) {\n\
                       for i in 0..out.len() {\n\
                           out[i] = a[i] * 2.0;\n\
                       }\n\
                       let c: Option<f32> = None;\n\
                       c.unwrap();\n\
                   }\n";
        let d = audit_file_ast("crates/tensor/src/ops/scale.rs", src);
        assert_eq!(rules_at(&d, rules::PANIC_FREEDOM), vec![6], "{d:?}");
    }

    #[test]
    fn type_position_brackets_are_not_index_sites() {
        let src = "pub fn shape(x: &[f32], ys: [usize; 2]) -> Vec<[f32; 4]> {\n\
                       let [a, b] = ys;\n\
                       let zs = [0.0f32; 4];\n\
                       let mut out: Vec<[f32; 4]> = Vec::with_capacity(a + b);\n\
                       out.push([zs[0], 0.0, 0.0, 0.0]);\n\
                       out\n\
                   }\n";
        let d = audit_file_ast("crates/serve/src/metrics.rs", src);
        // Only `zs[0]` is an index expression.
        assert_eq!(rules_at(&d, rules::PANIC_FREEDOM), vec![5], "{d:?}");
    }

    #[test]
    fn env_reads_confined_to_runtime_env() {
        let src = "pub fn knob() -> Option<String> { std::env::var(\"LECA_X\").ok() }\n";
        let d = audit_file_ast("crates/nn/src/layer.rs", src);
        assert_eq!(rules_at(&d, rules::ENV_READ_CONFINEMENT), vec![1]);
        // The parsing layer itself, shims, binaries and tests are exempt.
        assert!(audit_file_ast("crates/tensor/src/runtime_env.rs", src).is_empty());
        assert!(audit_file_ast("shims/rand/src/lib.rs", src).is_empty());
        assert!(audit_file_ast("crates/bench/src/main.rs", src).is_empty());
        assert!(audit_file_ast("tests/env_knobs.rs", src).is_empty());
    }

    #[test]
    fn env_writes_confined_to_pinning_harness() {
        let src = "pub fn pin() { std::env::set_var(\"LECA_BACKEND\", \"scalar\") }\n";
        let d = audit_file_ast("crates/serve/src/config.rs", src);
        assert_eq!(rules_at(&d, rules::ENV_READ_CONFINEMENT), vec![1]);
        assert!(audit_file_ast("crates/bench/src/harness.rs", src).is_empty());
    }

    #[test]
    fn unlexable_file_yields_parse_error_with_position() {
        let d = audit_file_ast("crates/nn/src/broken.rs", "fn f() {\n    let x = (1;\n}\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, rules::PARSE_ERROR);
        assert!(d[0].line >= 1);
    }

    #[test]
    fn markers_inside_literals_do_not_count() {
        // A marker inside a string, raw string or byte string on the
        // flagged line is not a comment.
        for lit in [
            "\"// SAFETY: str\"",
            "r#\"// SAFETY: raw\"#",
            "b\"/* SAFETY: */\"",
        ] {
            let src = format!("fn f() {{\n    unsafe {{ q({lit}) }};\n}}\n");
            let d = audit_file_ast("crates/tensor/src/parallel.rs", &src);
            assert_eq!(rules_at(&d, rules::UNSAFE_COMMENT), vec![2], "{lit}: {d:?}");
        }
        // Quote characters in char literals open no string, so the real
        // comment after them still counts.
        let src = "fn f() {\n    unsafe { q('\"', '\\'', \"'\") }; // SAFETY: q is sound\n}\n";
        assert!(audit_file_ast("crates/tensor/src/parallel.rs", src).is_empty());
        // The same holds for `// PANIC-OK:` in a serve steady-state file.
        let src = "pub fn handle(q: &Q, i: usize) -> u32 {\n\
                       let v = q.items[i]; let s = \"// PANIC-OK: in a string\";\n\
                       v\n\
                   }\n";
        let d = audit_file_ast("crates/serve/src/worker.rs", src);
        assert_eq!(rules_at(&d, rules::PANIC_FREEDOM), vec![2], "{d:?}");
    }

    #[test]
    fn nested_block_comments_are_comment_text() {
        // `unsafe` inside a nested block comment is no token...
        let src = "/* outer /* unsafe */ still comment */ const C: char = '\\'';\n\
                   const L: &'static str = \"\";\n";
        assert!(audit_file_ast("crates/nn/src/layer.rs", src).is_empty());
        // ...and a marker after the inner comment closes still sits in
        // the outer one, on a comment-only line above the site.
        let src = "fn f() {\n\
                       /* outer /* inner */\n\
                          SAFETY: q is sound */\n\
                       unsafe { q() };\n\
                   }\n";
        assert!(audit_file_ast("crates/tensor/src/parallel.rs", src).is_empty());
    }

    #[test]
    fn continued_literals_keep_marker_lines_aligned() {
        // A `\` line continuation inside a string (or, on torn input, a
        // char) literal spans two source lines; the `// SAFETY:` comment
        // below it still sits directly above its `unsafe`.
        for lit in [
            "const S: &str = \"head \\\n  tail\";",
            "const C: char = '\\\n';",
        ] {
            let src = format!("{lit}\n// SAFETY: q is sound\nfn f() {{ unsafe {{ q() }}; }}\n");
            let d = audit_file_ast("crates/tensor/src/parallel.rs", &src);
            assert!(d.is_empty(), "{lit}: {d:?}");
            let src = format!("{lit}\n// no marker\nfn f() {{ unsafe {{ q() }}; }}\n");
            let d = audit_file_ast("crates/tensor/src/parallel.rs", &src);
            assert_eq!(rules_at(&d, rules::UNSAFE_COMMENT), vec![4], "{lit}: {d:?}");
        }
    }

    #[test]
    fn safety_comment_walks_past_attributes() {
        let src = "fn f() {\n    // SAFETY: fine\n    #[allow(unused)]\n    unsafe { x() };\n}\n";
        assert!(audit_file_ast("crates/tensor/src/parallel.rs", src).is_empty());
        // An attribute spread over several lines is not attribute-only on
        // its continuation lines, so it breaks the association.
        let src = "fn f() {\n    // SAFETY: fine\n    #[cfg(all(\n        unix,\n    ))]\n\
                   unsafe { x() };\n}\n";
        let d = audit_file_ast("crates/tensor/src/parallel.rs", src);
        assert_eq!(rules_at(&d, rules::UNSAFE_COMMENT), vec![6], "{d:?}");
    }

    #[test]
    fn safety_comment_blocked_by_code_line() {
        let src = "fn f() {\n    // SAFETY: stale\n    let y = 1;\n    unsafe { x() };\n}\n";
        let d = audit_file_ast("crates/tensor/src/parallel.rs", src);
        assert_eq!(rules_at(&d, rules::UNSAFE_COMMENT), vec![4], "{d:?}");
    }

    #[test]
    fn crate_roots_must_carry_their_header() {
        let root = "crates/nn/src/lib.rs";
        let d = audit_file_ast(root, "pub mod layers;\n");
        assert_eq!(rules_at(&d, rules::LINT_HEADER), vec![1], "{d:?}");
        assert!(audit_file_ast(root, "#![forbid(unsafe_code)]\npub mod layers;\n").is_empty());
        // A header that does not lex cannot be seen either.
        let d = audit_file_ast(root, "#![forbid(unsafe_code)]\nfn f( {}\n");
        assert_eq!(d.len(), 2, "{d:?}");
        assert_eq!(rules_at(&d, rules::LINT_HEADER), vec![1], "{d:?}");
    }
}
