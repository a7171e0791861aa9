//! Offline subset of [`syn`](https://docs.rs/syn) +
//! [`proc-macro2`](https://docs.rs/proc-macro2): a full-fidelity Rust
//! lexer producing span-carrying token trees, plus an item-level parser.
//!
//! The real crates are unavailable offline, so this shim implements the
//! slice the `leca-audit` AST engine needs:
//!
//! - [`tokenize`]: source text → [`TokenTree`]s with line/column spans.
//!   The lexer is exact for the constructs that defeat line-oriented
//!   scanners: nested block comments, string escapes (including escaped
//!   newlines), raw strings with any hash count, byte/raw-byte strings,
//!   raw identifiers, char-vs-lifetime disambiguation and `\u{…}` escapes.
//! - [`parse_file`]: a token forest from [`tokenize`] → a [`File`] of
//!   [`Item`]s — functions
//!   (attrs, modifiers, name, signature, body), modules (recursive),
//!   `impl`/`trait` blocks (recursive), `macro_rules!` definitions, and
//!   verbatim token runs for everything else. Nothing is dropped: every
//!   token of the input is reachable from the item tree, so token-level
//!   rules see macro bodies and const initializers too.
//!
//! Deliberate deviations from real syn, documented here so the audit's
//! use stays honest: [`parse_file`] parses an existing forest rather than
//! source text (so one lex serves both a raw token scan and the item
//! walk), expressions are not parsed into an AST (rules walk body token
//! trees instead), angle brackets are plain puncts (so a const-generic
//! default written with braces inside `<…>` would misparse — the
//! workspace has none), and comments are not tokens. Every token's
//! [`Span`] has a start and an end, and the lexer skips only whitespace
//! and comments, so the source text outside all spans is the comment
//! text; the audit reads its safety-comment markers from there.

use std::fmt;

/// A line/column position; `line` is 1-based, `column` is 1-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineColumn {
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column (in chars).
    pub column: usize,
}

/// Source region covered by a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Position of the token's first char.
    pub start: LineColumn,
    /// Position one past the token's last char.
    pub end: LineColumn,
}

/// A lex/parse failure with its source position.
#[derive(Debug, Clone)]
pub struct Error {
    /// What went wrong.
    pub message: String,
    /// Where (start of the offending construct).
    pub at: LineColumn,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.at.line, self.at.column, self.message)
    }
}

impl std::error::Error for Error {}

/// Delimiter of a [`Group`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delimiter {
    /// `( … )`
    Parenthesis,
    /// `[ … ]`
    Bracket,
    /// `{ … }`
    Brace,
}

/// An identifier or keyword (`fn`, `unsafe`, `foo`, `r#type`).
#[derive(Debug, Clone)]
pub struct Ident {
    text: String,
    span: Span,
}

impl Ident {
    /// The identifier text with any `r#` raw prefix removed.
    pub fn text(&self) -> &str {
        self.text.strip_prefix("r#").unwrap_or(&self.text)
    }

    /// Source span.
    pub fn span(&self) -> Span {
        self.span
    }
}

/// A single punctuation char (`.`, `:`, `!`, `<`, …).
#[derive(Debug, Clone)]
pub struct Punct {
    ch: char,
    span: Span,
}

impl Punct {
    /// The punctuation character.
    pub fn as_char(&self) -> char {
        self.ch
    }

    /// Source span.
    pub fn span(&self) -> Span {
        self.span
    }
}

/// Literal kind, classified by the lexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LitKind {
    /// `"…"`, `r#"…"#`, `b"…"`, `br"…"`
    Str,
    /// `'x'`, `b'x'`
    Char,
    /// `42`, `0xFF`, `1_000u64`
    Int,
    /// `1.0`, `6.02e23f32`
    Float,
}

/// A literal token (string/char/number) with its raw source text.
#[derive(Debug, Clone)]
pub struct Literal {
    kind: LitKind,
    text: String,
    span: Span,
}

impl Literal {
    /// Literal classification.
    pub fn kind(&self) -> LitKind {
        self.kind
    }

    /// The literal's raw source text (quotes/prefixes/suffixes included).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// True for float literals, including suffixed ints like `1f32`.
    pub fn is_float(&self) -> bool {
        self.kind == LitKind::Float
            || (self.kind == LitKind::Int
                && (self.text.ends_with("f32") || self.text.ends_with("f64")))
    }

    /// Source span.
    pub fn span(&self) -> Span {
        self.span
    }
}

/// A lifetime token (`'a`, `'static`).
#[derive(Debug, Clone)]
pub struct Lifetime {
    name: String,
    span: Span,
}

impl Lifetime {
    /// The lifetime name without the leading quote.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Source span.
    pub fn span(&self) -> Span {
        self.span
    }
}

/// A delimited token run (`( … )`, `[ … ]`, `{ … }`).
#[derive(Debug, Clone)]
pub struct Group {
    delimiter: Delimiter,
    stream: Vec<TokenTree>,
    span_open: Span,
    span_close: Span,
}

impl Group {
    /// Which delimiter pair wraps the group.
    pub fn delimiter(&self) -> Delimiter {
        self.delimiter
    }

    /// The tokens inside the delimiters.
    pub fn stream(&self) -> &[TokenTree] {
        &self.stream
    }

    /// Span of the opening delimiter char.
    pub fn span_open(&self) -> Span {
        self.span_open
    }

    /// Span of the closing delimiter char.
    pub fn span_close(&self) -> Span {
        self.span_close
    }
}

/// One node of the token tree.
#[derive(Debug, Clone)]
pub enum TokenTree {
    /// Identifier or keyword.
    Ident(Ident),
    /// Single punctuation char.
    Punct(Punct),
    /// String/char/number literal.
    Literal(Literal),
    /// Lifetime (`'a`).
    Lifetime(Lifetime),
    /// Delimited subtree.
    Group(Group),
}

impl TokenTree {
    /// Start position of this token.
    pub fn span(&self) -> Span {
        match self {
            TokenTree::Ident(t) => t.span,
            TokenTree::Punct(t) => t.span,
            TokenTree::Literal(t) => t.span,
            TokenTree::Lifetime(t) => t.span,
            TokenTree::Group(g) => g.span_open,
        }
    }

    /// The identifier text, if this is an ident.
    pub fn ident_text(&self) -> Option<&str> {
        match self {
            TokenTree::Ident(t) => Some(t.text()),
            _ => None,
        }
    }

    /// The punct char, if this is a punct.
    pub fn punct_char(&self) -> Option<char> {
        match self {
            TokenTree::Punct(p) => Some(p.ch),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: usize,
    col: usize,
}

impl Lexer {
    fn new(src: &str) -> Self {
        Lexer {
            chars: src.chars().collect(),
            i: 0,
            line: 1,
            col: 1,
        }
    }

    fn pos(&self) -> LineColumn {
        LineColumn {
            line: self.line,
            column: self.col,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn error(&self, at: LineColumn, message: &str) -> Error {
        Error {
            message: message.to_string(),
            at,
        }
    }

    /// Skips `//`/`/* */` comments (nested) and whitespace. Returns an
    /// error on an unterminated block comment.
    fn skip_trivia(&mut self) -> Result<(), Error> {
        loop {
            match self.peek(0) {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('/') if self.peek(1) == Some('/') => {
                    while let Some(c) = self.peek(0) {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some('/') if self.peek(1) == Some('*') => {
                    let at = self.pos();
                    self.bump();
                    self.bump();
                    let mut depth = 1u32;
                    loop {
                        match (self.peek(0), self.peek(1)) {
                            (Some('/'), Some('*')) => {
                                self.bump();
                                self.bump();
                                depth += 1;
                            }
                            (Some('*'), Some('/')) => {
                                self.bump();
                                self.bump();
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            (Some(_), _) => {
                                self.bump();
                            }
                            (None, _) => return Err(self.error(at, "unterminated block comment")),
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Lexes one quoted run (string body) assuming the opening quote is
    /// consumed; `escapes` selects `\`-escape handling (off in raw
    /// strings). `hashes` is the raw-string hash count to match.
    fn quoted(&mut self, at: LineColumn, escapes: bool, hashes: u32) -> Result<(), Error> {
        loop {
            match self.peek(0) {
                None => return Err(self.error(at, "unterminated string literal")),
                Some('\\') if escapes => {
                    self.bump();
                    self.bump(); // escaped char — may be a newline (line continuation)
                }
                Some('"') => {
                    self.bump();
                    if hashes == 0 {
                        return Ok(());
                    }
                    let mut k = 0u32;
                    while k < hashes && self.peek(k as usize) == Some('#') {
                        k += 1;
                    }
                    if k == hashes {
                        for _ in 0..hashes {
                            self.bump();
                        }
                        return Ok(());
                    }
                }
                Some(_) => {
                    self.bump();
                }
            }
        }
    }

    fn ident_or_prefixed_literal(&mut self) -> Result<TokenTree, Error> {
        let start = self.pos();
        let c = self.peek(0).expect("caller checked");
        // Raw / byte string and byte char prefixes: r" r#" b" br" b' and
        // the raw-identifier form r#ident.
        if c == 'r' || c == 'b' {
            let mut j = 1; // chars consumed by the prefix so far
            let raw = if c == 'b' && self.peek(1) == Some('r') {
                j = 2;
                true
            } else {
                c == 'r'
            };
            let mut hashes = 0u32;
            while raw && self.peek(j + hashes as usize) == Some('#') {
                hashes += 1;
            }
            let quote_at = j + hashes as usize;
            if raw && hashes > 0 && self.peek(quote_at) != Some('"') {
                // `r#ident` — raw identifier, not a raw string.
                self.bump(); // r
                self.bump(); // #
                return Ok(self.finish_ident(start, "r#".to_string()));
            }
            if self.peek(quote_at) == Some('"') {
                let mut text = String::new();
                for _ in 0..=quote_at {
                    text.push(self.bump().expect("prefix chars present"));
                }
                let from = self.i;
                self.quoted(start, !raw && hashes == 0, hashes)?;
                text.extend(&self.chars[from..self.i]);
                return Ok(TokenTree::Literal(Literal {
                    kind: LitKind::Str,
                    text,
                    span: Span {
                        start,
                        end: self.pos(),
                    },
                }));
            }
            if c == 'b' && self.peek(1) == Some('\'') {
                // Byte char b'x'.
                self.bump(); // b
                return self.char_literal(start, "b".to_string());
            }
        }
        Ok(self.finish_ident(start, String::new()))
    }

    fn finish_ident(&mut self, start: LineColumn, prefix: String) -> TokenTree {
        let mut text = prefix;
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        TokenTree::Ident(Ident {
            text,
            span: Span {
                start,
                end: self.pos(),
            },
        })
    }

    /// Char literal with the opening `'` not yet consumed; `prefix` holds
    /// a `b` for byte chars.
    fn char_literal(&mut self, start: LineColumn, prefix: String) -> Result<TokenTree, Error> {
        let mut text = prefix;
        text.push(self.bump().expect("opening quote")); // '
        loop {
            match self.peek(0) {
                None => return Err(self.error(start, "unterminated char literal")),
                Some('\\') => {
                    text.push(self.bump().expect("backslash"));
                    if let Some(e) = self.bump() {
                        text.push(e); // \u{…} braces fall through as plain chars
                    }
                }
                Some('\'') => {
                    text.push(self.bump().expect("closing quote"));
                    return Ok(TokenTree::Literal(Literal {
                        kind: LitKind::Char,
                        text,
                        span: Span {
                            start,
                            end: self.pos(),
                        },
                    }));
                }
                Some(c) => {
                    text.push(c);
                    self.bump();
                }
            }
        }
    }

    fn number(&mut self) -> TokenTree {
        let start = self.pos();
        let mut text = String::new();
        let mut float = false;
        let radix_prefix = self.peek(0) == Some('0')
            && matches!(self.peek(1), Some('x') | Some('o') | Some('b') | Some('X'));
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                // `1e-5` / `2.5E+8`: pull the exponent sign in too.
                if (c == 'e' || c == 'E') && !radix_prefix {
                    if let (Some(sign), Some(d)) = (self.peek(1), self.peek(2)) {
                        if (sign == '+' || sign == '-') && d.is_ascii_digit() {
                            float = true;
                            text.push(c);
                            self.bump();
                            text.push(self.bump().expect("exponent sign"));
                            continue;
                        }
                    }
                    if self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                        float = true;
                    }
                }
                text.push(c);
                self.bump();
            } else if c == '.' && !radix_prefix && self.peek(1).is_some_and(|d| d.is_ascii_digit())
            {
                // A digit must follow: `1..n` ranges and `1.max(…)` method
                // calls keep the dot as a separate punct.
                float = true;
                text.push(c);
                self.bump();
            } else if c == '.'
                && !float
                && !radix_prefix
                && self.peek(1) != Some('.')
                && !self.peek(1).is_some_and(|n| n.is_alphabetic() || n == '_')
            {
                // Trailing-dot float `1.` (not a range, not a method call).
                float = true;
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        TokenTree::Literal(Literal {
            kind: if float { LitKind::Float } else { LitKind::Int },
            text,
            span: Span {
                start,
                end: self.pos(),
            },
        })
    }

    /// Lexes the whole input into a token forest, matching delimiters.
    fn run(&mut self) -> Result<Vec<TokenTree>, Error> {
        // (delimiter, open span, children) for each unclosed group.
        let mut stack: Vec<(Delimiter, Span, Vec<TokenTree>)> = Vec::new();
        let mut top: Vec<TokenTree> = Vec::new();
        loop {
            self.skip_trivia()?;
            let start = self.pos();
            let Some(c) = self.peek(0) else {
                break;
            };
            let tok = if c.is_ascii_digit() {
                Some(self.number())
            } else if c.is_alphabetic() || c == '_' {
                Some(self.ident_or_prefixed_literal()?)
            } else if c == '"' {
                self.bump();
                let from = self.i - 1;
                self.quoted(start, true, 0)?;
                Some(TokenTree::Literal(Literal {
                    kind: LitKind::Str,
                    text: self.chars[from..self.i].iter().collect(),
                    span: Span {
                        start,
                        end: self.pos(),
                    },
                }))
            } else if c == '\'' {
                // Lifetime `'a` vs char `'a'` / `'\n'`: an ident-ish char
                // follows and the run is not closed by another quote.
                let mut k = 1;
                while self
                    .peek(k)
                    .is_some_and(|x| x.is_alphanumeric() || x == '_')
                {
                    k += 1;
                }
                if k > 1 && self.peek(k) != Some('\'') && self.peek(1) != Some('\\') {
                    self.bump(); // '
                    let mut name = String::new();
                    while self
                        .peek(0)
                        .is_some_and(|x| x.is_alphanumeric() || x == '_')
                    {
                        name.push(self.bump().expect("lifetime char"));
                    }
                    Some(TokenTree::Lifetime(Lifetime {
                        name,
                        span: Span {
                            start,
                            end: self.pos(),
                        },
                    }))
                } else {
                    Some(self.char_literal(start, String::new())?)
                }
            } else if matches!(c, '(' | '[' | '{') {
                self.bump();
                let delim = match c {
                    '(' => Delimiter::Parenthesis,
                    '[' => Delimiter::Bracket,
                    _ => Delimiter::Brace,
                };
                stack.push((
                    delim,
                    Span {
                        start,
                        end: self.pos(),
                    },
                    std::mem::take(&mut top),
                ));
                None
            } else if matches!(c, ')' | ']' | '}') {
                self.bump();
                let want = match c {
                    ')' => Delimiter::Parenthesis,
                    ']' => Delimiter::Bracket,
                    _ => Delimiter::Brace,
                };
                let Some((delim, span_open, parent)) = stack.pop() else {
                    return Err(self.error(start, "unbalanced closing delimiter"));
                };
                if delim != want {
                    return Err(self.error(span_open.start, "mismatched delimiter"));
                }
                let group = Group {
                    delimiter: delim,
                    stream: std::mem::replace(&mut top, parent),
                    span_open,
                    span_close: Span {
                        start,
                        end: self.pos(),
                    },
                };
                top.push(TokenTree::Group(group));
                None
            } else {
                self.bump();
                Some(TokenTree::Punct(Punct {
                    ch: c,
                    span: Span {
                        start,
                        end: self.pos(),
                    },
                }))
            };
            if let Some(t) = tok {
                top.push(t);
            }
        }
        if let Some((_, span_open, _)) = stack.pop() {
            return Err(self.error(span_open.start, "unclosed delimiter"));
        }
        Ok(top)
    }
}

/// Lexes `src` into a token forest with spans. Errors carry the position
/// of the offending construct (unterminated literal, unbalanced
/// delimiter).
pub fn tokenize(src: &str) -> Result<Vec<TokenTree>, Error> {
    Lexer::new(src).run()
}

// ---------------------------------------------------------------------
// Item-level parser
// ---------------------------------------------------------------------

/// An attribute (`#[…]` outer or `#![…]` inner).
#[derive(Debug, Clone)]
pub struct Attribute {
    /// True for inner (`#![…]`) attributes.
    pub inner: bool,
    /// The attribute path (`cfg`, `inline`, `allow`, …).
    pub path: String,
    /// Tokens inside the brackets after the path (arguments).
    pub tokens: Vec<TokenTree>,
    /// Span of the whole attribute.
    pub span: Span,
}

impl Attribute {
    /// True for `#[cfg(test)]` (exactly — `cfg(all(test, …))` counts too,
    /// anything mentioning `test` inside `cfg`).
    pub fn is_cfg_test(&self) -> bool {
        self.path == "cfg" && tokens_contain_ident(&self.tokens, "test")
    }

    /// True when the attribute path equals `name`.
    pub fn is(&self, name: &str) -> bool {
        self.path == name
    }
}

fn tokens_contain_ident(tts: &[TokenTree], name: &str) -> bool {
    tts.iter().any(|t| match t {
        TokenTree::Ident(i) => i.text() == name,
        TokenTree::Group(g) => tokens_contain_ident(g.stream(), name),
        _ => false,
    })
}

/// A parsed function item.
#[derive(Debug, Clone)]
pub struct ItemFn {
    /// Outer attributes.
    pub attrs: Vec<Attribute>,
    /// True for `unsafe fn`.
    pub unsafety: bool,
    /// Function name.
    pub ident: Ident,
    /// Signature tokens between the name and the body / `;`.
    pub sig: Vec<TokenTree>,
    /// Body block; `None` for bodiless declarations (trait methods).
    pub block: Option<Group>,
}

/// A parsed module item.
#[derive(Debug, Clone)]
pub struct ItemMod {
    /// Outer attributes.
    pub attrs: Vec<Attribute>,
    /// Module name.
    pub ident: Ident,
    /// Inline contents; `None` for `mod name;` file modules.
    pub content: Option<Vec<Item>>,
}

/// A parsed `impl` or `trait` block (the audit treats both as item
/// containers).
#[derive(Debug, Clone)]
pub struct ItemImpl {
    /// Outer attributes.
    pub attrs: Vec<Attribute>,
    /// True for `unsafe impl` / `unsafe trait`.
    pub unsafety: bool,
    /// Header tokens (`impl Foo for Bar`, `trait Baz: Send`).
    pub header: Vec<TokenTree>,
    /// Associated items.
    pub items: Vec<Item>,
}

/// A `macro_rules!` definition.
#[derive(Debug, Clone)]
pub struct ItemMacroDef {
    /// Outer attributes.
    pub attrs: Vec<Attribute>,
    /// Macro name.
    pub ident: Ident,
    /// The rules body (token-walkable; macro bodies are code too).
    pub body: Group,
}

/// A token run the item parser does not model structurally (use, struct,
/// enum, static, const items, macro invocations, …). All tokens are
/// retained so token-level rules still see them.
#[derive(Debug, Clone)]
pub struct Verbatim {
    /// Outer attributes.
    pub attrs: Vec<Attribute>,
    /// The raw tokens of the item.
    pub tokens: Vec<TokenTree>,
}

/// One top-level or associated item.
#[derive(Debug, Clone)]
pub enum Item {
    /// `fn` (free or associated).
    Fn(ItemFn),
    /// `mod`.
    Mod(ItemMod),
    /// `impl` or `trait` block.
    Impl(ItemImpl),
    /// `macro_rules!` definition.
    MacroDef(ItemMacroDef),
    /// Anything else, tokens preserved.
    Verbatim(Verbatim),
}

/// A parsed source file.
#[derive(Debug, Clone)]
pub struct File {
    /// File-level inner attributes (`#![…]`).
    pub attrs: Vec<Attribute>,
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// Parses a token forest from [`tokenize`] into a [`File`]. Never fails:
/// only lexing can (unbalanced delimiters, unterminated literals), and
/// unrecognized item shapes degrade to [`Item::Verbatim`].
pub fn parse_file(tokens: &[TokenTree]) -> File {
    let mut attrs = Vec::new();
    let mut i = 0;
    // File-level inner attributes come first by grammar.
    while let Some(a) = parse_attr(tokens, &mut i, true) {
        attrs.push(a);
    }
    let items = parse_items(&tokens[i..]);
    File { attrs, items }
}

fn ident_at(tts: &[TokenTree], i: usize) -> Option<&str> {
    tts.get(i).and_then(|t| t.ident_text())
}

fn punct_at(tts: &[TokenTree], i: usize, ch: char) -> bool {
    tts.get(i).and_then(|t| t.punct_char()) == Some(ch)
}

fn group_at(tts: &[TokenTree], i: usize, delim: Delimiter) -> Option<&Group> {
    match tts.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter == delim => Some(g),
        _ => None,
    }
}

/// Parses one attribute at `*i`, advancing past it. `allow_inner` accepts
/// the `#![…]` form (file level / block starts).
fn parse_attr(tts: &[TokenTree], i: &mut usize, allow_inner: bool) -> Option<Attribute> {
    if !punct_at(tts, *i, '#') {
        return None;
    }
    let (inner, body_at) = if punct_at(tts, *i + 1, '!') {
        if !allow_inner {
            return None;
        }
        (true, *i + 2)
    } else {
        (false, *i + 1)
    };
    let g = group_at(tts, body_at, Delimiter::Bracket)?;
    let span = tts[*i].span();
    // Path = leading ident run joined by `::`.
    let s = g.stream();
    let mut path = String::new();
    let mut j = 0;
    while let Some(seg) = ident_at(s, j) {
        if !path.is_empty() {
            path.push_str("::");
        }
        path.push_str(seg);
        if punct_at(s, j + 1, ':') && punct_at(s, j + 2, ':') {
            j += 3;
        } else {
            j += 1;
            break;
        }
    }
    *i = body_at + 1;
    Some(Attribute {
        inner,
        path,
        tokens: s[j..].to_vec(),
        span,
    })
}

/// Finds the end (exclusive) of a verbatim item starting at `i`: the
/// index after the first top-level `;` or brace group, whichever comes
/// first. Always advances by at least one token.
fn verbatim_end(tts: &[TokenTree], i: usize) -> usize {
    let mut k = i;
    while k < tts.len() {
        match &tts[k] {
            TokenTree::Punct(p) if p.ch == ';' => return k + 1,
            TokenTree::Group(g) if g.delimiter == Delimiter::Brace => return k + 1,
            _ => k += 1,
        }
    }
    tts.len().max(i + 1)
}

fn parse_items(tts: &[TokenTree]) -> Vec<Item> {
    let mut items = Vec::new();
    let mut i = 0;
    while i < tts.len() {
        let item_start = i;
        let mut attrs = Vec::new();
        while let Some(a) = parse_attr(tts, &mut i, false) {
            attrs.push(a);
        }
        // Visibility: `pub` with optional `(crate)`-style restriction.
        let mut j = i;
        if ident_at(tts, j) == Some("pub") {
            j += 1;
            if group_at(tts, j, Delimiter::Parenthesis).is_some() {
                j += 1;
            }
        }
        // Function qualifiers. `const` only qualifies when a further
        // qualifier or `fn` follows — otherwise it starts a const item.
        let mut unsafety = false;
        loop {
            match ident_at(tts, j) {
                Some("unsafe") => {
                    unsafety = true;
                    j += 1;
                }
                Some("async") | Some("default") => j += 1,
                Some("const")
                    if matches!(
                        ident_at(tts, j + 1),
                        Some("fn") | Some("unsafe") | Some("async") | Some("extern")
                    ) =>
                {
                    j += 1
                }
                Some("extern") if matches!(tts.get(j + 1), Some(TokenTree::Literal(_))) => j += 2,
                _ => break,
            }
        }
        match ident_at(tts, j) {
            Some("fn") => {
                let Some(TokenTree::Ident(name)) = tts.get(j + 1) else {
                    let end = verbatim_end(tts, i);
                    items.push(Item::Verbatim(Verbatim {
                        attrs,
                        tokens: tts[i..end].to_vec(),
                    }));
                    i = end;
                    continue;
                };
                // Signature runs to the body brace or a `;` declaration.
                let mut k = j + 2;
                let mut block = None;
                while k < tts.len() {
                    match &tts[k] {
                        TokenTree::Punct(p) if p.ch == ';' => {
                            k += 1;
                            break;
                        }
                        TokenTree::Group(g) if g.delimiter == Delimiter::Brace => {
                            block = Some(g.clone());
                            k += 1;
                            break;
                        }
                        _ => k += 1,
                    }
                }
                items.push(Item::Fn(ItemFn {
                    attrs,
                    unsafety,
                    ident: name.clone(),
                    sig: tts[j + 2..k.saturating_sub(1).max(j + 2)].to_vec(),
                    block,
                }));
                i = k;
            }
            Some("mod") => {
                let Some(TokenTree::Ident(name)) = tts.get(j + 1) else {
                    let end = verbatim_end(tts, i);
                    items.push(Item::Verbatim(Verbatim {
                        attrs,
                        tokens: tts[i..end].to_vec(),
                    }));
                    i = end;
                    continue;
                };
                if let Some(g) = group_at(tts, j + 2, Delimiter::Brace) {
                    items.push(Item::Mod(ItemMod {
                        attrs,
                        ident: name.clone(),
                        content: Some(parse_items(g.stream())),
                    }));
                    i = j + 3;
                } else {
                    items.push(Item::Mod(ItemMod {
                        attrs,
                        ident: name.clone(),
                        content: None,
                    }));
                    i = (j + 2).min(tts.len());
                    if punct_at(tts, i, ';') {
                        i += 1;
                    }
                }
            }
            Some("impl") | Some("trait") => {
                // Header runs to the first top-level brace group (the
                // body); a `;` first (e.g. `trait Alias = …;`) degrades
                // to verbatim semantics but keeps all tokens.
                let mut k = j + 1;
                let mut body: Option<&Group> = None;
                while k < tts.len() {
                    match &tts[k] {
                        TokenTree::Punct(p) if p.ch == ';' => {
                            k += 1;
                            break;
                        }
                        TokenTree::Group(g) if g.delimiter == Delimiter::Brace => {
                            body = Some(g);
                            break;
                        }
                        _ => k += 1,
                    }
                }
                match body {
                    Some(g) => {
                        items.push(Item::Impl(ItemImpl {
                            attrs,
                            unsafety,
                            header: tts[j..k].to_vec(),
                            items: parse_items(g.stream()),
                        }));
                        i = k + 1;
                    }
                    None => {
                        items.push(Item::Verbatim(Verbatim {
                            attrs,
                            tokens: tts[i..k].to_vec(),
                        }));
                        i = k;
                    }
                }
            }
            Some("macro_rules") => {
                let name = match tts.get(j + 2) {
                    Some(TokenTree::Ident(n)) if punct_at(tts, j + 1, '!') => n.clone(),
                    _ => {
                        let end = verbatim_end(tts, i);
                        items.push(Item::Verbatim(Verbatim {
                            attrs,
                            tokens: tts[i..end].to_vec(),
                        }));
                        i = end;
                        continue;
                    }
                };
                match tts.get(j + 3) {
                    Some(TokenTree::Group(g)) => {
                        items.push(Item::MacroDef(ItemMacroDef {
                            attrs,
                            ident: name,
                            body: g.clone(),
                        }));
                        i = j + 4;
                    }
                    _ => {
                        let end = verbatim_end(tts, i);
                        items.push(Item::Verbatim(Verbatim {
                            attrs,
                            tokens: tts[i..end].to_vec(),
                        }));
                        i = end;
                    }
                }
            }
            _ => {
                let end = verbatim_end(tts, item_start.max(i));
                items.push(Item::Verbatim(Verbatim {
                    attrs,
                    tokens: tts[i..end].to_vec(),
                }));
                i = end;
            }
        }
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> File {
        parse_file(&tokenize(src).unwrap())
    }

    fn idents(tts: &[TokenTree]) -> Vec<String> {
        let mut out = Vec::new();
        fn walk(tts: &[TokenTree], out: &mut Vec<String>) {
            for t in tts {
                match t {
                    TokenTree::Ident(i) => out.push(i.text().to_string()),
                    TokenTree::Group(g) => walk(g.stream(), out),
                    _ => {}
                }
            }
        }
        walk(tts, &mut out);
        out
    }

    #[test]
    fn strings_and_comments_hide_tokens() {
        let tts = tokenize(
            "let s = \"unsafe { }\"; /* unsafe /* nested */ */ let r = r#\"vec![x]\"#; // unsafe\ngo();",
        )
        .unwrap();
        let ids = idents(&tts);
        assert!(!ids.contains(&"unsafe".to_string()));
        assert!(ids.contains(&"go".to_string()));
    }

    #[test]
    fn raw_strings_any_hash_count_and_byte_strings() {
        let tts =
            tokenize(r###"let a = r##"x "# y"##; let b = b"bytes\""; let c = br#"z"#;"###).unwrap();
        let lits: Vec<_> = tts
            .iter()
            .filter_map(|t| match t {
                TokenTree::Literal(l) if l.kind() == LitKind::Str => Some(l.text().to_string()),
                _ => None,
            })
            .collect();
        assert_eq!(lits.len(), 3, "{lits:?}");
    }

    #[test]
    fn braces_in_char_literals_do_not_open_groups() {
        let tts = tokenize("let open = '{'; let close = '}'; let u = '\\u{7F}'; f();").unwrap();
        assert!(idents(&tts).contains(&"f".to_string()));
        assert!(!tts
            .iter()
            .any(|t| matches!(t, TokenTree::Group(g) if g.delimiter() == Delimiter::Brace)));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let tts = tokenize("fn f<'a>(x: &'a str) { let c = 'a'; let n = '\\n'; }").unwrap();
        let mut lifetimes = 0;
        let mut chars = 0;
        fn walk(tts: &[TokenTree], l: &mut usize, c: &mut usize) {
            for t in tts {
                match t {
                    TokenTree::Lifetime(_) => *l += 1,
                    TokenTree::Literal(x) if x.kind() == LitKind::Char => *c += 1,
                    TokenTree::Group(g) => walk(g.stream(), l, c),
                    _ => {}
                }
            }
        }
        walk(&tts, &mut lifetimes, &mut chars);
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn numbers_floats_and_ranges() {
        let tts =
            tokenize("let a = 1.5f32; let b = 0..10; let c = 1e-5; let d = 2.5.max(x);").unwrap();
        let floats: Vec<_> = tts
            .iter()
            .filter_map(|t| match t {
                TokenTree::Literal(l) if l.is_float() => Some(l.text().to_string()),
                _ => None,
            })
            .collect();
        assert_eq!(floats, vec!["1.5f32", "1e-5", "2.5"]);
    }

    #[test]
    fn spans_are_line_accurate() {
        let tts = tokenize("fn a() {}\n\nfn b() {}\n").unwrap();
        let spans: Vec<_> = tts
            .iter()
            .filter_map(|t| t.ident_text().map(|s| (s.to_string(), t.span().start.line)))
            .collect();
        assert!(spans.contains(&("a".to_string(), 1)));
        assert!(spans.contains(&("b".to_string(), 3)));
    }

    #[test]
    fn escaped_newline_keeps_line_numbers() {
        // A string line-continuation swallows the newline lexically but
        // the lexer must still count it.
        let tts = tokenize("let s = \"a\\\nb\";\nfn after() {}\n").unwrap();
        let line = tts
            .iter()
            .filter_map(|t| t.ident_text().map(|s| (s.to_string(), t.span().start.line)))
            .find(|(s, _)| s == "after")
            .map(|(_, l)| l);
        assert_eq!(line, Some(3));
    }

    #[test]
    fn unbalanced_delimiters_error() {
        assert!(tokenize("fn f() {").is_err());
        assert!(tokenize("fn f() )").is_err());
        assert!(tokenize("let s = \"open").is_err());
    }

    #[test]
    fn parse_file_items_and_attrs() {
        let f = parse(
            "#![forbid(unsafe_code)]\n\
             use std::fmt;\n\
             pub fn top(x: usize) -> usize { x + 1 }\n\
             mod inner { pub fn nested_into(out: &mut [f32]) {} }\n\
             #[cfg(test)]\n\
             mod tests { fn t() {} }\n",
        );
        assert!(f.attrs.iter().any(|a| a.is("forbid")));
        let names: Vec<_> = f
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Fn(f) => Some(f.ident.text().to_string()),
                Item::Mod(m) => Some(format!("mod {}", m.ident.text())),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["top", "mod inner", "mod tests"]);
        let Some(Item::Mod(tests)) = f.items.last() else {
            panic!("expected test mod last");
        };
        assert!(tests.attrs.iter().any(Attribute::is_cfg_test));
    }

    #[test]
    fn impl_blocks_and_raw_idents() {
        let f = parse(
            "struct S;\n\
             impl S {\n\
                 pub unsafe fn danger(&self) {}\n\
                 fn r#loop(&self) {}\n\
             }\n",
        );
        let Some(Item::Impl(imp)) = f.items.get(1) else {
            panic!("expected impl, got {:?}", f.items.get(1));
        };
        let fns: Vec<_> = imp
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Fn(f) => Some((f.ident.text().to_string(), f.unsafety)),
                _ => None,
            })
            .collect();
        assert_eq!(
            fns,
            vec![("danger".to_string(), true), ("loop".to_string(), false)]
        );
    }

    #[test]
    fn macro_rules_bodies_stay_walkable() {
        let f = parse(
            "macro_rules! gen {\n\
                 ($n:ident) => { fn $n() { let v = unsafe { x() }; } };\n\
             }\n",
        );
        let Some(Item::MacroDef(m)) = f.items.first() else {
            panic!("expected macro def");
        };
        assert!(tokens_contain_ident(m.body.stream(), "unsafe"));
    }

    #[test]
    fn const_item_vs_const_fn() {
        let f = parse("const X: usize = 5;\npub const fn five() -> usize { 5 }\n");
        assert!(matches!(f.items[0], Item::Verbatim(_)));
        let Some(Item::Fn(func)) = f.items.get(1) else {
            panic!("expected const fn parsed as fn");
        };
        assert_eq!(func.ident.text(), "five");
    }
}
