//! A minimal Rust lexer for the custom lint pass.
//!
//! The environment has no crates.io access, so `syn`/`proc-macro2` are
//! unavailable; the lint rules instead run over a hand-rolled token stream.
//! The lexer understands exactly what the rules need: identifiers, multi-
//! character operators (`==`, `!=`, `::`, …), string/char/lifetime
//! disambiguation, nested block comments, raw strings — and it captures
//! `// borg-lint: allow(...)` comments so the rule engine can honor
//! allowlists. It does **not** attempt full fidelity (no token values for
//! literals beyond their text).

/// Kinds of tokens the rule engine distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// Any literal (number, string, char, byte string).
    Literal,
    /// A lifetime such as `'a`.
    Lifetime,
    /// Punctuation, possibly multi-character (`==`, `::`, `..=`).
    Punct,
}

/// One lexed token with its source line (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub text: String,
    pub line: u32,
}

/// A `// borg-lint: allow(RULE, ...)` directive found in a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// Rule ids named in the directive, e.g. `BORG-L005`.
    pub rules: Vec<String>,
    /// Line the comment appears on (1-based).
    pub line: u32,
}

/// A `// borg-lint: relaxed-ok(reason)` directive justifying a relaxed
/// atomic ordering on its line (BORG-L011). The reason is mandatory —
/// an empty parenthesis is not a directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelaxedOkDirective {
    /// The justification text inside the parentheses.
    pub reason: String,
    /// Line the comment appears on (1-based).
    pub line: u32,
}

/// Result of lexing one file.
#[derive(Debug, Default)]
pub struct LexedFile {
    pub tokens: Vec<Token>,
    pub allows: Vec<AllowDirective>,
    pub relaxed_oks: Vec<RelaxedOkDirective>,
    /// Lines carrying a `// borg-lint: hot-path` marker. The marker sits on
    /// (or directly above) a function header and opts that function into
    /// the allocation lint BORG-L015.
    pub hot_paths: Vec<u32>,
}

/// Multi-character punctuation recognized as single tokens, longest first.
/// Only operators the rules inspect (or that would confuse them if split)
/// need to be here; everything else lexes as single characters. `>>` is
/// absent on purpose: whether it is a shift or two closing angle brackets
/// is contextual, and the lexer decides with an angle-depth counter.
const MULTI_PUNCT: &[&str] = &[
    "..=", "<<=", ">>=", "==", "!=", "<=", ">=", "::", "->", "=>", "..", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "|=", "&=", "<<",
];

/// Lexes Rust source into the token stream the rules consume.
pub fn lex(source: &str) -> LexedFile {
    let chars: Vec<char> = source.chars().collect();
    let mut out = LexedFile::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    // Open generic angle brackets at the cursor. `<` opens one when the
    // preceding token could start a generic path (identifier, `::`, or a
    // closing `>`); statement boundaries reset it. Heuristic, but exact on
    // rustfmt-formatted code, where a shift at angle depth ≥ 2 cannot occur.
    let mut angle_depth: u32 = 0;

    while i < chars.len() {
        let c = chars[i];

        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }

        // Line comments (incl. doc comments) — may carry allow directives.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = i;
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            if let Some(directive) = parse_allow_directive(&text, line) {
                out.allows.push(directive);
            }
            if let Some(directive) = parse_relaxed_ok_directive(&text, line) {
                out.relaxed_oks.push(directive);
            }
            if is_hot_path_directive(&text) {
                out.hot_paths.push(line);
            }
            continue;
        }

        // Block comments, which nest in Rust.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 1;
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            continue;
        }

        // Raw / byte strings: r"..", r#".."#, b"..", br#".."#.
        if (c == 'r' || c == 'b') && is_raw_or_byte_string_start(&chars, i) {
            let (next_i, newlines) = consume_string_like(&chars, i);
            out.tokens.push(Token {
                kind: TokenKind::Literal,
                text: String::new(),
                line,
            });
            line += newlines;
            i = next_i;
            continue;
        }

        // Identifiers and keywords, including raw identifiers (`r#type`).
        // Raw *strings* (`r#"…"`) were consumed above, so an `r#` here is
        // always an identifier prefix.
        if c.is_alphabetic() || c == '_' {
            let start = i;
            if c == 'r'
                && chars.get(i + 1) == Some(&'#')
                && chars
                    .get(i + 2)
                    .is_some_and(|x| x.is_alphabetic() || *x == '_')
            {
                i += 2;
            }
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }

        // Numbers (suffixes and exponents folded into the token).
        if c.is_ascii_digit() {
            let start = i;
            i += 1;
            while i < chars.len() {
                let d = chars[i];
                if d.is_alphanumeric() || d == '_' {
                    // `1e-9`: sign directly after an exponent marker.
                    if (d == 'e' || d == 'E')
                        && matches!(chars.get(i + 1), Some('+') | Some('-'))
                        && chars.get(i + 2).is_some_and(|x| x.is_ascii_digit())
                    {
                        i += 2;
                    }
                    i += 1;
                } else if d == '.' && chars.get(i + 1).is_some_and(|x| x.is_ascii_digit()) {
                    // A decimal point — but not the `..` of a range.
                    i += 1;
                } else {
                    break;
                }
            }
            out.tokens.push(Token {
                kind: TokenKind::Literal,
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }

        // Ordinary strings.
        if c == '"' {
            let (next_i, newlines) = consume_quoted(&chars, i + 1, '"');
            out.tokens.push(Token {
                kind: TokenKind::Literal,
                text: String::new(),
                line,
            });
            line += newlines;
            i = next_i;
            continue;
        }

        // `'` starts either a char literal or a lifetime.
        if c == '\'' {
            if is_lifetime(&chars, i) {
                let start = i;
                i += 1;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            } else {
                let (next_i, newlines) = consume_quoted(&chars, i + 1, '\'');
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: String::new(),
                    line,
                });
                line += newlines;
                i = next_i;
            }
            continue;
        }

        // `>>` at angle depth ≥ 2 is two closing brackets of nested
        // generics (`Vec<Vec<u64>>`), not a shift: split it so the rules
        // see the type structure. `>>=` is always a shift-assign.
        if c == '>'
            && chars.get(i + 1) == Some(&'>')
            && chars.get(i + 2) != Some(&'=')
            && angle_depth >= 2
        {
            for _ in 0..2 {
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: ">".to_string(),
                    line,
                });
            }
            angle_depth -= 2;
            i += 2;
            continue;
        }

        // Punctuation, longest known operator first.
        let mut text = c.to_string();
        for op in MULTI_PUNCT {
            let op_chars: Vec<char> = op.chars().collect();
            if chars[i..].starts_with(&op_chars) {
                text = (*op).to_string();
                break;
            }
        }
        if text == ">" && chars.get(i + 1) == Some(&'>') {
            // A real shift (or shift outside generic context): the depth
            // check above declined to split, so keep the pair whole.
            text = ">>".to_string();
        }
        match text.as_str() {
            "<" => {
                let opens_generic = out
                    .tokens
                    .last()
                    .is_some_and(|t| t.kind == TokenKind::Ident || t.text == "::" || t.text == ">");
                if opens_generic {
                    angle_depth += 1;
                }
            }
            ">" => angle_depth = angle_depth.saturating_sub(1),
            ";" | "{" | "}" => angle_depth = 0,
            _ => {}
        }
        i += text.chars().count();
        out.tokens.push(Token {
            kind: TokenKind::Punct,
            text,
            line,
        });
    }

    out
}

/// Recognizes `// borg-lint: allow(BORG-L005, BORG-L010)` comments.
fn parse_allow_directive(comment: &str, line: u32) -> Option<AllowDirective> {
    let body = comment.trim_start_matches('/').trim();
    let rest = body.strip_prefix("borg-lint:")?.trim();
    let args = rest.strip_prefix("allow(")?.strip_suffix(')')?;
    let rules: Vec<String> = args
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        None
    } else {
        Some(AllowDirective { rules, line })
    }
}

/// Recognizes `// borg-lint: relaxed-ok(<non-empty reason>)` comments.
fn parse_relaxed_ok_directive(comment: &str, line: u32) -> Option<RelaxedOkDirective> {
    let body = comment.trim_start_matches('/').trim();
    let rest = body.strip_prefix("borg-lint:")?.trim();
    let reason = rest.strip_prefix("relaxed-ok(")?.strip_suffix(')')?.trim();
    if reason.is_empty() {
        None
    } else {
        Some(RelaxedOkDirective {
            reason: reason.to_string(),
            line,
        })
    }
}

/// Recognizes `// borg-lint: hot-path` comments (no arguments).
fn is_hot_path_directive(comment: &str) -> bool {
    let body = comment.trim_start_matches('/').trim();
    body.strip_prefix("borg-lint:")
        .is_some_and(|rest| rest.trim() == "hot-path")
}

/// Whether position `i` (at `r` or `b`) begins a raw or byte string.
fn is_raw_or_byte_string_start(chars: &[char], i: usize) -> bool {
    let mut j = i;
    // Optional second prefix letter: br / rb.
    if matches!(chars.get(j), Some('r') | Some('b'))
        && matches!(chars.get(j + 1), Some('r') | Some('b'))
        && chars.get(j) != chars.get(j + 1)
    {
        j += 1;
    }
    match chars.get(j) {
        Some('r') => {
            // Raw: any number of #, then a quote.
            let mut k = j + 1;
            while chars.get(k) == Some(&'#') {
                k += 1;
            }
            chars.get(k) == Some(&'"') && (j == i || chars[i] == 'b')
        }
        Some('b') if j == i => chars.get(j + 1) == Some(&'"'),
        _ => false,
    }
}

/// Consumes a (possibly raw/byte) string starting at the prefix; returns
/// the index after the closing delimiter and the newline count inside.
fn consume_string_like(chars: &[char], mut i: usize) -> (usize, u32) {
    // Skip prefix letters, remembering whether `r` makes this a raw string
    // (raw strings have no escape processing).
    let mut raw = false;
    while matches!(chars.get(i), Some('r') | Some('b')) {
        raw |= chars[i] == 'r';
        i += 1;
    }
    let mut hashes = 0usize;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    debug_assert_eq!(chars.get(i), Some(&'"'));
    i += 1;
    let mut newlines = 0u32;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            newlines += 1;
        }
        if c == '\\' && !raw {
            i += 2;
            continue;
        }
        if c == '"' {
            // Raw strings need the matching number of closing hashes.
            let mut k = i + 1;
            let mut seen = 0usize;
            while seen < hashes && chars.get(k) == Some(&'#') {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return (k, newlines);
            }
        }
        i += 1;
    }
    (i, newlines)
}

/// Consumes a quoted literal body (after the opening quote); returns the
/// index after the closing quote and the newline count inside.
fn consume_quoted(chars: &[char], mut i: usize, quote: char) -> (usize, u32) {
    let mut newlines = 0u32;
    while i < chars.len() {
        let c = chars[i];
        if c == '\\' {
            i += 2;
            continue;
        }
        if c == '\n' {
            newlines += 1;
        }
        if c == quote {
            return (i + 1, newlines);
        }
        i += 1;
    }
    (i, newlines)
}

/// Disambiguates `'a` (lifetime) from `'a'` (char literal) at a `'`.
fn is_lifetime(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some(c) if c.is_alphabetic() || *c == '_' => {
            // `'x'` is a char literal; `'x,` / `'x>` / `'x ` is a lifetime.
            // Identifier chars may follow (`'static`).
            let mut j = i + 2;
            while chars
                .get(j)
                .is_some_and(|x| x.is_alphanumeric() || *x == '_')
            {
                j += 1;
            }
            chars.get(j) != Some(&'\'')
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn idents_and_puncts_tokenize() {
        let lexed = lex("let x = a.unwrap();");
        let texts: Vec<&str> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["let", "x", "=", "a", ".", "unwrap", "(", ")", ";"]);
    }

    #[test]
    fn multi_char_operators_stay_whole() {
        let lexed = lex("a == b != c :: d ..= e .. f");
        let puncts: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Punct)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(puncts, ["==", "!=", "::", "..=", ".."]);
    }

    #[test]
    fn comments_are_skipped_but_lines_advance() {
        let lexed = lex("// hello\n/* multi\nline */ x");
        assert_eq!(lexed.tokens.len(), 1);
        assert_eq!(lexed.tokens[0].text, "x");
        assert_eq!(lexed.tokens[0].line, 3);
    }

    #[test]
    fn nested_block_comments() {
        assert_eq!(idents("/* a /* b */ c */ real"), ["real"]);
    }

    #[test]
    fn strings_do_not_leak_tokens() {
        assert_eq!(idents(r#"let s = "fn unwrap :: Instant";"#), ["let", "s"]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        assert_eq!(
            idents(r##"let s = r#"has "quotes" and unwrap"# ; tail"##),
            ["let", "s", "tail"]
        );
    }

    #[test]
    fn char_literal_versus_lifetime() {
        let lexed = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, ["'a", "'a"]);
        let literals = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .count();
        assert_eq!(literals, 2);
    }

    #[test]
    fn numeric_literals_with_suffix_and_ranges() {
        let lexed = lex("0.5f64..1_000e-3");
        let texts: Vec<&str> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["0.5f64", "..", "1_000e-3"]);
    }

    #[test]
    fn allow_directives_are_captured() {
        let lexed = lex("x(); // borg-lint: allow(BORG-L005, BORG-L010)\ny();");
        assert_eq!(lexed.allows.len(), 1);
        assert_eq!(lexed.allows[0].line, 1);
        assert_eq!(lexed.allows[0].rules, ["BORG-L005", "BORG-L010"]);
    }

    #[test]
    fn nested_generics_split_but_shifts_stay_whole() {
        let lexed = lex("let m: Vec<Vec<u64>> = v; let s = a >> b; let t = c >>= 1;");
        let puncts: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Punct)
            .map(|t| t.text.as_str())
            .collect();
        // The nested-generic close is two `>` tokens; the shifts survive.
        assert_eq!(
            puncts,
            [":", "<", "<", ">", ">", "=", ";", "=", ">>", ";", "=", ">>=", ";"]
        );
    }

    #[test]
    fn triple_nested_generics_split_fully() {
        let lexed = lex("x: Option<Option<Option<u8>>>");
        let closes = lexed.tokens.iter().filter(|t| t.text == ">").count();
        assert_eq!(closes, 3);
        assert!(!lexed.tokens.iter().any(|t| t.text == ">>"));
    }

    #[test]
    fn turbofish_counts_toward_angle_depth() {
        let lexed = lex("m.entry::<BTreeMap<u64, Vec<u8>>>(k)");
        let closes = lexed.tokens.iter().filter(|t| t.text == ">").count();
        assert_eq!(closes, 3);
    }

    #[test]
    fn comparison_does_not_poison_shift_after_boundary() {
        // `a < b` bumps the heuristic depth, but the `;` boundary resets
        // it before the shift on the next statement.
        let lexed = lex("let p = a < b; let q = c >> d;");
        assert!(lexed.tokens.iter().any(|t| t.text == ">>"));
    }

    #[test]
    fn raw_identifiers_lex_as_single_idents() {
        let lexed = lex("let r#type = r#fn + 1;");
        let idents: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["let", "r#type", "r#fn"]);
    }

    #[test]
    fn raw_identifier_does_not_break_raw_strings() {
        assert_eq!(
            idents(r##"let s = r#"not an ident"# ; r#match"##),
            ["let", "s", "r#match"]
        );
    }

    #[test]
    fn relaxed_ok_directives_are_captured() {
        let lexed =
            lex("x.load(Ordering::Relaxed); // borg-lint: relaxed-ok(counter is monotonic)\ny();");
        assert_eq!(lexed.relaxed_oks.len(), 1);
        assert_eq!(lexed.relaxed_oks[0].line, 1);
        assert_eq!(lexed.relaxed_oks[0].reason, "counter is monotonic");
    }

    #[test]
    fn relaxed_ok_requires_a_reason() {
        assert!(lex("// borg-lint: relaxed-ok()").relaxed_oks.is_empty());
        assert!(lex("// borg-lint: relaxed-ok(  )").relaxed_oks.is_empty());
        assert!(lex("// mentions relaxed-ok(x) in prose")
            .relaxed_oks
            .is_empty());
    }

    #[test]
    fn non_directive_comments_are_ignored() {
        assert!(lex("// borg-lint: allow()").allows.is_empty());
        assert!(lex("// just a note about allow(BORG-L005)")
            .allows
            .is_empty());
    }

    #[test]
    fn hot_path_directives_are_captured() {
        let lexed = lex("// borg-lint: hot-path\nfn f() {}\n// borg-lint: hot-path \nfn g() {}");
        assert_eq!(lexed.hot_paths, [1, 3]);
        assert!(lex("// borg-lint: hot-path(arg)").hot_paths.is_empty());
        assert!(lex("// prose mentioning a hot-path").hot_paths.is_empty());
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let lexed = lex("let s = \"a\nb\nc\";\nlast");
        let last = lexed.tokens.last().expect("tokens");
        assert_eq!(last.text, "last");
        assert_eq!(last.line, 4);
    }
}
