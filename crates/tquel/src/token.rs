//! Lexical analysis.
//!
//! TQuel keywords are reserved case-insensitively (the paper writes them
//! lowercase).  String literals are double-quoted; in temporal positions
//! they carry date values (`as of "12/10/82"`), which the semantic
//! analyzer interprets.
//!
//! Tokens borrow the source: an identifier is a slice of it, and so is
//! a string literal unless it holds an escape.  The parser allocates a
//! name once, when it builds the AST node that keeps it.

use std::borrow::Cow;
use std::fmt;

use crate::error::{TquelError, TquelResult};

/// A lexical token with its byte offset.
#[derive(Clone, PartialEq, Debug)]
pub struct Token<'a> {
    /// The token kind and payload.
    pub kind: TokenKind<'a>,
    /// Byte offset of the first character.
    pub offset: usize,
}

/// Token kinds.
#[derive(Clone, PartialEq, Debug)]
pub enum TokenKind<'a> {
    /// An identifier (relation, range variable, or attribute name).
    Ident(&'a str),
    /// A keyword.
    Keyword(Keyword),
    /// A double-quoted string literal (unescaped content; borrowed from
    /// the source unless the literal holds an escape).
    Str(Cow<'a, str>),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier {s:?}"),
            TokenKind::Keyword(k) => write!(f, "keyword {k}"),
            TokenKind::Str(s) => write!(f, "string {s:?}"),
            TokenKind::Int(i) => write!(f, "integer {i}"),
            TokenKind::Float(x) => write!(f, "float {x}"),
            TokenKind::LParen => f.pad("'('"),
            TokenKind::RParen => f.pad("')'"),
            TokenKind::Comma => f.pad("','"),
            TokenKind::Dot => f.pad("'.'"),
            TokenKind::Eq => f.pad("'='"),
            TokenKind::Ne => f.pad("'!='"),
            TokenKind::Lt => f.pad("'<'"),
            TokenKind::Le => f.pad("'<='"),
            TokenKind::Gt => f.pad("'>'"),
            TokenKind::Ge => f.pad("'>='"),
            TokenKind::Eof => f.pad("end of input"),
        }
    }
}

macro_rules! keywords {
    ($($variant:ident => $text:literal),+ $(,)?) => {
        /// Reserved words of Quel/TQuel.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum Keyword {
            $(#[doc = $text] $variant),+
        }

        impl Keyword {
            /// Parses a keyword (case-insensitive).
            pub fn from_str_ci(s: &str) -> Option<Keyword> {
                // Lowercased on the stack: no keyword is longer than 16
                // bytes, so a longer word is an identifier.
                let mut buf = [0u8; 16];
                let lower = buf.get_mut(..s.len())?;
                lower.copy_from_slice(s.as_bytes());
                lower.make_ascii_lowercase();
                match std::str::from_utf8(lower).ok()? {
                    $($text => Some(Keyword::$variant),)+
                    _ => None,
                }
            }

            /// The canonical (lowercase) spelling.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(Keyword::$variant => $text,)+
                }
            }
        }

        impl fmt::Display for Keyword {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.pad(self.as_str())
            }
        }
    };
}

keywords! {
    Range => "range",
    Of => "of",
    Is => "is",
    Retrieve => "retrieve",
    Into => "into",
    Where => "where",
    When => "when",
    Valid => "valid",
    From => "from",
    To => "to",
    At => "at",
    As => "as",
    Through => "through",
    Append => "append",
    Delete => "delete",
    Replace => "replace",
    Create => "create",
    Destroy => "destroy",
    Start => "start",
    End => "end",
    Extend => "extend",
    Overlap => "overlap",
    Precede => "precede",
    Equal => "equal",
    And => "and",
    Or => "or",
    Not => "not",
    Forever => "forever",
    Event => "event",
    Interval => "interval",
    Static => "static",
    Rollback => "rollback",
    Historical => "historical",
    Temporal => "temporal",
}

/// Tokenizes a source string.
pub fn lex(src: &str) -> TquelResult<Vec<Token<'_>>> {
    let bytes = src.as_bytes();
    // Tokens are mostly separated by a space, so this holds a statement
    // in one allocation; denser or longer text grows it (the cap keeps
    // a long program, or one of comments, from reserving ahead).
    let mut tokens = Vec::with_capacity((src.len() / 2 + 2).min(256));
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            c if c.is_ascii_whitespace() => {
                i += 1;
            }
            '#' => {
                // Comment to end of line.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    offset: start,
                });
                i += 1;
            }
            ')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    offset: start,
                });
                i += 1;
            }
            ',' => {
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    offset: start,
                });
                i += 1;
            }
            '.' => {
                tokens.push(Token {
                    kind: TokenKind::Dot,
                    offset: start,
                });
                i += 1;
            }
            '=' => {
                tokens.push(Token {
                    kind: TokenKind::Eq,
                    offset: start,
                });
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Ne,
                        offset: start,
                    });
                    i += 2;
                } else {
                    return Err(TquelError::Lex {
                        message: "'!' must be followed by '='".into(),
                        offset: start,
                    });
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Le,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Lt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Ge,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Gt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '"' => {
                let (content, end) = string_literal(src, start)?;
                i = end;
                tokens.push(Token {
                    kind: TokenKind::Str(content),
                    offset: start,
                });
            }
            c if c.is_ascii_digit()
                || (c == '-' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)) =>
            {
                i += 1;
                let mut is_float = false;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_digit()
                        || (bytes[i] == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)))
                {
                    if bytes[i] == b'.' {
                        is_float = true;
                    }
                    i += 1;
                }
                let text = &src[start..i];
                let kind = if is_float {
                    TokenKind::Float(text.parse().map_err(|_| TquelError::Lex {
                        message: format!("bad float literal {text:?}"),
                        offset: start,
                    })?)
                } else {
                    TokenKind::Int(text.parse().map_err(|_| TquelError::Lex {
                        message: format!("bad integer literal {text:?}"),
                        offset: start,
                    })?)
                };
                tokens.push(Token {
                    kind,
                    offset: start,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                i += 1;
                // `$` continues an identifier (but cannot start one):
                // the engine's system relations live in the reserved
                // `sys$` namespace (`sys$stats`, `sys$relations`, …).
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric()
                        || bytes[i] == b'_'
                        || bytes[i] == b'$')
                {
                    i += 1;
                }
                let text = &src[start..i];
                let kind = match Keyword::from_str_ci(text) {
                    Some(k) => TokenKind::Keyword(k),
                    None => TokenKind::Ident(text),
                };
                tokens.push(Token {
                    kind,
                    offset: start,
                });
            }
            _ => {
                let other = src[start..]
                    .chars()
                    .next()
                    .expect("a character starts here");
                return Err(TquelError::Lex {
                    message: format!("unexpected character {other:?}"),
                    offset: start,
                });
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        offset: src.len(),
    });
    Ok(tokens)
}

/// Lexes the string literal whose opening quote is at `start`,
/// returning its content and the offset just past the closing quote.
/// The content borrows `src` unless the literal holds an escape.
fn string_literal(src: &str, start: usize) -> TquelResult<(Cow<'_, str>, usize)> {
    let bytes = src.as_bytes();
    // `run` is where the current stretch of plain text begins.
    let mut run = start + 1;
    let mut owned: Option<String> = None;
    let mut i = run;
    loop {
        match bytes.get(i) {
            None => {
                return Err(TquelError::Lex {
                    message: "unterminated string literal".into(),
                    offset: start,
                })
            }
            Some(b'"') => {
                let content = match owned {
                    None => Cow::Borrowed(&src[run..i]),
                    Some(mut s) => {
                        s.push_str(&src[run..i]);
                        Cow::Owned(s)
                    }
                };
                return Ok((content, i + 1));
            }
            Some(b'\\') => {
                // Simple escapes: \" \\ \n \t
                let unescaped = match bytes.get(i + 1) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'n') => '\n',
                    Some(b't') => '\t',
                    _ => {
                        return Err(TquelError::Lex {
                            message: "bad escape in string".into(),
                            offset: i,
                        })
                    }
                };
                let s = owned.get_or_insert_with(String::new);
                s.push_str(&src[run..i]);
                s.push(unescaped);
                i += 2;
                run = i;
            }
            // `"` and `\` are ASCII, so every other byte, including
            // each byte of a multi-byte character, is plain text.
            Some(_) => i += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_the_paper_query() {
        let toks = kinds(r#"retrieve (f.rank) where f.name = "Merrie" as of "12/10/82""#);
        use super::Keyword as K;
        use TokenKind::*;
        assert_eq!(
            toks,
            vec![
                Keyword(K::Retrieve),
                LParen,
                Ident("f"),
                Dot,
                Ident("rank"),
                RParen,
                Keyword(K::Where),
                Ident("f"),
                Dot,
                Ident("name"),
                Eq,
                Str("Merrie".into()),
                Keyword(K::As),
                Keyword(K::Of),
                Str("12/10/82".into()),
                Eof,
            ]
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(kinds("RETRIEVE Retrieve retrieve").len(), 4);
        assert!(matches!(
            kinds("WHEN")[0],
            TokenKind::Keyword(Keyword::When)
        ));
    }

    #[test]
    fn numbers_and_operators() {
        let toks = kinds("x >= 42 y != -3.5 z < 7");
        assert!(toks.contains(&TokenKind::Ge));
        assert!(toks.contains(&TokenKind::Int(42)));
        assert!(toks.contains(&TokenKind::Ne));
        assert!(toks.contains(&TokenKind::Float(-3.5)));
        assert!(toks.contains(&TokenKind::Lt));
    }

    #[test]
    fn comments_and_escapes() {
        let toks = kinds("a # the rest is ignored\n b");
        assert_eq!(toks.len(), 3);
        let toks = kinds(r#""he said \"hi\"\n""#);
        assert_eq!(toks[0], TokenKind::Str("he said \"hi\"\n".into()));
    }

    #[test]
    fn non_ascii_string_literals_keep_their_characters() {
        assert_eq!(
            kinds("\"café ∞\""),
            vec![TokenKind::Str("café ∞".into()), TokenKind::Eof]
        );
        // Escapes around multi-byte characters.
        assert_eq!(kinds(r#""∞\"é\\""#)[0], TokenKind::Str("∞\"é\\".into()));
        // Only an escape makes the literal own its text.
        assert!(matches!(
            kinds("\"café\"")[0],
            TokenKind::Str(Cow::Borrowed(_))
        ));
        assert!(matches!(
            kinds(r#""a\tb""#)[0],
            TokenKind::Str(Cow::Owned(_))
        ));
        // A stray non-ASCII character is named whole.
        match lex("a é") {
            Err(TquelError::Lex { message, offset }) => {
                assert_eq!(offset, 2);
                assert!(message.contains("'é'"), "{message}");
            }
            other => panic!("expected lex error, got {other:?}"),
        }
    }

    #[test]
    fn keywords_longer_than_the_stack_buffer_are_identifiers() {
        assert_eq!(
            Keyword::from_str_ci("HISTORICAL"),
            Some(Keyword::Historical)
        );
        assert_eq!(Keyword::from_str_ci("historicalhistorical"), None);
        assert_eq!(Keyword::from_str_ci("é"), None);
    }

    #[test]
    fn dollar_continues_identifiers_for_system_relations() {
        let toks = kinds(r#"range of s is sys$stats retrieve (s.value)"#);
        assert!(toks.contains(&TokenKind::Ident("sys$stats")));
        // `$` still cannot *start* an identifier.
        assert!(lex("$stats").is_err());
    }

    #[test]
    fn errors_carry_offsets() {
        match lex("abc $") {
            Err(TquelError::Lex { offset, .. }) => assert_eq!(offset, 4),
            other => panic!("expected lex error, got {other:?}"),
        }
        assert!(lex("\"unterminated").is_err());
        assert!(lex("a ! b").is_err());
    }

    #[test]
    fn dots_in_numbers_vs_projections() {
        // `f.2` must lex as ident, dot, int — not a float.
        let toks = kinds("f.2 1.5");
        assert_eq!(
            toks,
            vec![
                TokenKind::Ident("f"),
                TokenKind::Dot,
                TokenKind::Int(2),
                TokenKind::Float(1.5),
                TokenKind::Eof
            ]
        );
    }
}
