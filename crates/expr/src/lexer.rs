//! Tokenizer for the expression language.

use crate::error::{ExprError, Pos};

/// Lexical token kinds. Operators carry no payload; literals carry their
/// parsed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    Int(i64),
    Float(f64),
    Str(String),
    Ident(String),
    True,
    False,
    Null,
    Def,

    Plus,
    Minus,
    Star,
    StarStar,
    Slash,
    Percent,
    Bang,
    Assign,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    Question,
    Elvis,
    Colon,
    Comma,
    Semi,
    LParen,
    RParen,
    LBracket,
    RBracket,
}

impl std::fmt::Display for Tok {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Int(i) => write!(f, "{i}"),
            Tok::Float(x) => write!(f, "{x}"),
            Tok::Str(s) => write!(f, "{s:?}"),
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::True => f.write_str("true"),
            Tok::False => f.write_str("false"),
            Tok::Null => f.write_str("null"),
            Tok::Def => f.write_str("def"),
            Tok::Plus => f.write_str("+"),
            Tok::Minus => f.write_str("-"),
            Tok::Star => f.write_str("*"),
            Tok::StarStar => f.write_str("**"),
            Tok::Slash => f.write_str("/"),
            Tok::Percent => f.write_str("%"),
            Tok::Bang => f.write_str("!"),
            Tok::Assign => f.write_str("="),
            Tok::Eq => f.write_str("=="),
            Tok::Ne => f.write_str("!="),
            Tok::Lt => f.write_str("<"),
            Tok::Le => f.write_str("<="),
            Tok::Gt => f.write_str(">"),
            Tok::Ge => f.write_str(">="),
            Tok::AndAnd => f.write_str("&&"),
            Tok::OrOr => f.write_str("||"),
            Tok::Question => f.write_str("?"),
            Tok::Elvis => f.write_str("?:"),
            Tok::Colon => f.write_str(":"),
            Tok::Comma => f.write_str(","),
            Tok::Semi => f.write_str(";"),
            Tok::LParen => f.write_str("("),
            Tok::RParen => f.write_str(")"),
            Tok::LBracket => f.write_str("["),
            Tok::RBracket => f.write_str("]"),
        }
    }
}

/// A token plus its starting byte offset in the source.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedTok {
    pub tok: Tok,
    pub offset: usize,
}

/// Tokenize a whole source string. Line comments start with `//` and run
/// to end of line; newlines are whitespace (statements are separated by
/// `;`, matching what a compute-expression field can hold).
pub fn lex(src: &str) -> Result<Vec<SpannedTok>, ExprError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;

    while i < bytes.len() {
        let c = bytes[i] as char;

        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Line comments.
        if c == '/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }

        let start = i;
        let push =
            |out: &mut Vec<SpannedTok>, tok: Tok| out.push(SpannedTok { tok, offset: start });

        match c {
            '0'..='9' => {
                let mut j = i;
                let mut is_float = false;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                if j < bytes.len()
                    && bytes[j] == b'.'
                    && j + 1 < bytes.len()
                    && bytes[j + 1].is_ascii_digit()
                {
                    is_float = true;
                    j += 1;
                    while j < bytes.len() && bytes[j].is_ascii_digit() {
                        j += 1;
                    }
                }
                if j < bytes.len() && (bytes[j] == b'e' || bytes[j] == b'E') {
                    let mut k = j + 1;
                    if k < bytes.len() && (bytes[k] == b'+' || bytes[k] == b'-') {
                        k += 1;
                    }
                    if k < bytes.len() && bytes[k].is_ascii_digit() {
                        is_float = true;
                        j = k;
                        while j < bytes.len() && bytes[j].is_ascii_digit() {
                            j += 1;
                        }
                    }
                }
                let text = &src[i..j];
                let tok = if is_float {
                    Tok::Float(text.parse().map_err(|_| ExprError::BadNumber {
                        text: text.to_string(),
                        pos: Pos::at(src, i),
                    })?)
                } else {
                    Tok::Int(text.parse().map_err(|_| ExprError::BadNumber {
                        text: text.to_string(),
                        pos: Pos::at(src, i),
                    })?)
                };
                push(&mut out, tok);
                i = j;
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let mut j = i;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                let word = &src[i..j];
                let tok = match word {
                    "true" => Tok::True,
                    "false" => Tok::False,
                    "null" => Tok::Null,
                    "def" => Tok::Def,
                    _ => Tok::Ident(word.to_string()),
                };
                push(&mut out, tok);
                i = j;
            }
            '\'' | '"' => {
                let quote = bytes[i] as char;
                let mut j = i + 1;
                let mut s = String::new();
                let mut escaped = false;
                loop {
                    // Whole chars, not bytes: the escaped character and the
                    // text itself may be multi-byte.
                    let Some(ch) = src[j..].chars().next() else {
                        return Err(ExprError::UnterminatedString {
                            pos: Pos::at(src, i),
                        });
                    };
                    j += ch.len_utf8();
                    if escaped {
                        s.push(match ch {
                            'n' => '\n',
                            't' => '\t',
                            'r' => '\r',
                            other => other,
                        });
                        escaped = false;
                    } else if ch == quote {
                        break;
                    } else if ch == '\\' {
                        escaped = true;
                    } else {
                        s.push(ch);
                    }
                }
                push(&mut out, Tok::Str(s));
                i = j;
            }
            '+' => {
                push(&mut out, Tok::Plus);
                i += 1;
            }
            '-' => {
                push(&mut out, Tok::Minus);
                i += 1;
            }
            '*' => {
                if bytes.get(i + 1) == Some(&b'*') {
                    push(&mut out, Tok::StarStar);
                    i += 2;
                } else {
                    push(&mut out, Tok::Star);
                    i += 1;
                }
            }
            '/' => {
                push(&mut out, Tok::Slash);
                i += 1;
            }
            '%' => {
                push(&mut out, Tok::Percent);
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push(&mut out, Tok::Ne);
                    i += 2;
                } else {
                    push(&mut out, Tok::Bang);
                    i += 1;
                }
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push(&mut out, Tok::Eq);
                    i += 2;
                } else {
                    push(&mut out, Tok::Assign);
                    i += 1;
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push(&mut out, Tok::Le);
                    i += 2;
                } else {
                    push(&mut out, Tok::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push(&mut out, Tok::Ge);
                    i += 2;
                } else {
                    push(&mut out, Tok::Gt);
                    i += 1;
                }
            }
            '&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    push(&mut out, Tok::AndAnd);
                    i += 2;
                } else {
                    return Err(ExprError::UnexpectedChar {
                        ch: '&',
                        pos: Pos::at(src, i),
                    });
                }
            }
            '|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    push(&mut out, Tok::OrOr);
                    i += 2;
                } else {
                    return Err(ExprError::UnexpectedChar {
                        ch: '|',
                        pos: Pos::at(src, i),
                    });
                }
            }
            '?' => {
                if bytes.get(i + 1) == Some(&b':') {
                    push(&mut out, Tok::Elvis);
                    i += 2;
                } else {
                    push(&mut out, Tok::Question);
                    i += 1;
                }
            }
            ':' => {
                push(&mut out, Tok::Colon);
                i += 1;
            }
            ',' => {
                push(&mut out, Tok::Comma);
                i += 1;
            }
            ';' => {
                push(&mut out, Tok::Semi);
                i += 1;
            }
            '(' => {
                push(&mut out, Tok::LParen);
                i += 1;
            }
            ')' => {
                push(&mut out, Tok::RParen);
                i += 1;
            }
            '[' => {
                push(&mut out, Tok::LBracket);
                i += 1;
            }
            ']' => {
                push(&mut out, Tok::RBracket);
                i += 1;
            }
            other => {
                return Err(ExprError::UnexpectedChar {
                    ch: other,
                    pos: Pos::at(src, i),
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn paper_average_expression() {
        // The exact expression from the paper, §VI step 2.
        assert_eq!(
            toks("(a + b + c)/3"),
            vec![
                Tok::LParen,
                Tok::Ident("a".into()),
                Tok::Plus,
                Tok::Ident("b".into()),
                Tok::Plus,
                Tok::Ident("c".into()),
                Tok::RParen,
                Tok::Slash,
                Tok::Int(3),
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42"), vec![Tok::Int(42)]);
        assert_eq!(toks("3.25"), vec![Tok::Float(3.25)]);
        assert_eq!(toks("1e3"), vec![Tok::Float(1000.0)]);
        assert_eq!(toks("2.5e-1"), vec![Tok::Float(0.25)]);
        // '1.' is Int then... we require a digit after the dot, so `1.` would
        // be Int(1) followed by an unexpected char error — keep dots strict.
        assert!(lex("1.").is_err());
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(toks(r#"'hi'"#), vec![Tok::Str("hi".into())]);
        assert_eq!(toks(r#""a\nb""#), vec![Tok::Str("a\nb".into())]);
        assert_eq!(toks(r#"'q\'s'"#), vec![Tok::Str("q's".into())]);
        assert_eq!(toks("'héllo'"), vec![Tok::Str("héllo".into())]);
        assert!(matches!(
            lex("'open"),
            Err(ExprError::UnterminatedString { .. })
        ));
    }

    #[test]
    fn keywords_vs_identifiers() {
        assert_eq!(
            toks("true falsey null def defx"),
            vec![
                Tok::True,
                Tok::Ident("falsey".into()),
                Tok::Null,
                Tok::Def,
                Tok::Ident("defx".into()),
            ]
        );
    }

    #[test]
    fn multi_char_operators() {
        assert_eq!(
            toks("** == != <= >= && || ?:"),
            vec![
                Tok::StarStar,
                Tok::Eq,
                Tok::Ne,
                Tok::Le,
                Tok::Ge,
                Tok::AndAnd,
                Tok::OrOr,
                Tok::Elvis,
            ]
        );
        assert_eq!(toks("? :"), vec![Tok::Question, Tok::Colon]);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("1 // ignored\n+ 2"),
            vec![Tok::Int(1), Tok::Plus, Tok::Int(2)]
        );
    }

    #[test]
    fn bad_chars_error_with_position() {
        match lex("a @ b") {
            Err(ExprError::UnexpectedChar { ch: '@', pos }) => {
                assert_eq!(pos.line, 1);
                assert_eq!(pos.col, 3);
            }
            other => panic!("expected UnexpectedChar, got {other:?}"),
        }
        assert!(lex("a & b").is_err(), "single & is not an operator");
    }

    #[test]
    fn offsets_are_recorded() {
        let ts = lex("ab + cd").unwrap();
        assert_eq!(ts[0].offset, 0);
        assert_eq!(ts[1].offset, 3);
        assert_eq!(ts[2].offset, 5);
    }
}
