//! Error types for DIMACS parsing.

use std::error::Error;
use std::fmt;

/// The reason a DIMACS document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseDimacsErrorKind {
    /// The `p cnf …` / `p wcnf …` header line is missing or malformed.
    BadHeader,
    /// A token could not be parsed as an integer literal.
    BadLiteral(String),
    /// A clause weight was invalid (zero, or unparsable).
    BadWeight(String),
    /// A clause was not terminated by `0` before end of input.
    UnterminatedClause,
    /// A literal referenced a variable above the header's declared count.
    VariableOutOfRange(i32),
    /// The header declared more variables than a literal can address
    /// (above `Var::MAX_INDEX + 1`); no clause could use them, and
    /// allocating per-variable state for them could exhaust memory.
    TooManyVariables(usize),
    /// More clauses appeared than the header declared.
    TooManyClauses,
    /// An I/O error occurred while reading.
    Io(String),
}

/// An error produced while parsing DIMACS CNF/WCNF text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimacsError {
    /// 1-based line number where the error was detected.
    pub line: usize,
    /// What went wrong.
    pub kind: ParseDimacsErrorKind,
}

impl ParseDimacsError {
    pub(crate) fn new(line: usize, kind: ParseDimacsErrorKind) -> Self {
        ParseDimacsError { line, kind }
    }
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            ParseDimacsErrorKind::BadHeader => write!(f, "missing or malformed problem header"),
            ParseDimacsErrorKind::BadLiteral(tok) => write!(f, "invalid literal token `{tok}`"),
            ParseDimacsErrorKind::BadWeight(tok) => write!(f, "invalid clause weight `{tok}`"),
            ParseDimacsErrorKind::UnterminatedClause => {
                write!(f, "clause not terminated by 0 before end of input")
            }
            ParseDimacsErrorKind::VariableOutOfRange(v) => {
                write!(f, "literal {v} exceeds declared variable count")
            }
            ParseDimacsErrorKind::TooManyVariables(n) => write!(
                f,
                "declared variable count {n} exceeds the maximum {}",
                crate::Var::MAX_INDEX as usize + 1
            ),
            ParseDimacsErrorKind::TooManyClauses => {
                write!(f, "more clauses than declared in header")
            }
            ParseDimacsErrorKind::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl Error for ParseDimacsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_line() {
        let e = ParseDimacsError::new(7, ParseDimacsErrorKind::BadHeader);
        assert_eq!(e.to_string(), "line 7: missing or malformed problem header");
    }

    #[test]
    fn display_bad_literal() {
        let e = ParseDimacsError::new(2, ParseDimacsErrorKind::BadLiteral("xy".into()));
        assert!(e.to_string().contains("`xy`"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: Error + Send + Sync>() {}
        assert_err::<ParseDimacsError>();
    }
}
