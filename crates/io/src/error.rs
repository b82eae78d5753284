//! Error type for file parsing and writing.

use flow3d_db::DbError;
use std::error::Error;
use std::fmt;

/// An error raised while parsing or writing a flow3d file.
#[derive(Debug)]
#[non_exhaustive]
pub enum IoError {
    /// Syntax or semantic error at a specific line (1-based).
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The parsed file described an invalid design.
    Db(DbError),
    /// String formatting failed (only possible with a failing
    /// [`fmt::Write`] sink).
    Fmt(fmt::Error),
    /// The underlying byte source of a streaming parse failed.
    Read(std::io::Error),
}

impl IoError {
    pub(crate) fn parse(line: usize, message: impl Into<String>) -> Self {
        IoError::Parse {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Parse { line, message } => write!(f, "line {line}: {message}"),
            IoError::Db(e) => write!(f, "invalid design: {e}"),
            IoError::Fmt(e) => write!(f, "format error: {e}"),
            IoError::Read(e) => write!(f, "read error: {e}"),
        }
    }
}

impl Error for IoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IoError::Db(e) => Some(e),
            IoError::Fmt(e) => Some(e),
            IoError::Read(e) => Some(e),
            IoError::Parse { .. } => None,
        }
    }
}

impl From<DbError> for IoError {
    fn from(e: DbError) -> Self {
        IoError::Db(e)
    }
}

impl From<fmt::Error> for IoError {
    fn from(e: fmt::Error) -> Self {
        IoError::Fmt(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_line_number() {
        let e = IoError::parse(17, "bad token");
        assert_eq!(e.to_string(), "line 17: bad token");
    }

    #[test]
    fn db_error_is_wrapped_with_source() {
        let e = IoError::from(DbError::EmptyStack);
        assert!(e.to_string().contains("no dies"));
        assert!(Error::source(&e).is_some());
    }
}
