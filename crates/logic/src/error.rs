//! Error types for the logic kernel.

use std::fmt;

/// Errors raised while parsing a formula from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error was detected.
    pub position: usize,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

impl ParseError {
    /// The error for an identifier at `position` that would be variable
    /// `MAX_VARS + 1`.
    pub(crate) fn too_many_vars(position: usize) -> ParseError {
        ParseError {
            position,
            message: too_many_vars_message(),
        }
    }

    /// Did the input name more variables than an interpretation holds
    /// ([`crate::MAX_VARS`])? Such an input is too wide, not malformed.
    pub fn is_too_many_vars(&self) -> bool {
        self.message == too_many_vars_message()
    }
}

fn too_many_vars_message() -> String {
    format!("more than {} variables", crate::MAX_VARS)
}

/// Errors raised by semantic operations in the logic kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicError {
    /// The operation needed explicit model enumeration but the signature has
    /// more variables than [`crate::MAX_VARS`].
    TooManyVars {
        /// Number of variables requested.
        requested: usize,
        /// Enumeration limit.
        limit: usize,
    },
    /// Two operands were built over signatures of different width.
    SignatureMismatch {
        /// Width of the left operand.
        left: u32,
        /// Width of the right operand.
        right: u32,
    },
    /// A variable index was out of range for the signature in use.
    VarOutOfRange {
        /// Offending variable index.
        var: u32,
        /// Signature width.
        width: u32,
    },
}

impl fmt::Display for LogicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicError::TooManyVars { requested, limit } => write!(
                f,
                "enumeration requires at most {limit} variables, got {requested}"
            ),
            LogicError::SignatureMismatch { left, right } => write!(
                f,
                "operands built over different signature widths: {left} vs {right}"
            ),
            LogicError::VarOutOfRange { var, width } => {
                write!(
                    f,
                    "variable v{var} out of range for signature width {width}"
                )
            }
        }
    }
}

impl std::error::Error for LogicError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_error_displays_position_and_message() {
        let e = ParseError {
            position: 7,
            message: "unexpected token".into(),
        };
        assert_eq!(e.to_string(), "parse error at byte 7: unexpected token");
    }

    #[test]
    fn logic_error_display_covers_all_variants() {
        let e = LogicError::TooManyVars {
            requested: 90,
            limit: 64,
        };
        assert!(e.to_string().contains("at most 64"));
        let e = LogicError::SignatureMismatch { left: 3, right: 4 };
        assert!(e.to_string().contains("3 vs 4"));
        let e = LogicError::VarOutOfRange { var: 9, width: 4 };
        assert!(e.to_string().contains("v9"));
    }
}
