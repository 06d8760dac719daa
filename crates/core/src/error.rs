//! Error type for model construction and evaluation.

use std::fmt;

/// Errors from generative-model configuration or likelihood evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A parameter is outside its valid domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
        /// Constraint description.
        constraint: &'static str,
    },
    /// The event trace contains no usable link-arrival events.
    EmptyTrace,
    /// A link event names an unknown node, repeats an existing link, or is
    /// a social self-loop.
    MalformedTrace {
        /// Index of the offending event in the trace.
        event: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidParameter {
                name,
                value,
                constraint,
            } => write!(f, "invalid model parameter {name}={value}: {constraint}"),
            ModelError::EmptyTrace => write!(f, "event trace has no link arrivals"),
            ModelError::MalformedTrace { event } => write!(
                f,
                "malformed link at event {event}: unknown node, self-loop or duplicate"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = ModelError::InvalidParameter {
            name: "beta",
            value: -1.0,
            constraint: "must be >= 0",
        };
        assert!(e.to_string().contains("beta"));
        assert!(ModelError::EmptyTrace.to_string().contains("no link"));
        assert!(ModelError::MalformedTrace { event: 5 }
            .to_string()
            .contains("event 5"));
    }
}
