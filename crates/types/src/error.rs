//! Error type shared by constructors in this crate.

use std::fmt;

/// Errors raised by fallible constructors of the shared data types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// A feature vector had the wrong number of dimensions.
    Dimension {
        /// What was being constructed.
        what: &'static str,
        /// Expected dimensionality.
        expected: usize,
        /// Actual dimensionality supplied.
        actual: usize,
    },
    /// An image buffer length did not match `width * height * 3`.
    ImageBuffer {
        /// Image width in pixels.
        width: usize,
        /// Image height in pixels.
        height: usize,
        /// Length of the supplied buffer.
        actual: usize,
    },
    /// A range was empty or inverted (`start >= end`).
    EmptyRange {
        /// What was being constructed.
        what: &'static str,
        /// Range start.
        start: usize,
        /// Range end (exclusive).
        end: usize,
    },
    /// A sample rate of zero was supplied for an audio track.
    ZeroSampleRate,
    /// An audio sample was NaN or infinite.
    NonFiniteSample {
        /// Index of the first offending sample in the supplied slice.
        index: usize,
    },
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::Dimension {
                what,
                expected,
                actual,
            } => write!(
                f,
                "{what}: expected {expected} dimensions, got {actual}"
            ),
            TypeError::ImageBuffer {
                width,
                height,
                actual,
            } => write!(
                f,
                "image buffer: expected {} bytes for {width}x{height} RGB, got {actual}",
                width * height * 3
            ),
            TypeError::EmptyRange { what, start, end } => {
                write!(f, "{what}: empty or inverted range {start}..{end}")
            }
            TypeError::ZeroSampleRate => write!(f, "audio track sample rate must be non-zero"),
            TypeError::NonFiniteSample { index } => {
                write!(f, "audio sample {index} is not finite")
            }
        }
    }
}

impl std::error::Error for TypeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TypeError::Dimension {
            what: "colour histogram",
            expected: 256,
            actual: 10,
        };
        assert!(e.to_string().contains("256"));
        assert!(e.to_string().contains("colour histogram"));

        let e = TypeError::ImageBuffer {
            width: 4,
            height: 2,
            actual: 7,
        };
        assert!(e.to_string().contains("24 bytes"));

        let e = TypeError::EmptyRange {
            what: "shot",
            start: 5,
            end: 5,
        };
        assert!(e.to_string().contains("5..5"));

        assert!(TypeError::ZeroSampleRate.to_string().contains("sample rate"));
    }
}
