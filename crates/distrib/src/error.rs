//! Why an [`Engine`](crate::Engine) could not be built or recovered.

use decs_snoop::SnoopError;
use std::fmt;

/// Errors of engine construction and crash recovery.
#[derive(Debug)]
pub enum EngineError {
    /// A definition does not compile (unknown event, cycle, bad operand).
    Definition(SnoopError),
    /// The configuration or the call asks for something the engine does
    /// not support.
    Unsupported(&'static str),
    /// Durable state could not be created or read.
    Io(std::io::Error),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Definition(e) => write!(f, "definition: {e}"),
            EngineError::Unsupported(what) => write!(f, "unsupported: {what}"),
            EngineError::Io(e) => write!(f, "durable state: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SnoopError> for EngineError {
    fn from(e: SnoopError) -> Self {
        EngineError::Definition(e)
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e)
    }
}
