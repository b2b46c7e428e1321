//! Error types for the storage layer.

use std::fmt;
use std::io;

use chronos_core::CoreError;

/// Result alias for storage operations.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors arising from pages, files, logs, codecs or indexes.
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O failure.
    Io(io::Error),
    /// A frame or page failed its CRC-32 check.
    ChecksumMismatch {
        /// Stored checksum.
        expected: u32,
        /// Computed checksum.
        computed: u32,
    },
    /// Malformed bytes encountered while decoding.
    Corrupt(String),
    /// A well-formed file written in a format version this build does
    /// not read (it is refused, never reinterpreted).
    UnsupportedFormat {
        /// Which file.
        file: &'static str,
        /// The version found on disk.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
    /// A page has no room for the record.
    PageFull {
        /// Bytes requested.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// A record id referenced a missing page or slot.
    NoSuchRecord(String),
    /// A semantic error surfaced from the core relation model.
    Core(CoreError),
    /// A commit failed after it had already changed the table: the
    /// in-memory state holds part of a commit the log does not.
    PartlyApplied(Box<StorageError>),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::ChecksumMismatch { expected, computed } => write!(
                f,
                "checksum mismatch: stored {expected:#010x}, computed {computed:#010x}"
            ),
            StorageError::Corrupt(m) => write!(f, "corrupt data: {m}"),
            StorageError::UnsupportedFormat {
                file,
                found,
                supported,
            } => write!(
                f,
                "{file} is format version {found}; this build reads version {supported}"
            ),
            StorageError::PageFull { needed, available } => {
                write!(f, "page full: need {needed} bytes, {available} available")
            }
            StorageError::NoSuchRecord(m) => write!(f, "no such record: {m}"),
            StorageError::Core(e) => write!(f, "{e}"),
            StorageError::PartlyApplied(e) => {
                write!(f, "commit failed after it was partly applied: {e}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<CoreError> for StorageError {
    fn from(e: CoreError) -> Self {
        StorageError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = StorageError::ChecksumMismatch {
            expected: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("checksum"));
        assert!(StorageError::PageFull {
            needed: 10,
            available: 3
        }
        .to_string()
        .contains("page full"));
    }
}
