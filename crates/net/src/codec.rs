//! Minimal binary codec helpers shared by every protocol's wire format.
//!
//! Messages in this workspace are hand-encoded (no external format crate):
//! little-endian fixed-width integers and length-prefixed byte strings. The
//! [`Writer`]/[`Reader`] pair keeps the per-message `encode`/`decode`
//! implementations short and uniform, and `Reader` is fully bounds-checked
//! so malformed (or adversarial) bytes produce [`CodecError`], never a
//! panic.

use std::error::Error;
use std::fmt;

/// Errors from decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// Fewer bytes were available than the field required.
    UnexpectedEnd {
        /// What was being read.
        field: &'static str,
    },
    /// A tag byte did not match any known variant.
    BadTag {
        /// The message type being decoded.
        message: &'static str,
        /// The unknown tag.
        tag: u8,
    },
    /// A length prefix exceeded the remaining buffer.
    BadLength {
        /// What was being read.
        field: &'static str,
        /// The claimed length.
        len: usize,
    },
    /// Bytes declared as UTF-8 were not.
    BadUtf8 {
        /// What was being read.
        field: &'static str,
    },
    /// The buffer had bytes left over after a complete decode.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd { field } => write!(f, "unexpected end reading {field}"),
            CodecError::BadTag { message, tag } => write!(f, "unknown tag {tag} for {message}"),
            CodecError::BadLength { field, len } => write!(f, "length {len} too large for {field}"),
            CodecError::BadUtf8 { field } => write!(f, "invalid utf-8 in {field}"),
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after message")
            }
        }
    }
}

impl Error for CodecError {}

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Creates a writer that starts with a message tag byte.
    pub fn tagged(tag: u8) -> Writer {
        Writer::tagged_reusing(tag, Vec::new())
    }

    /// Creates a tagged writer that reuses `buf`'s allocation (clearing
    /// any contents). [`Writer::finish`] hands the buffer back, so an
    /// encode hot path can cycle one allocation across messages.
    pub fn tagged_reusing(tag: u8, mut buf: Vec<u8>) -> Writer {
        buf.clear();
        let mut w = Writer { buf };
        w.put_u8(tag);
        w
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Finishes and returns the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked decoder.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless the buffer was fully consumed.
    ///
    /// # Errors
    ///
    /// [`CodecError::TrailingBytes`] when bytes remain.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEnd { field });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEnd`] when the buffer is exhausted.
    pub fn u8(&mut self, field: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, field)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEnd`] when fewer than 4 bytes remain.
    pub fn u32(&mut self, field: &'static str) -> Result<u32, CodecError> {
        let b = self.take(4, field)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEnd`] when fewer than 8 bytes remain.
    pub fn u64(&mut self, field: &'static str) -> Result<u64, CodecError> {
        let b = self.take(8, field)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadLength`] when the prefix exceeds the remaining
    /// buffer; [`CodecError::UnexpectedEnd`] when truncated.
    pub fn bytes(&mut self, field: &'static str) -> Result<Vec<u8>, CodecError> {
        Ok(self.bytes_ref(field)?.to_vec())
    }

    /// Reads a length-prefixed byte string as a **borrowed** slice of the
    /// input — the zero-copy form the hot decode paths use.
    ///
    /// # Errors
    ///
    /// As for [`Reader::bytes`].
    pub fn bytes_ref(&mut self, field: &'static str) -> Result<&'a [u8], CodecError> {
        let len = self.u32(field)? as usize;
        if len > self.remaining() {
            return Err(CodecError::BadLength { field, len });
        }
        self.take(len, field)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// As for [`Reader::bytes`], plus [`CodecError::BadUtf8`].
    pub fn str(&mut self, field: &'static str) -> Result<String, CodecError> {
        Ok(self.str_ref(field)?.to_owned())
    }

    /// Reads a length-prefixed UTF-8 string as a **borrowed** `&str`.
    ///
    /// # Errors
    ///
    /// As for [`Reader::str`].
    pub fn str_ref(&mut self, field: &'static str) -> Result<&'a str, CodecError> {
        let raw = self.bytes_ref(field)?;
        std::str::from_utf8(raw).map_err(|_| CodecError::BadUtf8 { field })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = Writer::tagged(7);
        w.put_u8(1)
            .put_u32(0xdead_beef)
            .put_u64(0x0123_4567_89ab_cdef)
            .put_bytes(b"raw")
            .put_str("text");
        let buf = w.finish();

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8("tag").unwrap(), 7);
        assert_eq!(r.u8("a").unwrap(), 1);
        assert_eq!(r.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("c").unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.bytes("e").unwrap(), b"raw");
        assert_eq!(r.str("f").unwrap(), "text");
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_input_errors() {
        let mut w = Writer::new();
        w.put_u64(5);
        let buf = w.finish();
        let mut r = Reader::new(&buf[..5]);
        assert_eq!(
            r.u64("x"),
            Err(CodecError::UnexpectedEnd { field: "x" })
        );
    }

    #[test]
    fn oversized_length_prefix_errors() {
        let mut w = Writer::new();
        w.put_u32(1000); // claims 1000 bytes, provides none
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(
            r.bytes("x"),
            Err(CodecError::BadLength { field: "x", len: 1000 })
        );
    }

    #[test]
    fn bad_utf8_errors() {
        let mut w = Writer::new();
        w.put_bytes(&[0xff, 0xfe]);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.str("s"), Err(CodecError::BadUtf8 { field: "s" }));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = Writer::new();
        w.put_u8(1).put_u8(2);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        r.u8("a").unwrap();
        assert_eq!(r.expect_end(), Err(CodecError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn display_messages() {
        for e in [
            CodecError::UnexpectedEnd { field: "f" },
            CodecError::BadTag { message: "m", tag: 9 },
            CodecError::BadLength { field: "f", len: 3 },
            CodecError::BadUtf8 { field: "f" },
            CodecError::TrailingBytes { remaining: 2 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn empty_bytes_and_strings() {
        let mut w = Writer::new();
        w.put_bytes(b"").put_str("");
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes("b").unwrap(), Vec::<u8>::new());
        assert_eq!(r.str("s").unwrap(), "");
        r.expect_end().unwrap();
    }
}
