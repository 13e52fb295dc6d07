//! Compact self-describing binary codec for store payloads.
//!
//! A [`Writer`] produces a flat byte buffer from primitives; a [`Reader`]
//! consumes one, failing with a [`CodecError`] (never panicking) on any
//! truncation or malformed value, so a corrupted record degrades to a
//! cache miss instead of an error. Strings are length-prefixed UTF-8;
//! interned [`Symbol`]s serialize as their strings and re-intern on load
//! — symbol identity is process-local and must never reach disk.

use alice_intern::Symbol;
use std::fmt;

/// A decode failure: the payload is truncated or malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// What was being decoded when the payload ran out or made no sense.
    pub context: &'static str,
}

impl CodecError {
    pub(crate) fn new(context: &'static str) -> CodecError {
        CodecError { context }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed store record ({})", self.context)
    }
}

impl std::error::Error for CodecError {}

/// Serializes primitives into a growable byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` by bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a length-prefixed string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends an interned symbol as its string.
    pub fn put_symbol(&mut self, s: Symbol) {
        self.put_str(s.as_str());
    }
}

/// Deserializes primitives from a byte slice, tracking its position.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::new(what))?;
        if end > self.buf.len() {
            return Err(CodecError::new(what));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a `usize`, rejecting lengths that cannot fit in memory
    /// anyway (a cheap sanity bound against corrupted length prefixes).
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| CodecError::new("usize"))
    }

    /// Reads an `f64` by bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool (exactly 0 or 1; anything else is corruption).
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::new("bool")),
        }
    }

    /// Reads a length-prefixed string.
    pub fn get_str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.get_usize()?;
        let b = self.take(len, "string body")?;
        std::str::from_utf8(b).map_err(|_| CodecError::new("string utf-8"))
    }

    /// Reads a symbol (re-interned in this process).
    pub fn get_symbol(&mut self) -> Result<Symbol, CodecError> {
        Ok(Symbol::intern(self.get_str()?))
    }

    /// Reads a `len`-prefixed sequence via `item`, bounding `len` by the
    /// bytes actually remaining so a corrupted prefix cannot trigger a
    /// huge allocation.
    pub fn get_seq<T>(
        &mut self,
        min_item_bytes: usize,
        mut item: impl FnMut(&mut Reader<'a>) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let len = self.get_usize()?;
        let remaining = self.buf.len() - self.pos;
        if len.saturating_mul(min_item_bytes.max(1)) > remaining {
            return Err(CodecError::new("sequence length"));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(item(self)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.125);
        w.put_bool(true);
        w.put_str("héllo");
        w.put_symbol(Symbol::intern("top.u0"));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_f64().unwrap(), -0.125);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_symbol().unwrap(), Symbol::intern("top.u0"));
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.put_str("abcdef");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(r.get_str().is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_length_prefix_is_rejected() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // absurd sequence length
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.get_seq(1, |r| r.get_u8()).is_err());
        let mut r2 = Reader::new(&bytes);
        assert!(r2.get_str().is_err());
    }

    #[test]
    fn bad_bool_and_utf8_are_rejected() {
        let mut r = Reader::new(&[2]);
        assert!(r.get_bool().is_err());
        let mut w = Writer::new();
        w.put_usize(2);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&[0xff, 0xfe]);
        let mut r = Reader::new(&bytes);
        assert!(r.get_str().is_err());
    }
}
