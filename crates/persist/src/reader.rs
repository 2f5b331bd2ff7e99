//! The one bounded reader for bytes from outside: every WAL and checkpoint
//! record, net message and replication message is decoded through it.
//!
//! A [`Reader`] walks a byte slice front to back. Every field read checks
//! the bytes it needs against what is left and refuses with
//! [`ReadError::Truncated`] instead of panicking, and
//! [`Reader::finish`] refuses bytes left after the last field. What a field
//! *means* — a pool id, a packed ObjectID, a length-prefixed string — stays
//! with each format's own decoder, which decides how a refusal surfaces
//! (a torn frame, a protocol error). Every method is `#[inline]`: a net
//! request is decoded through it once per request, across crates, and the
//! workspace builds without LTO.

/// Why a [`Reader`] refused. Each format maps it to its own error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// A field needs more bytes than are left.
    Truncated,
    /// [`Reader::finish`] found this many bytes after the last field.
    Trailing(usize),
}

/// A bounds-checked little-endian cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The next `n` bytes; [`ReadError::Truncated`] (and no move) when
    /// fewer are left.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        let bytes = self
            .buf
            .get(self.pos..)
            .and_then(|rest| rest.get(..n))
            .ok_or(ReadError::Truncated)?;
        self.pos += n;
        Ok(bytes)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        Ok(self.array::<1>()?[0])
    }

    /// The next little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, ReadError> {
        self.array().map(u16::from_le_bytes)
    }

    /// The next little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, ReadError> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, ReadError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Every byte left; the reader ends up at the end.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = &self.buf[self.pos..];
        self.pos = self.buf.len();
        rest
    }

    /// How many bytes are left.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Ends the read; [`ReadError::Trailing`] when bytes are left after
    /// the last field.
    #[inline]
    pub fn finish(&self) -> Result<(), ReadError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(ReadError::Trailing(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_read_little_endian_in_order() {
        let bytes = [1, 2, 0, 3, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 9, 9];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u16(), Ok(2));
        assert_eq!(r.u32(), Ok(3));
        assert_eq!(r.u64(), Ok(4));
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.finish(), Err(ReadError::Trailing(2)));
        assert_eq!(r.rest(), [9, 9]);
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn a_short_read_refuses_and_does_not_move() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(ReadError::Truncated));
        assert_eq!(r.take(usize::MAX), Err(ReadError::Truncated));
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.take(3), Ok(&[1, 2, 3][..]));
        assert_eq!(r.u8(), Err(ReadError::Truncated));
        assert_eq!(r.take(0), Ok(&[][..]));
    }
}
