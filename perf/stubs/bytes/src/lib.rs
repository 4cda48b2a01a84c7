//! Offline stand-in for the subset of `bytes` this repository uses: a
//! growable [`BytesMut`] whose front can be consumed, plus the [`Buf`] and
//! [`BufMut`] methods the frame codec calls.

use std::ops::{Deref, DerefMut};

/// Read access to a buffer whose front can be consumed.
pub trait Buf {
    /// Bytes left.
    fn remaining(&self) -> usize;
    /// Consume `cnt` bytes from the front.
    fn advance(&mut self, cnt: usize);
}

/// Append access to a buffer.
pub trait BufMut {
    /// Append `src`.
    fn put_slice(&mut self, src: &[u8]);
}

/// A growable byte buffer; consumed bytes are reclaimed lazily.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
    head: usize,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// Bytes held.
    pub fn len(&self) -> usize {
        self.data.len() - self.head
    }

    /// Whether the buffer holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove and return the first `at` bytes.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_to out of bounds: {at} > {}", self.len());
        let front = self.data[self.head..self.head + at].to_vec();
        self.advance(at);
        BytesMut { data: front, head: 0 }
    }

    fn clear(&mut self) {
        self.data.clear();
        self.head = 0;
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds: {cnt} > {}", self.len());
        self.head += cnt;
        if self.head == self.data.len() {
            self.clear();
        }
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        // Reclaim the consumed prefix once it outweighs the live bytes.
        if self.head > 0 && self.head >= self.len() {
            self.data.drain(..self.head);
            self.head = 0;
        }
        self.data.extend_from_slice(src);
    }
}

impl From<&[u8]> for BytesMut {
    fn from(src: &[u8]) -> BytesMut {
        BytesMut { data: src.to_vec(), head: 0 }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.head..]
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data[self.head..]
    }
}
