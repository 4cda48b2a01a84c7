//! The async byte-stream traits the frame codec is generic over, reduced
//! to slice-based polling, with the extension methods the codec calls.

use std::future::poll_fn;
use std::io;
use std::pin::Pin;
use std::task::{Context, Poll};

/// A source of bytes.
pub trait AsyncRead {
    /// Read into `buf`; `Ok(0)` is end of stream.
    fn poll_read(
        self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &mut [u8],
    ) -> Poll<io::Result<usize>>;
}

/// A sink of bytes.
pub trait AsyncWrite {
    /// Write some of `buf`.
    fn poll_write(
        self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &[u8],
    ) -> Poll<io::Result<usize>>;
    /// Flush buffered bytes.
    fn poll_flush(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<io::Result<()>>;
}

/// Reading helpers for every [`AsyncRead`].
#[allow(async_fn_in_trait)]
pub trait AsyncReadExt: AsyncRead {
    /// Read some bytes into `buf`.
    async fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>
    where
        Self: Unpin,
    {
        poll_fn(|cx| Pin::new(&mut *self).poll_read(cx, buf)).await
    }
}

impl<R: AsyncRead + ?Sized> AsyncReadExt for R {}

/// Writing helpers for every [`AsyncWrite`].
#[allow(async_fn_in_trait)]
pub trait AsyncWriteExt: AsyncWrite {
    /// Write all of `buf`.
    async fn write_all(&mut self, mut buf: &[u8]) -> io::Result<()>
    where
        Self: Unpin,
    {
        while !buf.is_empty() {
            let n = poll_fn(|cx| Pin::new(&mut *self).poll_write(cx, buf)).await?;
            if n == 0 {
                return Err(io::ErrorKind::WriteZero.into());
            }
            buf = &buf[n..];
        }
        Ok(())
    }

    /// Flush buffered bytes.
    async fn flush(&mut self) -> io::Result<()>
    where
        Self: Unpin,
    {
        poll_fn(|cx| Pin::new(&mut *self).poll_flush(cx)).await
    }
}

impl<W: AsyncWrite + ?Sized> AsyncWriteExt for W {}
