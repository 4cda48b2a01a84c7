//! TCP types without a network behind them: they exist so that code with a
//! TCP arm compiles; every operation fails with `ErrorKind::Unsupported`.

use crate::io::{AsyncRead, AsyncWrite};
use std::io;
use std::net::SocketAddr;
use std::pin::Pin;
use std::task::{Context, Poll};

fn unsupported<T>() -> io::Result<T> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "the offline tokio stand-in has no TCP; use the simulated transport",
    ))
}

/// A TCP listener that cannot be bound.
#[derive(Debug)]
pub struct TcpListener(());

impl TcpListener {
    /// Always fails.
    pub async fn bind(_addr: SocketAddr) -> io::Result<TcpListener> {
        unsupported()
    }

    /// Always fails.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        unsupported()
    }

    /// Always fails.
    pub async fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
        unsupported()
    }
}

/// A TCP stream that cannot be connected.
#[derive(Debug)]
pub struct TcpStream(());

impl TcpStream {
    /// Always fails.
    pub async fn connect(_addr: SocketAddr) -> io::Result<TcpStream> {
        unsupported()
    }

    /// Split into owned halves.
    pub fn into_split(self) -> (tcp::OwnedReadHalf, tcp::OwnedWriteHalf) {
        (tcp::OwnedReadHalf(()), tcp::OwnedWriteHalf(()))
    }
}

/// Owned halves of a [`TcpStream`].
pub mod tcp {
    use super::*;

    /// Read half.
    #[derive(Debug)]
    pub struct OwnedReadHalf(pub(super) ());

    /// Write half.
    #[derive(Debug)]
    pub struct OwnedWriteHalf(pub(super) ());

    impl AsyncRead for OwnedReadHalf {
        fn poll_read(
            self: Pin<&mut Self>,
            _cx: &mut Context<'_>,
            _buf: &mut [u8],
        ) -> Poll<io::Result<usize>> {
            Poll::Ready(unsupported())
        }
    }

    impl AsyncWrite for OwnedWriteHalf {
        fn poll_write(
            self: Pin<&mut Self>,
            _cx: &mut Context<'_>,
            _buf: &[u8],
        ) -> Poll<io::Result<usize>> {
            Poll::Ready(unsupported())
        }

        fn poll_flush(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<io::Result<()>> {
            Poll::Ready(unsupported())
        }
    }
}
