//! `select!`: wait on up to four futures, run the handler of the first
//! that completes. Branches are polled in the order written (upstream
//! polls in random order unless `biased;` is given), which keeps the
//! stand-in deterministic. Handlers run after every branch future has been
//! dropped, so they may `break`, `continue`, `return` and borrow freely.

/// Output of a two-branch `select!`.
#[doc(hidden)]
pub enum Either2<A, B> {
    A(A),
    B(B),
}

/// Output of a three-branch `select!`.
#[doc(hidden)]
pub enum Either3<A, B, C> {
    A(A),
    B(B),
    C(C),
}

/// Output of a four-branch `select!`.
#[doc(hidden)]
pub enum Either4<A, B, C, D> {
    A(A),
    B(B),
    C(C),
    D(D),
}

#[doc(hidden)]
pub use std::future::{poll_fn, Future};
#[doc(hidden)]
pub use std::task::Poll;

/// Wait on several futures at once; see the module documentation.
#[macro_export]
macro_rules! select {
    ($($tokens:tt)*) => {
        $crate::__select_parse! { () $($tokens)* }
    };
}

/// Normalise `pattern = future => handler` branches (handler a block with
/// an optional comma, or an expression followed by a comma or the end).
#[doc(hidden)]
#[macro_export]
macro_rules! __select_parse {
    ( ($($acc:tt)*) $p:pat = $f:expr => $b:block , $($rest:tt)* ) => {
        $crate::__select_parse! { ($($acc)* { $p, $f, $b }) $($rest)* }
    };
    ( ($($acc:tt)*) $p:pat = $f:expr => $b:block $($rest:tt)* ) => {
        $crate::__select_parse! { ($($acc)* { $p, $f, $b }) $($rest)* }
    };
    ( ($($acc:tt)*) $p:pat = $f:expr => $b:expr , $($rest:tt)* ) => {
        $crate::__select_parse! { ($($acc)* { $p, $f, $b }) $($rest)* }
    };
    ( ($($acc:tt)*) $p:pat = $f:expr => $b:expr ) => {
        $crate::__select_parse! { ($($acc)* { $p, $f, $b }) }
    };
    ( ($($acc:tt)*) ) => {
        $crate::__select_emit! { $($acc)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __select_emit {
    ( { $p0:pat, $f0:expr, $b0:expr } { $p1:pat, $f1:expr, $b1:expr } ) => {{
        let __out = {
            let mut __f0 = ::core::pin::pin!($f0);
            let mut __f1 = ::core::pin::pin!($f1);
            let __r = $crate::macros::poll_fn(|cx| {
                use $crate::macros::{Either2 as E, Future, Poll};
                if let Poll::Ready(v) = Future::poll(__f0.as_mut(), cx) {
                    return Poll::Ready(E::A(v));
                }
                if let Poll::Ready(v) = Future::poll(__f1.as_mut(), cx) {
                    return Poll::Ready(E::B(v));
                }
                Poll::Pending
            })
            .await;
            __r
        };
        match __out {
            $crate::macros::Either2::A($p0) => $b0,
            $crate::macros::Either2::B($p1) => $b1,
        }
    }};
    ( { $p0:pat, $f0:expr, $b0:expr } { $p1:pat, $f1:expr, $b1:expr } { $p2:pat, $f2:expr, $b2:expr } ) => {{
        let __out = {
            let mut __f0 = ::core::pin::pin!($f0);
            let mut __f1 = ::core::pin::pin!($f1);
            let mut __f2 = ::core::pin::pin!($f2);
            let __r = $crate::macros::poll_fn(|cx| {
                use $crate::macros::{Either3 as E, Future, Poll};
                if let Poll::Ready(v) = Future::poll(__f0.as_mut(), cx) {
                    return Poll::Ready(E::A(v));
                }
                if let Poll::Ready(v) = Future::poll(__f1.as_mut(), cx) {
                    return Poll::Ready(E::B(v));
                }
                if let Poll::Ready(v) = Future::poll(__f2.as_mut(), cx) {
                    return Poll::Ready(E::C(v));
                }
                Poll::Pending
            })
            .await;
            __r
        };
        match __out {
            $crate::macros::Either3::A($p0) => $b0,
            $crate::macros::Either3::B($p1) => $b1,
            $crate::macros::Either3::C($p2) => $b2,
        }
    }};
    ( { $p0:pat, $f0:expr, $b0:expr } { $p1:pat, $f1:expr, $b1:expr } { $p2:pat, $f2:expr, $b2:expr } { $p3:pat, $f3:expr, $b3:expr } ) => {{
        let __out = {
            let mut __f0 = ::core::pin::pin!($f0);
            let mut __f1 = ::core::pin::pin!($f1);
            let mut __f2 = ::core::pin::pin!($f2);
            let mut __f3 = ::core::pin::pin!($f3);
            let __r = $crate::macros::poll_fn(|cx| {
                use $crate::macros::{Either4 as E, Future, Poll};
                if let Poll::Ready(v) = Future::poll(__f0.as_mut(), cx) {
                    return Poll::Ready(E::A(v));
                }
                if let Poll::Ready(v) = Future::poll(__f1.as_mut(), cx) {
                    return Poll::Ready(E::B(v));
                }
                if let Poll::Ready(v) = Future::poll(__f2.as_mut(), cx) {
                    return Poll::Ready(E::C(v));
                }
                if let Poll::Ready(v) = Future::poll(__f3.as_mut(), cx) {
                    return Poll::Ready(E::D(v));
                }
                Poll::Pending
            })
            .await;
            __r
        };
        match __out {
            $crate::macros::Either4::A($p0) => $b0,
            $crate::macros::Either4::B($p1) => $b1,
            $crate::macros::Either4::C($p2) => $b2,
            $crate::macros::Either4::D($p3) => $b3,
        }
    }};
}
