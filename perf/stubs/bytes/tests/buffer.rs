//! The buffer operations the frame codec performs.

use bytes::{Buf, BufMut, BytesMut};

#[test]
fn frames_are_consumed_from_the_front() {
    let mut buf = BytesMut::new();
    buf.put_slice(&[0, 0, 0, 2, b'h', b'i', 0, 0]);
    assert_eq!(buf.len(), 8);
    assert_eq!(u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]), 2);
    buf.advance(4);
    let body = buf.split_to(2);
    assert_eq!(&body[..], b"hi");
    assert_eq!(&buf[..], &[0, 0]);
    buf.put_slice(&[0, 1]);
    assert_eq!(&buf[..], &[0, 0, 0, 1]);
    buf.advance(4);
    assert!(buf.is_empty());
    assert_eq!(buf.remaining(), 0);
}

#[test]
fn from_slice_copies() {
    let src = [1u8, 2, 3];
    let mut buf = BytesMut::from(&src[..]);
    buf[0] = 9;
    assert_eq!((&buf[..], src), (&[9u8, 2, 3][..], [1, 2, 3]));
}

#[test]
#[should_panic(expected = "out of bounds")]
fn advancing_past_the_end_panics() {
    BytesMut::from(&[1u8][..]).advance(2);
}
