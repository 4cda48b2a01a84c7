//! [`Serialize`] and its impls for the standard types this repository
//! serialises.

use crate::json::Writer;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A value that can write itself as JSON.
pub trait Serialize {
    /// Write `self` into `w`.
    fn serialize(&self, w: &mut Writer);
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                w.number(*self);
            }
        }
    )*};
}
ser_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self, w: &mut Writer) {
        w.float(*self);
    }
}

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer) {
        w.bool(*self);
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer) {
        w.string(self);
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer) {
        w.string(self);
    }
}

impl Serialize for char {
    fn serialize(&self, w: &mut Writer) {
        w.string(self.encode_utf8(&mut [0; 4]));
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Some(v) => v.serialize(w),
            None => w.null(),
        }
    }
}

fn seq<'a, T: Serialize + 'a>(w: &mut Writer, items: impl IntoIterator<Item = &'a T>) {
    w.begin_array();
    for item in items {
        w.element();
        item.serialize(w);
    }
    w.end_array();
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer) {
        seq(w, self);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, w: &mut Writer) {
        seq(w, self);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer) {
        seq(w, self);
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize(&self, w: &mut Writer) {
        seq(w, self);
    }
}

fn map<'a, K: Serialize + 'a, V: Serialize + 'a>(
    w: &mut Writer,
    entries: impl IntoIterator<Item = (&'a K, &'a V)>,
) {
    w.begin_object();
    for (k, v) in entries {
        w.key_from(k);
        v.serialize(w);
    }
    w.end_object();
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, w: &mut Writer) {
        map(w, self);
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn serialize(&self, w: &mut Writer) {
        map(w, self);
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, w: &mut Writer) {
                w.begin_array();
                $( w.element(); self.$n.serialize(w); )+
                w.end_array();
            }
        }
    )*};
}
ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
    (0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

/// Socket addresses serialise in their display form, as upstream does for
/// human-readable formats.
impl Serialize for std::net::SocketAddr {
    fn serialize(&self, w: &mut Writer) {
        w.string(&self.to_string());
    }
}
