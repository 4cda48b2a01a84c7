//! [`Deserialize`] and its impls for the standard types this repository
//! deserialises.

use crate::json::{Error, Parser};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasher, Hash};

/// A value that can read itself from JSON.
pub trait Deserialize: Sized {
    /// Read one value from `p`.
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error>;

    /// The value of a struct field that is absent from the input: an error
    /// for everything but `Option`, which reads as `None`.
    fn missing_field(name: &'static str, p: &Parser<'_>) -> Result<Self, Error> {
        Err(p.error(format!("missing field `{name}`")))
    }
}

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
                let text = p.number()?;
                text.parse::<$t>().map_err(|_| {
                    p.error(format!("`{text}` is not a valid {}", stringify!($t)))
                })
            }
        }
    )*};
}
de_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! de_float {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
                let text = p.number()?;
                text.parse::<$t>().map_err(|_| p.error(format!("`{text}` is not a number")))
            }
        }
    )*};
}
de_float!(f64);

impl Deserialize for bool {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        p.bool()
    }
}

impl Deserialize for String {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        p.string().map(|s| s.into_owned())
    }
}

/// Static strings deserialise by leaking the parsed text, which is what a
/// `&'static str` field asks for (upstream requires `'de: 'static`).
impl Deserialize for &'static str {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        p.string().map(|s| &*Box::leak(s.into_owned().into_boxed_str()))
    }
}

impl Deserialize for char {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let s = p.string()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(p.error("expected a single character")),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        if p.null() {
            Ok(None)
        } else {
            T::deserialize(p).map(Some)
        }
    }

    fn missing_field(_name: &'static str, _p: &Parser<'_>) -> Result<Self, Error> {
        Ok(None)
    }
}

fn seq<T: Deserialize>(p: &mut Parser<'_>, mut push: impl FnMut(T)) -> Result<(), Error> {
    p.begin_array()?;
    let mut first = true;
    while p.next_element(&mut first)? {
        push(T::deserialize(p)?);
    }
    Ok(())
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let mut out = Vec::new();
        seq(p, |v| out.push(v))?;
        Ok(out)
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let items: Vec<T> = Vec::deserialize(p)?;
        let n = items.len();
        items.try_into().map_err(|_| p.error(format!("expected {N} elements, found {n}")))
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let mut out = BTreeSet::new();
        seq(p, |v| {
            out.insert(v);
        })?;
        Ok(out)
    }
}

fn map<K: Deserialize, V: Deserialize>(
    p: &mut Parser<'_>,
    mut insert: impl FnMut(K, V),
) -> Result<(), Error> {
    p.begin_object()?;
    let mut first = true;
    while p.next_member(&mut first)? {
        let key = p.key_into::<K>()?;
        insert(key, V::deserialize(p)?);
    }
    Ok(())
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let mut out = BTreeMap::new();
        map(p, |k, v| {
            out.insert(k, v);
        })?;
        Ok(out)
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize, S: BuildHasher + Default> Deserialize
    for HashMap<K, V, S>
{
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let mut out = HashMap::default();
        map(p, |k, v| {
            out.insert(k, v);
        })?;
        Ok(out)
    }
}

macro_rules! de_tuple {
    ($(($($t:ident),+))*) => {$(
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
                p.begin_array()?;
                let mut first = true;
                let out = ($(
                    if p.next_element(&mut first)? {
                        $t::deserialize(p)?
                    } else {
                        return Err(p.error("tuple too short"));
                    },
                )+);
                if p.next_element(&mut first)? {
                    return Err(p.error("tuple too long"));
                }
                Ok(out)
            }
        }
    )*};
}
de_tuple! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

impl Deserialize for std::net::SocketAddr {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let text = p.string()?;
        text.parse().map_err(|_| p.error(format!("`{text}` is not a socket address")))
    }
}
