//! The JSON writer and pull parser behind [`crate::Serialize`] and
//! [`crate::Deserialize`].

use std::borrow::Cow;
use std::fmt;

/// A JSON syntax or data error, with the byte offset where it was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    offset: usize,
}

impl Error {
    /// An error at `offset`.
    pub fn new(msg: impl Into<String>, offset: usize) -> Error {
        Error { msg: msg.into(), offset }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for Error {}

/// Streaming JSON writer (compact, or pretty with two-space indent).
#[derive(Debug)]
pub struct Writer {
    out: Vec<u8>,
    pretty: bool,
    /// One flag per open container: whether it already holds an item.
    open: Vec<bool>,
    /// Set while a map key is being written: numbers are quoted.
    key_mode: bool,
}

impl Writer {
    /// A writer; `pretty` selects indented output.
    pub fn new(pretty: bool) -> Writer {
        Writer { out: Vec::with_capacity(256), pretty, open: Vec::new(), key_mode: false }
    }

    /// The bytes written.
    pub fn into_bytes(self) -> Vec<u8> {
        self.out
    }

    fn newline(&mut self) {
        if self.pretty {
            self.out.push(b'\n');
            for _ in 0..self.open.len() {
                self.out.extend_from_slice(b"  ");
            }
        }
    }

    /// Separator before the next item of the innermost container.
    fn item(&mut self) {
        let first = !std::mem::replace(self.open.last_mut().expect("open container"), true);
        if !first {
            self.out.push(b',');
        }
        self.newline();
    }

    fn close(&mut self, byte: u8) {
        let had_items = self.open.pop().expect("open container");
        if had_items {
            self.newline();
        }
        self.out.push(byte);
    }

    /// Open an object.
    pub fn begin_object(&mut self) {
        self.out.push(b'{');
        self.open.push(false);
    }

    /// Write a literal field name; the value must follow.
    pub fn key(&mut self, name: &str) {
        self.item();
        self.string(name);
        self.colon();
    }

    /// Write a computed map key through its `Serialize` impl (numbers are
    /// quoted, as JSON keys must be strings); the value must follow.
    pub fn key_from<K: crate::Serialize + ?Sized>(&mut self, key: &K) {
        self.item();
        self.key_mode = true;
        key.serialize(self);
        self.key_mode = false;
        self.colon();
    }

    fn colon(&mut self) {
        self.out.push(b':');
        if self.pretty {
            self.out.push(b' ');
        }
    }

    /// Close the innermost object.
    pub fn end_object(&mut self) {
        self.close(b'}');
    }

    /// Open an array.
    pub fn begin_array(&mut self) {
        self.out.push(b'[');
        self.open.push(false);
    }

    /// Announce the next array element; the value must follow.
    pub fn element(&mut self) {
        self.item();
    }

    /// Close the innermost array.
    pub fn end_array(&mut self) {
        self.close(b']');
    }

    /// Write `null`.
    pub fn null(&mut self) {
        self.out.extend_from_slice(b"null");
    }

    /// Write a boolean.
    pub fn bool(&mut self, v: bool) {
        self.out.extend_from_slice(if v { b"true" } else { b"false" });
    }

    /// Write a number from its display form (quoted inside a map key).
    pub fn number(&mut self, v: impl fmt::Display) {
        use std::io::Write;
        if self.key_mode {
            self.out.push(b'"');
        }
        write!(self.out, "{v}").expect("writing to a Vec cannot fail");
        if self.key_mode {
            self.out.push(b'"');
        }
    }

    /// Write a float: shortest round-trip form, `null` when not finite.
    pub fn float(&mut self, v: f64) {
        if v.is_finite() {
            // `{:?}` keeps a fractional part (`1.0`) and switches to an
            // exponent for very large or small magnitudes; both are JSON.
            self.number(format_args!("{v:?}"));
        } else {
            self.null();
        }
    }

    /// Write a string with JSON escaping.
    pub fn string(&mut self, s: &str) {
        self.out.push(b'"');
        let bytes = s.as_bytes();
        let mut start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let esc: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0x08 => b"\\b",
                0x0c => b"\\f",
                0..=0x1f => {
                    self.out.extend_from_slice(&bytes[start..i]);
                    self.out.extend_from_slice(format!("\\u{b:04x}").as_bytes());
                    start = i + 1;
                    continue;
                }
                _ => continue,
            };
            self.out.extend_from_slice(&bytes[start..i]);
            self.out.extend_from_slice(esc);
            start = i + 1;
        }
        self.out.extend_from_slice(&bytes[start..]);
        self.out.push(b'"');
    }
}

/// Pull parser over a JSON document.
#[derive(Debug)]
pub struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    /// Set while a map key is being read: numbers arrive quoted.
    key_mode: bool,
}

impl<'a> Parser<'a> {
    /// A parser at the start of `src`.
    pub fn new(src: &'a [u8]) -> Parser<'a> {
        Parser { src, pos: 0, key_mode: false }
    }

    /// An error at the current position.
    pub fn error(&self, msg: impl Into<String>) -> Error {
        Error::new(msg, self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\n' | b'\r' | b'\t') = self.src.get(self.pos) {
            self.pos += 1;
        }
    }

    /// The next significant byte, not consumed.
    pub fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    /// Fail unless only whitespace is left.
    pub fn end(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    /// Consume `null` if it is next.
    pub fn null(&mut self) -> bool {
        self.literal("null")
    }

    /// Read a boolean.
    pub fn bool(&mut self) -> Result<bool, Error> {
        if self.literal("true") {
            Ok(true)
        } else if self.literal("false") {
            Ok(false)
        } else {
            Err(self.error("expected a boolean"))
        }
    }

    /// Read a number as its source text (unquoted inside a map key).
    pub fn number(&mut self) -> Result<&'a str, Error> {
        if self.key_mode {
            self.expect(b'"')?;
        } else {
            self.skip_ws();
        }
        let start = self.pos;
        while let Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') = self.src.get(self.pos) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.error("expected a number"));
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ASCII digits");
        if self.key_mode {
            self.expect(b'"')?;
        }
        Ok(text)
    }

    /// Read a string, borrowing from the input when it has no escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.src.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    let s = std::str::from_utf8(&self.src[start..self.pos])
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    self.pos += 1;
                    return Ok(Cow::Borrowed(s));
                }
                Some(b'\\') => break,
                Some(_) => self.pos += 1,
            }
        }
        // Slow path: unescape into an owned buffer.
        let mut buf = self.src[start..self.pos].to_vec();
        loop {
            match self.src.get(self.pos).copied() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    let s = String::from_utf8(buf)
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    return Ok(Cow::Owned(s));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc =
                        self.src.get(self.pos).copied().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => buf.push(esc),
                        b'n' => buf.push(b'\n'),
                        b'r' => buf.push(b'\r'),
                        b't' => buf.push(b'\t'),
                        b'b' => buf.push(0x08),
                        b'f' => buf.push(0x0c),
                        b'u' => {
                            let mut code = self.hex4()?;
                            if (0xD800..0xDC00).contains(&code)
                                && self.src[self.pos..].starts_with(b"\\u")
                            {
                                self.pos += 2;
                                let low = self.hex4()?;
                                code = 0x10000
                                    + ((code - 0xD800) << 10)
                                    + (low.wrapping_sub(0xDC00) & 0x3FF);
                            }
                            let c =
                                char::from_u32(code).ok_or_else(|| self.error("bad \\u escape"))?;
                            buf.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                }
                Some(b) => {
                    buf.push(b);
                    self.pos += 1;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits =
            self.src.get(self.pos..self.pos + 4).ok_or_else(|| self.error("bad \\u escape"))?;
        let text = std::str::from_utf8(digits).map_err(|_| self.error("bad \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Enter an object.
    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.expect(b'{')
    }

    /// Advance to the next member of the current object: `true` when a key
    /// follows (read it with [`Parser::string`] or [`Parser::key_into`],
    /// then call [`Parser::colon`]), `false` when the object closed.
    /// `first` must start as `true` and is maintained by the parser.
    pub fn next_member(&mut self, first: &mut bool) -> Result<bool, Error> {
        self.next_item(first, b'}')
    }

    /// Enter an array.
    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.expect(b'[')
    }

    /// Advance to the next element of the current array (`false` = closed).
    pub fn next_element(&mut self, first: &mut bool) -> Result<bool, Error> {
        self.next_item(first, b']')
    }

    fn next_item(&mut self, first: &mut bool, close: u8) -> Result<bool, Error> {
        let was_first = std::mem::replace(first, false);
        match self.peek() {
            Some(b) if b == close => {
                self.pos += 1;
                Ok(false)
            }
            Some(b',') if !was_first => {
                self.pos += 1;
                Ok(true)
            }
            Some(_) if was_first => Ok(true),
            _ => Err(self.error("expected ',' or a closing bracket")),
        }
    }

    /// Consume the `:` after a key.
    pub fn colon(&mut self) -> Result<(), Error> {
        self.expect(b':')
    }

    /// Read a map key through `K`'s `Deserialize` impl (numbers arrive
    /// quoted), then the `:`.
    pub fn key_into<K: crate::Deserialize>(&mut self) -> Result<K, Error> {
        self.key_mode = true;
        let key = K::deserialize(self);
        self.key_mode = false;
        let key = key?;
        self.colon()?;
        Ok(key)
    }

    /// Skip one value of any shape.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'"') => self.string().map(drop),
            Some(b'{') => {
                self.begin_object()?;
                let mut first = true;
                while self.next_member(&mut first)? {
                    self.string()?;
                    self.colon()?;
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'[') => {
                self.begin_array()?;
                let mut first = true;
                while self.next_element(&mut first)? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'n') if self.null() => Ok(()),
            Some(_) => self.number().map(drop),
            None => Err(self.error("unexpected end of input")),
        }
    }
}
