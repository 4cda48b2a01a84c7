//! A small, dependency-free flag parser.
//!
//! Supports `--key value`, `--key=value`, and bare `--flag` booleans; the
//! first non-flag token is the subcommand. Unknown keys are an error so
//! typos fail loudly.

use std::collections::BTreeMap;

/// Parsed invocation: subcommand plus flags.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The subcommand (first positional token), if any.
    pub command: Option<String>,
    flags: BTreeMap<String, String>,
}

/// Parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A flag appeared twice.
    Duplicate(String),
    /// More than one positional token.
    ExtraPositional(String),
    /// A value failed to parse; `(flag, value, expected-type)`.
    BadValue(String, String, &'static str),
    /// A flag not in the allowed set was provided.
    Unknown(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::Duplicate(k) => write!(f, "flag --{k} given twice"),
            ArgError::ExtraPositional(t) => write!(f, "unexpected argument '{t}'"),
            ArgError::BadValue(k, v, ty) => write!(f, "--{k}={v} is not a valid {ty}"),
            ArgError::Unknown(k) => write!(f, "unknown flag --{k}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse a token stream (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Args, ArgError> {
        let mut out = Args::default();
        let mut iter = tokens.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(stripped) = tok.strip_prefix("--") {
                let (key, val) = match stripped.split_once('=') {
                    Some((k, v)) => (k.to_string(), Some(v.to_string())),
                    None => (stripped.to_string(), None),
                };
                let value = match val {
                    Some(v) => v,
                    None => match iter.peek() {
                        Some(next) if !next.starts_with("--") => iter.next().unwrap(),
                        // Bare flag == boolean true.
                        _ => "true".to_string(),
                    },
                };
                if out.flags.insert(key.clone(), value).is_some() {
                    return Err(ArgError::Duplicate(key));
                }
            } else if out.command.is_none() {
                out.command = Some(tok);
            } else {
                return Err(ArgError::ExtraPositional(tok));
            }
        }
        Ok(out)
    }

    /// Reject any flag outside `allowed` (catches typos).
    pub fn expect_only(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for k in self.flags.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(ArgError::Unknown(k.clone()));
            }
        }
        Ok(())
    }

    /// A string flag, or default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.flags.get(key).cloned().unwrap_or_else(|| default.to_string())
    }

    /// A float flag, or default.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|_| ArgError::BadValue(key.to_string(), v.clone(), "number"))
            }
        }
    }

    /// An integer flag, or default.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, ArgError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|_| ArgError::BadValue(key.to_string(), v.clone(), "integer"))
            }
        }
    }

    /// A u64 flag (e.g. a seed), or default.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|_| ArgError::BadValue(key.to_string(), v.clone(), "integer"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn subcommand_and_flags() {
        let a = parse("coverage --lat 25.0 --lon=121.5 --sats 100").unwrap();
        assert_eq!(a.command.as_deref(), Some("coverage"));
        assert_eq!(a.get_f64("lat", 0.0).unwrap(), 25.0);
        assert_eq!(a.get_f64("lon", 0.0).unwrap(), 121.5);
        assert_eq!(a.get_usize("sats", 0).unwrap(), 100);
        assert_eq!(a.get_usize("days", 7).unwrap(), 7);
    }

    #[test]
    fn bare_flag_is_boolean() {
        let a = parse("screen --full --threshold 10").unwrap();
        assert_eq!(a.get_str("full", ""), "true");
        assert_eq!(a.get_str("quiet", ""), "");
        assert_eq!(a.get_f64("threshold", 0.0).unwrap(), 10.0);
    }

    #[test]
    fn flag_followed_by_flag_is_boolean() {
        let a = parse("x --verbose --lat 1.0").unwrap();
        assert_eq!(a.get_str("verbose", ""), "true");
        assert_eq!(a.get_f64("lat", 0.0).unwrap(), 1.0);
    }

    #[test]
    fn errors() {
        assert_eq!(parse("x --a 1 --a 2").unwrap_err(), ArgError::Duplicate("a".into()));
        assert_eq!(parse("x y").unwrap_err(), ArgError::ExtraPositional("y".into()));
        let a = parse("x --lat abc").unwrap();
        assert!(matches!(a.get_f64("lat", 0.0), Err(ArgError::BadValue(..))));
    }

    #[test]
    fn unknown_flags_rejected() {
        let a = parse("x --lat 1 --typo 2").unwrap();
        assert!(a.expect_only(&["lat"]).is_err());
        assert!(a.expect_only(&["lat", "typo"]).is_ok());
    }

    #[test]
    fn empty_invocation() {
        let a = parse("").unwrap();
        assert!(a.command.is_none());
    }

    #[test]
    fn error_messages_name_the_flag() {
        assert!(ArgError::Unknown("lat".into()).to_string().contains("--lat"));
        assert!(ArgError::BadValue("n".into(), "x".into(), "integer")
            .to_string()
            .contains("--n=x"));
    }
}
