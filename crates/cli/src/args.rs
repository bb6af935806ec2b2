//! Dependency-free command-line argument parsing for `pgmine`.
//!
//! Supports `--key value`, `--key=value` and bare flags; unknown keys
//! are errors so typos fail loudly. Every lookup marks its key read,
//! so a command can refuse the options it never looked at.

use std::cell::Cell;

/// Parsed arguments: positional words plus `--key value` options.
#[derive(Clone, Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    /// Every `--key` in command-line order, with its value (a bare flag
    /// carries none) and whether a lookup has read it.
    given: Vec<(String, Option<String>, Cell<bool>)>,
}

/// An argument-parsing error with a user-facing message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse raw arguments. `value_keys` are options that consume a
    /// value; `flag_keys` are bare booleans. Anything else starting
    /// with `--` is rejected.
    pub fn parse(
        raw: impl IntoIterator<Item = String>,
        value_keys: &[&str],
        flag_keys: &[&str],
    ) -> Result<Args, ArgError> {
        let mut out = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(rest) = arg.strip_prefix("--") {
                let (key, inline_value) = match rest.split_once('=') {
                    Some((k, v)) => (k.to_string(), Some(v.to_string())),
                    None => (rest.to_string(), None),
                };
                if flag_keys.contains(&key.as_str()) {
                    if inline_value.is_some() {
                        return Err(ArgError(format!("--{key} takes no value")));
                    }
                    out.given.push((key, None, Cell::new(false)));
                } else if value_keys.contains(&key.as_str()) {
                    let value = match inline_value {
                        Some(v) => v,
                        None => iter
                            .next()
                            .ok_or_else(|| ArgError(format!("--{key} needs a value")))?,
                    };
                    if out.given.iter().any(|(k, ..)| *k == key) {
                        return Err(ArgError(format!("--{key} given twice")));
                    }
                    out.given.push((key, Some(value), Cell::new(false)));
                } else {
                    return Err(ArgError(format!("unknown option --{key}")));
                }
            } else {
                out.positional.push(arg);
            }
        }
        Ok(out)
    }

    /// Positional arguments in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Mark `key` read, and return what was given for it: `None` when
    /// absent, `Some(None)` for a bare flag. A flag may be given twice;
    /// both are marked.
    fn read(&self, key: &str) -> Option<&Option<String>> {
        let mut found = None;
        for (_, value, read) in self.given.iter().filter(|(k, ..)| k == key) {
            read.set(true);
            found = Some(value);
        }
        found
    }

    /// An option's raw value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.read(key)?.as_deref()
    }

    /// Whether a bare flag was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.read(key).is_some_and(Option::is_none)
    }

    /// Refuse the first option, in command-line order, that no lookup
    /// has read: it does not apply to `mode`.
    pub fn refuse_unread(&self, mode: &str) -> Result<(), ArgError> {
        match self.given.iter().find(|(.., read)| !read.get()) {
            Some((key, ..)) => Err(ArgError(format!("--{key} does not apply to {mode}"))),
            None => Ok(()),
        }
    }

    /// A required option.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key)
            .ok_or_else(|| ArgError(format!("--{key} is required")))
    }

    /// Parse an option as `T`, with a default when absent.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError>
    where
        T::Err: std::fmt::Display,
    {
        Ok(self.parse_opt(key)?.unwrap_or(default))
    }

    /// Parse an option as `T`, `None` when absent.
    pub fn parse_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ArgError>
    where
        T::Err: std::fmt::Display,
    {
        self.get(key)
            .map(|raw| {
                raw.parse()
                    .map_err(|e| ArgError(format!("--{key} {raw:?}: {e}")))
            })
            .transpose()
    }
}

/// Parse a gap requirement written as `N:M` (e.g. `9:12`) or a single
/// `N` (rigid gap).
pub fn parse_gap(raw: &str) -> Result<(usize, usize), ArgError> {
    let parse_part = |p: &str| {
        p.parse::<usize>()
            .map_err(|_| ArgError(format!("bad gap component {p:?} in {raw:?}")))
    };
    match raw.split_once(':') {
        Some((lo, hi)) => Ok((parse_part(lo)?, parse_part(hi)?)),
        None => {
            let v = parse_part(raw)?;
            Ok((v, v))
        }
    }
}

/// Parse a support threshold written as a fraction (`0.00003`) or a
/// percentage (`0.003%`).
pub fn parse_rho(raw: &str) -> Result<f64, ArgError> {
    let (text, scale) = match raw.strip_suffix('%') {
        Some(t) => (t, 0.01),
        None => (raw, 1.0),
    };
    let v: f64 = text
        .parse()
        .map_err(|_| ArgError(format!("bad threshold {raw:?}")))?;
    let rho = v * scale;
    if !(rho > 0.0 && rho <= 1.0) {
        return Err(ArgError(format!("threshold {raw:?} must be in (0, 100%]")));
    }
    Ok(rho)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Result<Args, ArgError> {
        Args::parse(
            words.iter().map(|s| s.to_string()),
            &["gap", "rho", "n"],
            &["verify", "quick"],
        )
    }

    #[test]
    fn parses_positional_options_and_flags() {
        let a = args(&["mine", "--gap", "9:12", "--rho=0.003%", "--verify"]).unwrap();
        assert_eq!(a.positional(), &["mine".to_string()]);
        assert_eq!(a.get("gap"), Some("9:12"));
        assert_eq!(a.get("rho"), Some("0.003%"));
        assert!(a.flag("verify"));
        assert!(!a.flag("quick"));
        assert_eq!(a.refuse_unread("mine"), Ok(()));
    }

    #[test]
    fn refuses_the_first_option_no_lookup_read() {
        let a = args(&[
            "mine", "--n", "3", "--verify", "--gap", "1:2", "--rho", "1%",
        ])
        .unwrap();
        // Looking up an absent key marks nothing, and every lookup of a
        // given key marks it, whatever its value.
        assert!(!a.flag("quick"));
        assert_eq!(a.get("gap"), Some("1:2"));
        let refused = |a: &Args| a.refuse_unread("mine --algorithm mppm").unwrap_err().0;
        assert_eq!(refused(&a), "--n does not apply to mine --algorithm mppm");
        assert!(a.parse_or("n", 0usize).is_ok());
        assert_eq!(
            refused(&a),
            "--verify does not apply to mine --algorithm mppm"
        );
        assert!(a.flag("verify"));
        assert_eq!(refused(&a), "--rho does not apply to mine --algorithm mppm");
        assert!(a.require("rho").is_ok());
        assert_eq!(a.refuse_unread("mine --algorithm mppm"), Ok(()));
    }

    #[test]
    fn rejects_unknown_and_duplicate_options() {
        assert!(args(&["--bogus", "1"]).is_err());
        assert!(args(&["--gap", "1:2", "--gap", "3:4"]).is_err());
        assert!(args(&["--gap"]).is_err());
        assert!(args(&["--verify=yes"]).is_err());
    }

    #[test]
    fn parse_or_defaults_and_converts() {
        let a = args(&["--n", "13"]).unwrap();
        assert_eq!(a.parse_or("n", 0usize).unwrap(), 13);
        assert_eq!(a.parse_or("missing-key-is-default", 7usize).unwrap_or(7), 7);
        let bad = args(&["--n", "x"]).unwrap();
        assert!(bad.parse_or("n", 0usize).is_err());
    }

    #[test]
    fn gap_formats() {
        assert_eq!(parse_gap("9:12").unwrap(), (9, 12));
        assert_eq!(parse_gap("7").unwrap(), (7, 7));
        assert!(parse_gap("a:b").is_err());
        assert!(parse_gap("").is_err());
    }

    #[test]
    fn rho_formats() {
        assert!((parse_rho("0.003%").unwrap() - 0.00003).abs() < 1e-12);
        assert!((parse_rho("0.5").unwrap() - 0.5).abs() < 1e-12);
        assert!(parse_rho("0").is_err());
        assert!(parse_rho("150%").is_err());
        assert!(parse_rho("abc").is_err());
    }
}
