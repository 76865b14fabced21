//! A tiny `--key=value` argument parser for the experiment binaries.
//!
//! Every binary accepts the same scaling knobs (`--pages`, `--items`,
//! `--minsup`, `--seed`, `--full`), so paper-scale runs are one flag away
//! while the defaults finish in seconds. Hand-rolled to keep the
//! dependency set to the approved offline crates.

use std::collections::BTreeMap;

/// Parsed command-line options.
#[derive(Clone, Debug, Default)]
pub struct Options {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Options {
    /// Parses `--key=value` and bare `--flag` arguments.
    ///
    /// # Panics
    /// Panics (with a usage hint) on arguments not starting with `--`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let (out, positionals) = Self::parse_with_positionals(args);
        if let Some(arg) = positionals.first() {
            panic!("unexpected argument {arg:?}: use --key=value or --flag");
        }
        out
    }

    /// Like [`Self::parse`], but collects positional (non-`--`) arguments
    /// instead of rejecting them. Used by callers that take paths
    /// positionally (the `ossm` CLI's `--trace <path>` and `obs diff`).
    pub fn parse_with_positionals(args: impl IntoIterator<Item = String>) -> (Self, Vec<String>) {
        let mut out = Options::default();
        let mut positionals = Vec::new();
        for arg in args {
            let Some(body) = arg.strip_prefix("--") else {
                positionals.push(arg);
                continue;
            };
            match body.split_once('=') {
                Some((k, v)) => {
                    out.values.insert(k.to_owned(), v.to_owned());
                }
                None => out.flags.push(body.to_owned()),
            }
        }
        (out, positionals)
    }

    /// A typed `--key=value`, or `default` if absent.
    ///
    /// # Panics
    /// Panics if the value does not parse as `T`.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        match self.values.get(key) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|e| panic!("--{key}={v}: invalid value ({e:?})")),
            None => default,
        }
    }

    /// Whether a bare `--flag` was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The buffer-pool frame budget for paged stores: `--pool-frames=N`.
    /// `0` means "unbounded" (every page stays resident once read).
    pub fn pool_frames(&self, default: usize) -> usize {
        let frames: usize = self.get("pool-frames", default);
        if frames == 0 {
            usize::MAX
        } else {
            frames
        }
    }

    /// The names of every `--key=value` and bare `--flag` given.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.keys().chain(&self.flags).map(String::as_str)
    }

    /// The raw string of `--key=value`, if present. For options whose mere
    /// presence matters (e.g. `--trace` with an optional `=format`, which
    /// may parse as either a flag or a value).
    pub fn raw(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Overrides `--key=value` programmatically (e.g. re-running an
    /// experiment with a different `--workload`).
    pub fn set(&mut self, key: &str, value: &str) {
        self.values.insert(key.to_owned(), value.to_owned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Options {
        Options::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn parses_values_and_flags() {
        let o = parse(&["--pages=500", "--minsup=0.01", "--full"]);
        assert_eq!(o.get("pages", 0usize), 500);
        assert!((o.get("minsup", 0.0f64) - 0.01).abs() < 1e-12);
        assert!(o.flag("full"));
        assert!(!o.flag("quick"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let o = parse(&[]);
        assert_eq!(o.get("items", 1000usize), 1000);
    }

    #[test]
    #[should_panic(expected = "unexpected argument")]
    fn rejects_positional_arguments() {
        parse(&["positional"]);
    }

    #[test]
    #[should_panic(expected = "invalid value")]
    fn rejects_bad_types() {
        parse(&["--pages=abc"]).get("pages", 0usize);
    }

    #[test]
    fn positional_variant_collects_instead_of_panicking() {
        let (o, pos) = Options::parse_with_positionals(
            ["--trace=folded", "out.folded", "--full", "b.json"]
                .iter()
                .map(|s| (*s).to_owned()),
        );
        assert_eq!(o.raw("trace"), Some("folded"));
        assert!(o.flag("full"));
        assert_eq!(pos, vec!["out.folded".to_owned(), "b.json".to_owned()]);
    }

    #[test]
    fn set_overrides_values() {
        let mut o = parse(&["--workload=regular"]);
        o.set("workload", "skewed");
        assert_eq!(o.raw("workload"), Some("skewed"));
    }
}
