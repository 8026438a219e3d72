//! Hand-rolled argument parsing: `--name value` options, flags, and
//! `node@time` event specifications.

use can_types::BitTime;
use canely_campaign::grammar;
pub use canely_campaign::grammar::parse_duration;
use std::collections::HashMap;
use std::fmt;

/// A parsing/validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error: {}", self.0)
    }
}

impl std::error::Error for ArgError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ArgError> {
    Err(ArgError(msg.into()))
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    command: String,
    subcommand: Option<String>,
    options: HashMap<String, Vec<String>>,
    flags: Vec<String>,
    used: Vec<String>,
}

impl Args {
    /// Parses `argv` (program name excluded).
    ///
    /// # Errors
    ///
    /// Returns an error for a missing command or a dangling option.
    pub fn parse(argv: &[String]) -> Result<Args, ArgError> {
        let mut iter = argv.iter().peekable();
        let Some(command) = iter.next() else {
            return err("missing command");
        };
        let subcommand = iter.next_if(|a| !a.starts_with("--")).cloned();
        let mut options: HashMap<String, Vec<String>> = HashMap::new();
        let mut flags = Vec::new();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return err(format!("unexpected positional argument `{arg}`"));
            };
            match iter.next_if(|a| !a.starts_with("--")) {
                Some(value) => options
                    .entry(name.to_string())
                    .or_default()
                    .push(value.clone()),
                None => flags.push(name.to_string()),
            }
        }
        Ok(Args {
            command: command.clone(),
            subcommand,
            options,
            flags,
            used: Vec::new(),
        })
    }

    /// The command word.
    pub fn command(&self) -> &str {
        &self.command
    }

    /// The optional subcommand word.
    pub fn subcommand(&self) -> Option<&str> {
        self.subcommand.as_deref()
    }

    /// Whether a boolean flag was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let present = self.flags.iter().any(|f| f == name);
        if present {
            self.used.push(name.to_string());
        }
        present
    }

    fn take(&mut self, name: &str) -> Option<Vec<String>> {
        let values = self.options.remove(name);
        if values.is_some() {
            self.used.push(name.to_string());
        }
        values
    }

    /// A free-form string option (e.g. a file path); `None` when the
    /// option was not given.
    pub fn str_opt(&mut self, name: &str) -> Option<String> {
        self.take(name).and_then(|mut values| values.pop())
    }

    /// Option `name` read by one of the grammar's scalar parsers, or
    /// `default` when the option was not given.
    ///
    /// # Errors
    ///
    /// Returns `--name expects WHAT (why)` if the value does not parse.
    pub fn opt<T>(
        &mut self,
        name: &str,
        default: T,
        what: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<T, ArgError> {
        let Some(value) = self.str_opt(name) else {
            return Ok(default);
        };
        parse(&value).map_err(|why| ArgError(format!("--{name} expects {what} ({why})")))
    }

    /// [`Args::opt`] for a value that must not be zero: a zero is
    /// refused as `--name expects WHAT (name must be positive)`.
    pub fn positive_opt<T: Default + PartialEq>(
        &mut self,
        name: &str,
        default: T,
        what: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<T, ArgError> {
        self.opt(name, default, what, |w| match parse(w)? {
            zero if zero == T::default() => Err(format!("{name} must be positive")),
            value => Ok(value),
        })
    }

    /// The `--nodes` population, a node count in `1..=MAX_NODES`;
    /// errors as [`Args::opt`].
    pub fn nodes_opt(&mut self, default: u8) -> Result<u8, ArgError> {
        let what = format!("a node count in 1..={}", can_types::MAX_NODES);
        self.opt("nodes", default, &what, |w| grammar::node_count(w, 1))
    }

    /// The `--workers` count, in `1..=MAX_WORKERS` (default 4); errors
    /// as [`Args::positive_opt`].
    pub fn workers_opt(&mut self) -> Result<usize, ArgError> {
        let max = canely_campaign::MAX_WORKERS;
        let what = format!("a worker count in 1..={max}");
        self.positive_opt("workers", 4, &what, |w| match grammar::number(w)? {
            n if n > max => Err(format!("at most {max} workers")),
            n => Ok(n),
        })
    }

    /// A duration option (`30ms`, `2500us`, or raw bit-times, up to one
    /// simulated hour); errors as [`Args::opt`].
    pub fn duration_opt(&mut self, name: &str, default: BitTime) -> Result<BitTime, ArgError> {
        self.opt(name, default, "a duration like 30ms", parse_duration)
    }

    /// All `node@time` events of a repeatable option, as `(node, at)`.
    ///
    /// # Errors
    ///
    /// Returns an error if any value does not parse.
    pub fn events(&mut self, name: &str) -> Result<Vec<(u8, BitTime)>, ArgError> {
        let values = self.take(name).unwrap_or_default();
        let event = |v: &String| {
            parse_event(v).ok_or_else(|| {
                ArgError(format!(
                    "--{name} expects NODE@TIME (e.g. 3@250ms), got `{v}`"
                ))
            })
        };
        values.iter().map(event).collect()
    }

    /// Fails on unrecognized leftovers so typos surface.
    ///
    /// # Errors
    ///
    /// Returns an error naming the first unknown option or flag.
    pub fn reject_unused(&self) -> Result<(), String> {
        if let Some(name) = self.options.keys().next() {
            return Err(format!("error: unknown option --{name}"));
        }
        if let Some(flag) = self.flags.iter().find(|f| !self.used.contains(f)) {
            return Err(format!("error: unknown flag --{flag}"));
        }
        Ok(())
    }
}

/// Parses `node@time`, e.g. `3@250ms`, as `(node, at)`.
pub fn parse_event(text: &str) -> Option<(u8, BitTime)> {
    grammar::event(text).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_subcommand_options_flags() {
        let mut args = Args::parse(&argv(&[
            "baseline", "osek", "--nodes", "16", "--crash", "3@250ms", "--csv",
        ]))
        .unwrap();
        assert_eq!(args.command(), "baseline");
        assert_eq!(args.subcommand(), Some("osek"));
        assert_eq!(args.nodes_opt(4).unwrap(), 16);
        assert_eq!(
            args.events("crash").unwrap(),
            vec![(3, BitTime::new(250_000))]
        );
        assert!(args.flag("csv"));
        assert!(args.reject_unused().is_ok());
    }

    #[test]
    fn repeatable_events() {
        let mut args = Args::parse(&argv(&[
            "membership",
            "--crash",
            "1@10ms",
            "--crash",
            "2@20ms",
        ]))
        .unwrap();
        let events = args.events("crash").unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].1, BitTime::new(20_000));
    }

    #[test]
    fn durations_accept_all_forms() {
        assert_eq!(parse_duration("30ms"), Ok(BitTime::new(30_000)));
        assert_eq!(parse_duration("2500us"), Ok(BitTime::new(2_500)));
        assert_eq!(parse_duration("1234"), Ok(BitTime::new(1_234)));
        assert!(parse_duration("abc").is_err());
        assert!(parse_duration("3.5ms").is_err(), "fractional not supported");
    }

    #[test]
    fn bad_event_is_rejected() {
        assert_eq!(parse_event("64@10ms"), None, "node out of range");
        assert_eq!(parse_event("3-10ms"), None);
        assert_eq!(parse_event("x@10ms"), None);
    }

    #[test]
    fn unknown_options_surface() {
        let mut args = Args::parse(&argv(&["membership", "--typo", "7"])).unwrap();
        let _ = args.nodes_opt(4);
        assert!(args.reject_unused().is_err());
    }

    #[test]
    fn missing_command_is_an_error() {
        assert!(Args::parse(&[]).is_err());
    }

    #[test]
    fn defaults_apply() {
        let mut args = Args::parse(&argv(&["membership"])).unwrap();
        assert_eq!(args.nodes_opt(4).unwrap(), 4);
        assert_eq!(
            args.duration_opt("tm", BitTime::new(30_000)).unwrap(),
            BitTime::new(30_000)
        );
        assert!(!args.flag("csv"));
    }
}
