//! Shared std-only flag parsing for the workload binaries (`campaign`,
//! `fleet` and `workload`).
//!
//! Each binary keeps its own config struct and `USAGE` text; this module
//! owns the mechanics they used to duplicate: the flag/value walker, the
//! error-to-usage exit path, and the stub I/O flag group two of them
//! share.
//!
//! A group exposes `try_flag(flag, args) -> Result<bool, String>`: `true`
//! means the group consumed the flag (and any value), `false` means the
//! caller should keep matching.

use legosdn::appvisor::IoMode;
use legosdn::IoConfig;

/// Iterator over `--flag [value]` argument lists, remembering the flag
/// currently being parsed so value errors name it.
pub struct ArgWalker<'a> {
    it: std::slice::Iter<'a, String>,
    current: String,
}

impl<'a> ArgWalker<'a> {
    #[must_use]
    pub fn new(args: &'a [String]) -> Self {
        ArgWalker {
            it: args.iter(),
            current: String::new(),
        }
    }

    /// The next flag, or `None` when the arguments are exhausted.
    pub fn next_flag(&mut self) -> Option<String> {
        let flag = self.it.next().cloned()?;
        self.current.clone_from(&flag);
        Some(flag)
    }

    /// The current flag's value argument.
    pub fn value(&mut self) -> Result<String, String> {
        self.it
            .next()
            .cloned()
            .ok_or_else(|| format!("{} needs a value", self.current))
    }

    /// The current flag's value, parsed; errors are prefixed with the
    /// flag name (`--window: invalid digit ...`).
    pub fn parsed<T: std::str::FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let flag = self.current.clone();
        self.value()?.parse().map_err(|e| format!("{flag}: {e}"))
    }
}

/// Run `parse` over the process arguments; on error print the message
/// (unless empty — the `--help` convention) and `usage`, then exit with
/// 2 (0 for help).
pub fn parse_or_exit<T>(usage: &str, parse: impl FnOnce(&[String]) -> Result<T, String>) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{usage}");
            std::process::exit(i32::from(!msg.is_empty()) * 2);
        }
    }
}

/// `--io-threads N`: the size of the stub-host pool,
/// mirroring [`IoConfig::mode`].
#[derive(Default)]
pub struct IoArgs {
    pub mode: IoMode,
}

impl IoArgs {
    pub fn try_flag(&mut self, flag: &str, args: &mut ArgWalker) -> Result<bool, String> {
        match flag {
            "--io-threads" => {
                let n: usize = args.parsed()?;
                if n == 0 {
                    return Err("--io-threads must be at least 1".into());
                }
                self.mode = IoMode { io_threads: n };
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The equivalent I/O config section (default proxy tuning).
    #[must_use]
    pub fn config(&self) -> IoConfig {
        IoConfig {
            mode: self.mode,
            ..IoConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| (*a).to_string()).collect()
    }

    #[test]
    fn walker_names_the_flag_in_value_errors() {
        let args = argv(&["--window"]);
        let mut w = ArgWalker::new(&args);
        assert_eq!(w.next_flag().as_deref(), Some("--window"));
        assert_eq!(w.value().unwrap_err(), "--window needs a value");
    }

    #[test]
    fn walker_parse_errors_carry_the_flag_prefix() {
        let args = argv(&["--window", "nope"]);
        let mut w = ArgWalker::new(&args);
        w.next_flag();
        let err = w.parsed::<usize>().unwrap_err();
        assert!(err.starts_with("--window: "), "{err}");
    }

    #[test]
    fn zero_counts_are_rejected() {
        let args = argv(&["--io-threads", "0"]);
        let mut w = ArgWalker::new(&args);
        let flag = w.next_flag().unwrap();
        assert!(IoArgs::default().try_flag(&flag, &mut w).is_err());
    }

    #[test]
    fn unknown_flags_are_left_for_the_caller() {
        // `--dispatch` and `--transport` selected paths that no longer
        // exist: no group may still swallow them.
        for name in ["--mystery", "--dispatch", "--transport"] {
            let args = argv(&[name, "pipelined"]);
            let mut w = ArgWalker::new(&args);
            let flag = w.next_flag().unwrap();
            let mut io = IoArgs::default();
            assert!(!io.try_flag(&flag, &mut w).unwrap(), "{name}");
        }
    }
}
