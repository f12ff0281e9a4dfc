//! Shared std-only flag parsing for the workload binaries (`campaign`
//! and `fleet`).
//!
//! Each binary keeps its own config struct and `USAGE` text; this module
//! owns the mechanics they used to duplicate: the flag/value walker, the
//! error-to-usage exit path, and typed groups per flag family (ops
//! endpoint, dispatch shape, stub I/O).
//!
//! A group exposes `try_flag(flag, args) -> Result<bool, String>`: `true`
//! means the group consumed the flag (and any value), `false` means the
//! caller should keep matching. Binaries chain the groups first and
//! handle their own flags in the `false` arm.

use std::net::SocketAddr;

use legosdn::appvisor::IoMode;
use legosdn::{DispatchConfig, IoConfig};

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

/// `--addr HOST:PORT` / `--addr-file PATH`: where a daemon serves its
/// ops endpoint, and where to write the bound address for scripts (the
/// `--addr ...:0` ephemeral-port dance).
pub struct EndpointArgs {
    pub addr: SocketAddr,
    pub addr_file: Option<String>,
}

impl EndpointArgs {
    /// Loopback on `port` with no address file.
    #[must_use]
    pub fn on_port(port: u16) -> Self {
        EndpointArgs {
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
            addr_file: None,
        }
    }

    pub fn try_flag(&mut self, flag: &str, args: &mut ArgWalker) -> Result<bool, String> {
        match flag {
            "--addr" => self.addr = args.parsed()?,
            "--addr-file" => self.addr_file = Some(args.value()?),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// `--window DEPTH` / `--workers N` / `--lookahead CYCLES`: the
/// runtime's dispatch shape, mirroring [`DispatchConfig`].
pub struct DispatchArgs {
    pub window: usize,
    pub workers: usize,
    pub lookahead: usize,
}

impl Default for DispatchArgs {
    fn default() -> Self {
        let d = DispatchConfig::default();
        DispatchArgs {
            window: d.window.depth,
            workers: d.workers,
            lookahead: d.lookahead_cycles,
        }
    }
}

impl DispatchArgs {
    pub fn try_flag(&mut self, flag: &str, args: &mut ArgWalker) -> Result<bool, String> {
        match flag {
            "--window" => {
                self.window = args.parsed()?;
                if self.window == 0 {
                    return Err("--window must be at least 1".into());
                }
            }
            "--workers" => {
                self.workers = args.parsed()?;
                if self.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--lookahead" => {
                self.lookahead = args.parsed()?;
                if self.lookahead == 0 {
                    return Err("--lookahead must be at least 1".into());
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The equivalent dispatch config section.
    #[must_use]
    pub fn config(&self) -> DispatchConfig {
        DispatchConfig::default()
            .window(self.window)
            .workers(self.workers)
            .lookahead(self.lookahead)
    }
}

/// `--io-threads N`: the size of the stub-host (and poll) pool,
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
    fn dispatch_group_consumes_its_flags_and_builds_the_section() {
        let args = argv(&[
            "--window",
            "8",
            "--workers",
            "4",
            "--lookahead",
            "2",
            "--other",
        ]);
        let mut w = ArgWalker::new(&args);
        let mut d = DispatchArgs::default();
        while let Some(flag) = w.next_flag() {
            if flag == "--other" {
                break;
            }
            assert!(d.try_flag(&flag, &mut w).unwrap(), "{flag} not consumed");
        }
        let cfg = d.config();
        assert_eq!(cfg.window.depth, 8);
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.lookahead_cycles, 2);
    }

    #[test]
    fn zero_counts_are_rejected() {
        for flags in [
            ["--window", "0"],
            ["--workers", "0"],
            ["--lookahead", "0"],
            ["--io-threads", "0"],
        ] {
            let args = argv(&flags);
            let mut w = ArgWalker::new(&args);
            let flag = w.next_flag().unwrap();
            let mut d = DispatchArgs::default();
            let mut io = IoArgs::default();
            let res = if flag == "--io-threads" {
                io.try_flag(&flag, &mut w)
            } else {
                d.try_flag(&flag, &mut w)
            };
            assert!(res.is_err(), "{flag} 0 accepted");
        }
    }

    #[test]
    fn endpoint_group_parses_addr_and_file() {
        let args = argv(&["--addr", "127.0.0.1:0", "--addr-file", "/tmp/x"]);
        let mut w = ArgWalker::new(&args);
        let mut e = EndpointArgs::on_port(9999);
        while let Some(flag) = w.next_flag() {
            assert!(e.try_flag(&flag, &mut w).unwrap());
        }
        assert_eq!(e.addr.port(), 0);
        assert_eq!(e.addr_file.as_deref(), Some("/tmp/x"));
    }

    #[test]
    fn unknown_flags_are_left_for_the_caller() {
        // `--dispatch` and `--transport` selected paths that no longer
        // exist: no group may still swallow them.
        for name in ["--mystery", "--dispatch", "--transport"] {
            let args = argv(&[name, "pipelined"]);
            let mut w = ArgWalker::new(&args);
            let flag = w.next_flag().unwrap();
            let mut e = EndpointArgs::on_port(1);
            let mut d = DispatchArgs::default();
            let mut io = IoArgs::default();
            assert!(!e.try_flag(&flag, &mut w).unwrap(), "{name}");
            assert!(!d.try_flag(&flag, &mut w).unwrap(), "{name}");
            assert!(!io.try_flag(&flag, &mut w).unwrap(), "{name}");
        }
    }
}
