//! Argument parsing shared by the command-line binaries.
//!
//! A bad argument — an unknown flag, a flag missing its value, a value
//! that does not parse — prints the problem and the usage text to
//! stderr and exits with status 2. `--help` (or `-h`) prints the usage
//! to stdout and exits 0. No input makes a binary panic.

use std::fmt::Display;
use std::str::FromStr;

/// The process arguments, consumed flag by flag.
pub struct Cli {
    argv: Vec<String>,
    pos: usize,
    usage: &'static str,
}

impl Cli {
    /// The process arguments (without the program name).
    pub fn from_env(usage: &'static str) -> Cli {
        Cli {
            argv: std::env::args().skip(1).collect(),
            pos: 0,
            usage,
        }
    }

    /// The next flag, or `None` once every argument is consumed. Prints
    /// the usage and exits 0 on `--help` / `-h`.
    pub fn next_flag(&mut self) -> Option<String> {
        let flag = self.argv.get(self.pos)?.clone();
        self.pos += 1;
        if flag == "--help" || flag == "-h" {
            print!("{}", self.usage);
            std::process::exit(0);
        }
        Some(flag)
    }

    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        match self.argv.get(self.pos) {
            Some(v) => {
                self.pos += 1;
                v.clone()
            }
            None => self.fail(format!("{flag} takes a value")),
        }
    }

    /// The value following `flag`, parsed as `T`.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> T {
        let v = self.value(flag);
        v.parse()
            .unwrap_or_else(|_| self.fail(format!("{flag}: cannot parse {v:?}")))
    }

    /// Reports a bad argument with the usage text and exits 2.
    pub fn fail(&self, msg: impl Display) -> ! {
        eprint!("error: {msg}\n\n{}", self.usage);
        std::process::exit(2);
    }
}
