//! The argv walker every bench binary parses its flags with. Errors are
//! plain strings for the binary to print before exiting 2 ([`or_exit`]);
//! gate failures exit 1 (see [`crate::gate`]).

use std::str::FromStr;

/// Command-line arguments, walked front to back. Iterating yields each
/// flag (or positional); [`Argv::value`] and [`Argv::counts`] then take
/// the current flag's value.
pub struct Argv {
    args: std::vec::IntoIter<String>,
    flag: String,
}

impl Argv {
    /// The process's arguments, program name skipped.
    pub fn from_env() -> Argv {
        Argv::new(std::env::args().skip(1))
    }

    /// Walk an explicit argument list.
    pub fn new<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Argv {
        let args: Vec<String> = args.into_iter().map(Into::into).collect();
        Argv { args: args.into_iter(), flag: String::new() }
    }

    /// The current flag's value, parsed; `what` names it in the error
    /// (`bad {what} `…``).
    pub fn value<T: FromStr>(&mut self, what: &str) -> Result<T, String> {
        let v = self.args.next().ok_or_else(|| format!("{} needs a value", self.flag))?;
        v.parse().map_err(|_| format!("bad {what} `{v}`"))
    }

    /// The current flag's value as a comma-separated list of positive
    /// counts (`1,2,4,8`).
    pub fn counts(&mut self, what: &str) -> Result<Vec<usize>, String> {
        let v: String = self.value(what)?;
        let counts = v
            .split(',')
            .map(|s| s.trim().parse::<usize>().map_err(|_| format!("bad {what} `{s}`")))
            .collect::<Result<Vec<_>, _>>()?;
        if counts.is_empty() || counts.contains(&0) {
            return Err(format!("{} needs positive counts", self.flag));
        }
        Ok(counts)
    }
}

impl Iterator for Argv {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let arg = self.args.next()?;
        self.flag.clone_from(&arg);
        Some(arg)
    }
}

/// The error for an argument no arm matched.
pub fn unknown(arg: &str) -> String {
    format!("unknown argument `{arg}` (try --help)")
}

/// Unwrap parsed arguments, or print the error and exit 2.
pub fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_parse_and_name_the_flag_on_error() {
        let mut argv = Argv::new(["--seed", "x", "--out"]);
        assert_eq!(argv.next().as_deref(), Some("--seed"));
        assert_eq!(argv.value::<u64>("seed"), Err("bad seed `x`".to_string()));
        assert_eq!(argv.next().as_deref(), Some("--out"));
        assert_eq!(argv.value::<String>("path"), Err("--out needs a value".to_string()));
        assert_eq!(argv.next(), None);
    }

    #[test]
    fn counts_reject_zero_and_junk() {
        let mut argv = Argv::new(["--threads", "1, 2,4", "--threads", "1,0", "--threads", "1,a"]);
        argv.next();
        assert_eq!(argv.counts("thread count"), Ok(vec![1, 2, 4]));
        argv.next();
        assert_eq!(argv.counts("thread count"), Err("--threads needs positive counts".into()));
        argv.next();
        assert_eq!(argv.counts("thread count"), Err("bad thread count `a`".into()));
    }
}
