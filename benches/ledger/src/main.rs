//! The perf ledger: five end-to-end workloads and a per-layer ladder
//! from domain primitive to HTTP socket, measured from outside the
//! program through its public front door. See `README.md`.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0|1    one run, in this process
//! ledger run [--seed N] [--seconds S] [--traced] [--out F]  every workload, a fresh process each
//! ledger repeat K [--seed N] [--seconds S] [--out F]        K full sets on seeds N, N+1, …
//! ledger compare A.json B.json                              verdict per metric and workload
//! ```

mod drive;
mod http;
mod layers;
mod ledger;
mod names;
mod pin;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage:
  ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
  ledger run [--seed <n>] [--seconds <s>] [--traced] [--out <file>]
  ledger repeat <k> [--seed <n>] [--seconds <s>] [--out <file>]
  ledger compare <parent.json> <change.json>";

/// `--key value` pairs and bare flags, in any order.
struct Flags(Vec<String>);

impl Flags {
    fn value(&mut self, key: &str) -> Result<Option<String>, String> {
        let Some(at) = self.0.iter().position(|a| a == key) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("{key} needs a value"));
        }
        self.0.remove(at);
        Ok(Some(self.0.remove(at)))
    }

    fn number(&mut self, key: &str) -> Result<Option<u64>, String> {
        self.value(key)?
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{key}: '{v}' is not a whole number"))
            })
            .transpose()
    }

    fn flag(&mut self, key: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != key);
        self.0.len() != before
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument '{extra}'")),
        }
    }
}

/// The driver's entry: one workload, in this process.
fn single(mut flags: Flags) -> Result<ExitCode, String> {
    let workload = flags.value("--workload")?.ok_or("--workload is required")?;
    let seed = flags.number("--seed")?.ok_or("--seed is required")?;
    let seconds = flags.number("--seconds")?.ok_or("--seconds is required")?;
    let trace = match flags.number("--trace")?.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace: expected 0 or 1, got {other}")),
    };
    flags.finish()?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let result = drive::run_workload(&workload, seed, seconds, trace)
        .ok_or_else(|| format!("unknown workload '{workload}'"))?;
    println!("# workload {workload}");
    println!("# seed {seed}");
    for (key, value) in &result.info {
        println!("# {key} {value}");
    }
    for (name, value, unit) in &result.metrics {
        println!("{name:<44} {value:>16.4} {unit}");
    }
    let line = serde_json::to_string(&result.to_json()).map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn dispatch() -> Result<ExitCode, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let mut flags = Flags(args.split_off(1));
            let seed = flags.number("--seed")?.unwrap_or(1);
            let seconds = flags.number("--seconds")?;
            let traced = flags.flag("--traced");
            let out = flags.value("--out")?;
            flags.finish()?;
            ledger::run_sets(&[seed], seconds, traced, out.as_deref())
        }
        Some("repeat") => {
            let mut flags = Flags(args.split_off(1));
            if flags.0.is_empty() {
                return Err("repeat needs a count".to_string());
            }
            let count: u64 = flags.0.remove(0).parse().map_err(|_| "repeat: bad count")?;
            let seed = flags.number("--seed")?.unwrap_or(1);
            let seconds = flags.number("--seconds")?;
            let out = flags.value("--out")?;
            flags.finish()?;
            if count == 0 {
                return Err("repeat: count must be at least 1".to_string());
            }
            let seeds: Vec<u64> = (0..count).map(|k| seed.wrapping_add(k)).collect();
            ledger::run_sets(&seeds, seconds, false, out.as_deref())
        }
        Some("compare") => match &args[1..] {
            [parent, change] => ledger::compare(parent, change),
            _ => Err("compare needs two ledger files".to_string()),
        },
        Some(first) if first.starts_with("--") => single(Flags(args)),
        _ => Err(String::new()),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(code) => code,
        Err(why) => {
            if !why.is_empty() {
                eprintln!("ledger: {why}");
            }
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags(args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn flags_come_in_any_order_and_leftovers_are_errors() {
        let mut f = flags(&["--trace", "1", "--seed", "42", "--traced"]);
        assert_eq!(f.number("--seed"), Ok(Some(42)));
        assert_eq!(f.number("--seconds"), Ok(None));
        assert!(f.flag("--traced") && !f.flag("--traced"));
        assert_eq!(f.value("--trace"), Ok(Some("1".to_string())));
        assert!(f.finish().is_ok());
        assert!(flags(&["--sed", "1"]).finish().is_err());
    }

    #[test]
    fn bad_and_missing_values_are_reported() {
        assert!(flags(&["--seed"]).number("--seed").is_err());
        assert!(flags(&["--seed", "x"]).number("--seed").is_err());
        assert!(flags(&["--seed", "-3"]).number("--seed").is_err());
    }

    #[test]
    fn the_single_run_entry_refuses_what_it_cannot_run() {
        assert!(single(flags(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(single(flags(&[
            "--workload",
            "serve-jobs",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(single(flags(&[
            "--workload",
            "serve-jobs",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
        assert!(single(flags(&[
            "--workload",
            "serve-jobs",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
    }
}
