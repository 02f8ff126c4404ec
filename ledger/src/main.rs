//! `ledger` — the repo's one benchmark: one latency ledger from socket
//! to kernel. See README.md beside this file's package for how to run it
//! and read its output; `BENCHMARK.json` at the repo root names it.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one result line
//! ledger run [--seed n] [--runs k] [--seconds s] [--quick] [--out f] every workload, fresh processes
//! ledger check <a.json> <b.json> [--bounds BENCHMARK.json]           compare two result files
//! ledger metrics                                                     the metric registry as Markdown
//! ```

mod check;
mod gen;
mod json;
mod ledger;
mod measure;
mod metrics;
mod pin;
mod probe;
mod report;
mod spec;
mod stack;
mod stamp;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

/// `--name value` pairs and bare words of a command line.
pub struct Args {
    words: Vec<String>,
}

impl Args {
    pub fn value(&self, name: &str) -> Option<&str> {
        let at = self.words.iter().position(|w| w == name)?;
        self.words.get(at + 1).map(String::as_str)
    }

    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name}: cannot read `{text}`")),
        }
    }

    pub fn flag(&self, name: &str) -> bool {
        self.words.iter().any(|w| w == name)
    }

    /// Words that are neither a `--name` nor the value after one.
    pub fn bare(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut skip = false;
        for w in &self.words {
            if skip {
                skip = false;
            } else if w.starts_with("--") {
                skip = w != "--quick";
            } else {
                out.push(w.as_str());
            }
        }
        out
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = Args {
        words: std::env::args().skip(1).collect(),
    };
    let bare = args.bare();
    if bare.first() == Some(&"check") {
        return check::main(&args);
    }
    if bare.first() == Some(&"metrics") {
        metrics::print_tables();
        return Ok(ExitCode::SUCCESS);
    }
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with `cargo run --release`".to_owned());
    }
    match (bare.first().copied(), args.value("--workload")) {
        (Some("run"), _) | (None, None) => report::run_all(&args),
        (None, Some(name)) => report::run_one(name, &args),
        (Some(other), _) => Err(format!(
            "unknown command `{other}` (expected `run`, `check` or `metrics`)"
        )),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}
