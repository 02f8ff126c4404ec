//! `ledger check <a.json> <b.json>`: compare two result files of
//! `ledger run` with the bounds of `BENCHMARK.json`. `a` is the base
//! (the parent commit, or the first set of the acceptance check), `b`
//! the candidate. One row per (workload, end-to-end metric):
//!
//! * `regressed` — b's median is worse than a's by more than the bound;
//! * `unresolved` — not regressed, but the run-to-run spread (IQR /
//!   median, the wider of the two files) exceeds the bound, so "no
//!   change" cannot be claimed either;
//! * `ok` — otherwise.
//!
//! Counts marked exact repeat exactly for a given seed, so when both
//! files traced the same seed they must be identical. Exits non-zero on
//! any `regressed` row or differing exact count.

use crate::json::Json;
use crate::stats;
use crate::Args;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, PartialEq)]
pub struct Row {
    pub base: f64,
    pub candidate: f64,
    /// Share of the base by which the candidate is worse (negative: better).
    pub worse_by: f64,
    /// `None` with fewer than two runs per file.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

pub fn judge(base: &[f64], candidate: &[f64], higher_is_better: bool, bound: f64) -> Row {
    let (a, b) = (stats::median(base), stats::median(candidate));
    let worse_by = if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    let spread = (base.len() >= 2 && candidate.len() >= 2)
        .then(|| stats::spread(base).max(stats::spread(candidate)));
    let verdict = if worse_by > bound {
        Verdict::Regressed
    } else if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Row {
        base: a,
        candidate: b,
        worse_by,
        spread,
        verdict,
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

pub fn main(args: &Args) -> Result<ExitCode, String> {
    let bare = args.bare();
    let [_, a_path, b_path] = bare[..] else {
        return Err("usage: ledger check <a.json> <b.json> [--bounds BENCHMARK.json]".to_owned());
    };
    let bounds = load(args.value("--bounds").unwrap_or("BENCHMARK.json"))?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (doc, path) in [(&a, a_path), (&b, b_path)] {
        if doc.get("comparable") != Some(&Json::Bool(true)) {
            return Err(format!("{path} is a --quick result: not comparable"));
        }
    }
    let listed = |key: &str| {
        bounds
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("bounds file has no `{key}` list"))
    };
    let text = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap_or("?").to_owned();

    println!(
        "{:<16}{:<16}{:>14}{:>14}{:>10}{:>9}{:>8}  verdict",
        "workload", "metric", "base", "candidate", "worse by", "spread", "bound"
    );
    let seed = |doc: &Json| {
        doc.get("stamp")
            .and_then(|s| s.get("seed"))
            .and_then(Json::as_f64)
    };
    let same_seed = seed(&a).is_some() && seed(&a) == seed(&b);
    let mut bad = 0;
    for workload in listed("workloads")? {
        let workload = text(workload, "name");
        for metric in listed("end_to_end")? {
            let name = text(metric, "name");
            let bound = metric
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let higher = text(metric, "better") == "higher";
            let (Some(base), Some(candidate)) =
                (values(&a, &workload, &name), values(&b, &workload, &name))
            else {
                return Err(format!("{workload}/{name} is missing from a result file"));
            };
            let row = judge(&base, &candidate, higher, bound);
            bad += usize::from(row.verdict == Verdict::Regressed);
            println!(
                "{workload:<16}{name:<16}{:>14.4}{:>14.4}{:>+9.1}%{:>9}{:>7.0}%  {}",
                row.base,
                row.candidate,
                100.0 * row.worse_by,
                row.spread
                    .map_or("n/a".to_owned(), |s| format!("{:.1}%", 100.0 * s)),
                100.0 * bound,
                row.verdict.name()
            );
        }
        if same_seed {
            bad += exact_counts_differ(&a, &b, &workload);
        }
    }
    if !same_seed {
        println!("exact counts not compared: the two files traced different seeds");
    }
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Per-layer counts marked exact must repeat exactly; prints and counts
/// the ones that do not.
fn exact_counts_differ(a: &Json, b: &Json, workload: &str) -> usize {
    let layer = |doc: &Json| {
        doc.get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("per_layer"))
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
    };
    let (Some(a), Some(b)) = (layer(a), layer(b)) else {
        return 0;
    };
    let mut differing = 0;
    for (name, entry) in &a {
        if entry.get("exact") != Some(&Json::Bool(true)) {
            continue;
        }
        let other = b.iter().find(|(n, _)| n == name).map(|(_, e)| e);
        let (x, y) = (entry.get("value"), other.and_then(|e| e.get("value")));
        if x != y {
            differing += 1;
            println!("{workload:<16}{name:<32} exact count differs: {x:?} vs {y:?}  regressed");
        }
    }
    differing
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better: +5 % is inside a 10 % bound, +15 % is not.
        assert_eq!(
            judge(&steady, &[105.0; 5], false, 0.10).verdict,
            Verdict::Ok
        );
        let slow = judge(&steady, &[115.0; 5], false, 0.10);
        assert_eq!(slow.verdict, Verdict::Regressed);
        assert!((slow.worse_by - 0.15).abs() < 1e-9);
        // Higher is better: the same numbers read the other way round.
        assert_eq!(judge(&steady, &[115.0; 5], true, 0.10).verdict, Verdict::Ok);
        assert_eq!(
            judge(&steady, &[85.0; 5], true, 0.10).verdict,
            Verdict::Regressed
        );
        // A spread wider than the bound settles nothing.
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&noisy, &steady, false, 0.10).verdict,
            Verdict::Unresolved
        );
        // One run per file: no spread to speak of.
        let single = judge(&[100.0], &[104.0], false, 0.10);
        assert_eq!((single.spread, single.verdict), (None, Verdict::Ok));
    }
}
