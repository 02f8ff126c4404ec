//! Command-line front: one run of one workload (the driver's contract),
//! and `ledger run`, which runs every workload in a fresh child process
//! and gathers the result file `ledger check` compares.

use crate::json::{obj, Json};
use crate::ledger;
use crate::measure;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probe;
use crate::stack::{self, Fixture};
use crate::stamp;
use crate::trace::LAYERS;
use crate::workload::{self, WORKLOADS};
use crate::Args;
use std::process::{Command, ExitCode, Stdio};

/// `run_seconds` of BENCHMARK.json: how long one run measures.
const DEFAULT_SECONDS: f64 = 24.0;

fn metric(value: f64, unit: &str) -> Json {
    obj([("value", Json::Num(value)), ("unit", unit.into())])
}

/// Set on the runs `ledger run` starts: the parent has already looked at
/// the load average, and what a child would see is its siblings' work.
const CHILD_ENV: &str = "LEDGER_CHILD";

fn warn_if_busy() {
    if std::env::var_os(CHILD_ENV).is_some() {
        return;
    }
    if let Some(load) = stamp::load_average() {
        if load > stack::nproc() as f64 {
            eprintln!(
                "ledger: warning: 1-minute load average {load} exceeds nproc {}: timings will be noisy",
                stack::nproc()
            );
        }
    }
}

/// `ledger --workload W --seed N --seconds S --trace 0|1`: one run. The
/// last line of standard output is the result object; the line before
/// it carries the stamp and the sample counts.
pub fn run_one(name: &str, args: &Args) -> Result<ExitCode, String> {
    let workload = workload::find(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let seed: u64 = args.parsed("--seed", 1)?;
    let seconds: f64 = args.parsed("--seconds", DEFAULT_SECONDS)?;
    let traced = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
    };
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!(
            "--seconds: expected a positive number, got {seconds}"
        ));
    }
    warn_if_busy();

    let cases = workload.population(seed);
    let fixtures: Vec<Fixture<'_>> = cases.iter().map(Fixture::new).collect();
    let mut detail = vec![
        ("workload".to_owned(), Json::from(workload.name)),
        ("trace".to_owned(), traced.into()),
        ("seconds".to_owned(), Json::Num(seconds)),
        ("stamp".to_owned(), stamp::stamp(seed)),
    ];

    let (metrics, attempted, failed) = if traced {
        let mut run = ledger::run(workload, &fixtures, seed, seconds);
        probe::run(seed, &mut run.values, &mut run.tally);
        run.values.insert(
            "ledger.failed_share",
            run.tally.failed as f64 / run.tally.attempted.max(1) as f64,
        );

        let path = stamp::artifact_dir().join(format!("trace-{}.jsonl", workload.name));
        run.recorder
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!(
            "ledger: {}: {} requests traced, {} spans -> {}",
            workload.name,
            run.row.requests,
            run.recorder.spans.len(),
            path.display()
        );
        eprintln!(
            "ledger: {}: top span {:.3} us/request = self time by layer (by subtraction):",
            workload.name,
            run.row.top_us()
        );
        for layer in LAYERS {
            eprintln!(
                "ledger:   {:<8}{:>12.3} us {:>6.1} %",
                layer.name(),
                run.row.self_us(layer),
                100.0 * run.row.share(layer)
            );
        }
        detail.push((
            "ledger_row".to_owned(),
            obj([
                ("requests", Json::from(run.row.requests)),
                ("top_us", run.row.top_us().into()),
                ("balances", run.row.balances().into()),
                (
                    "self_share",
                    obj(LAYERS
                        .iter()
                        .map(|l| (l.name(), Json::Num(run.row.share(*l))))),
                ),
                ("trace_file", path.display().to_string().into()),
                ("rounds_untraced", run.rounds_untraced.into()),
                ("rounds_traced", run.rounds_traced.into()),
            ]),
        ));
        let metrics = PER_LAYER
            .iter()
            .map(|m| {
                let value = *run
                    .values
                    .get(m.name)
                    .unwrap_or_else(|| panic!("traced run did not measure {}", m.name));
                (m.name, metric(value, m.unit))
            })
            .collect::<Vec<_>>();
        (metrics, run.tally.attempted, run.tally.failed)
    } else {
        let e = measure::run(workload, &fixtures, seed, seconds);
        for w in &e.warnings {
            eprintln!("ledger: warning: {}: {w}", workload.name);
        }
        detail.extend([
            ("rounds".to_owned(), Json::from(e.rounds)),
            ("rounds_selected".to_owned(), e.rounds_selected.into()),
            (
                "round_req_per_s".to_owned(),
                Json::Arr(e.round_req_per_s.iter().map(|x| Json::Num(*x)).collect()),
            ),
            ("requests_per_round".to_owned(), e.requests_per_round.into()),
            ("latency_samples".to_owned(), e.latency_samples.into()),
            (
                "warnings".to_owned(),
                Json::Arr(e.warnings.iter().map(|w| w.as_str().into()).collect()),
            ),
        ]);
        let values = [
            e.setup_s,
            e.req_per_s,
            e.lat_p50_us,
            e.lat_p99_us,
            e.cpu_us_per_req,
            e.peak_rss_mb,
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, metric(v, m.unit)))
            .collect::<Vec<_>>();
        (metrics, e.attempted, e.failed)
    };

    println!("{}", obj([("ledger_detail", Json::Obj(detail))]).render());
    println!(
        "{}",
        obj([
            ("correct", Json::from(failed == 0)),
            ("attempted", attempted.into()),
            ("failed", failed.into()),
            ("metrics", obj(metrics)),
        ])
        .render()
    );
    if failed > 0 {
        eprintln!(
            "ledger: {}: {failed} of {attempted} requests failed or answered wrongly",
            workload.name
        );
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

/// The two JSON lines a child run prints.
struct ChildRun {
    detail: Json,
    result: Json,
}

fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .env(CHILD_ENV, "1")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or_else(|| format!("{workload}: the run printed nothing"))?;
    let detail = lines
        .next()
        .ok_or_else(|| format!("{workload}: no detail line"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (seed {seed}): exited with {}: {result}",
            out.status
        ));
    }
    Ok(ChildRun {
        detail: Json::parse(detail)?,
        result: Json::parse(result)?,
    })
}

fn metric_value(run: &ChildRun, name: &str) -> Result<f64, String> {
    run.result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("a run did not report {name}"))
}

/// `ledger run`: every workload, each run in a fresh process. Prints
/// one JSON document (also to `--out`): stamp, then per workload every
/// end-to-end metric (one value per run, and their median) and every
/// per-layer metric of one traced run.
pub fn run_all(args: &Args) -> Result<ExitCode, String> {
    let quick = args.flag("--quick");
    let seed: u64 = args.parsed("--seed", 1)?;
    let runs: u64 = args.parsed("--runs", 1)?.max(1);
    let seconds: f64 = args.parsed("--seconds", if quick { 1.0 } else { DEFAULT_SECONDS })?;
    warn_if_busy();

    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let timed = (0..runs)
            .map(|k| child(w.name, seed + k, seconds, false))
            .collect::<Result<Vec<_>, _>>()?;
        let end_to_end = END_TO_END
            .iter()
            .map(|m| {
                let values = timed
                    .iter()
                    .map(|r| metric_value(r, m.name))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok((
                    m.name,
                    obj([
                        ("unit", Json::from(m.unit)),
                        ("better", m.better.name().into()),
                        ("median", crate::stats::median(&values).into()),
                        (
                            "values",
                            Json::Arr(values.into_iter().map(Json::Num).collect()),
                        ),
                    ]),
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut fields = vec![
            ("why", Json::from(w.why)),
            ("end_to_end", obj(end_to_end)),
            (
                "runs",
                Json::Arr(timed.iter().map(|r| r.detail.clone()).collect()),
            ),
        ];
        // `--quick` skips the traced run: it alone takes longer than the
        // 15 s the quick mode promises.
        if !quick {
            let traced = child(w.name, seed, seconds, true)?;
            let per_layer = PER_LAYER
                .iter()
                .map(|m| {
                    Ok((
                        m.name,
                        obj([
                            ("unit", Json::from(m.unit)),
                            ("layer", m.layer.into()),
                            ("exact", m.exact.into()),
                            ("value", metric_value(&traced, m.name)?.into()),
                        ]),
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?;
            fields.push(("per_layer", obj(per_layer)));
            fields.push(("traced_run", traced.detail));
        }
        workloads.push((w.name, obj(fields)));
    }

    let doc = obj([
        ("ledger", Json::from(1usize)),
        // A quick run is a smoke test: too short to compare with anything.
        ("comparable", (!quick).into()),
        ("stamp", stamp::stamp(seed)),
        ("seconds", seconds.into()),
        ("runs", Json::Num(runs as f64)),
        ("workloads", obj(workloads)),
    ])
    .render();
    if let Some(path) = args.value("--out") {
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!("{doc}");
    Ok(ExitCode::SUCCESS)
}
