//! The timed run (`--trace 0`): repeated set-up, then fixed-count rounds
//! with tracing off until `--seconds` have been measured.
//!
//! The reference host is a shared 2-vCPU VM that flips, every few
//! seconds, between two speeds about a quarter apart (a single-threaded,
//! deterministic round of `compile_churn` runs at ~3900 or ~3050 req/s
//! and rarely in between — what a busy SMT sibling costs), and the share
//! of time it spends in the fast mode drifts between a tenth and two
//! thirds over minutes. A median over all rounds lands in whichever mode
//! happened to last longer, so two runs of the same binary differ by
//! 25 %. Every metric is therefore taken from the **fastest eighth** of
//! the rounds (by throughput): the host's uncontended periods, which
//! repeat to a few percent. Throughput is the median and CPU the mean over
//! those rounds, latency percentiles are nearest-rank over their pooled
//! samples, and `setup_s` is the median of the fastest eighth of set-ups.

use crate::stack::{Fixture, Round, Tuning};
use crate::stats::{self, micros};
use crate::workload::{Live, Workload};
use std::time::{Duration, Instant};

/// Rounds (and set-ups) that count: the fastest one in this many.
const FASTEST_ONE_IN: usize = 8;

/// Set-ups per run. Only the last one is kept and measured.
const SETUPS: usize = 12;

/// Below this a round is too short for `/proc/self/stat`'s 10 ms ticks.
const SHORT_ROUND: Duration = Duration::from_millis(150);

/// Latency samples the store is sized (and touched) for up front, so
/// the harness's own memory is the same in every run and `peak_rss_mb`
/// moves only with the system's.
const LATENCY_CAPACITY: usize = 1 << 20;

#[derive(Debug)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub req_per_s: f64,
    pub lat_p50_us: f64,
    pub lat_p99_us: f64,
    pub cpu_us_per_req: f64,
    pub peak_rss_mb: f64,
    /// Requests sent, warm-ups included; each one was checked.
    pub attempted: usize,
    pub failed: usize,
    pub rounds: usize,
    pub rounds_selected: usize,
    /// Throughput of each round, in order: how steady the host was.
    pub round_req_per_s: Vec<f64>,
    pub requests_per_round: usize,
    pub latency_samples: usize,
    pub warnings: Vec<String>,
}

/// Totals over every request a run sends.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
}

impl Tally {
    pub fn count(&mut self, sent: usize, round: &Round) {
        self.attempted += sent;
        self.failed += round.failed;
    }

    /// One request outside a round.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }
}

/// The median of the lowest eighth of `values` (at least one value).
fn fastest_eighth(values: &[f64]) -> f64 {
    let sorted = stats::sorted(values.to_vec());
    stats::median(&sorted[..values.len().div_ceil(FASTEST_ONE_IN)])
}

/// A series of rounds: per-round throughput and CPU, and every latency
/// sample with the round it belongs to.
#[derive(Debug)]
pub struct Rounds {
    pub req_per_s: Vec<f64>,
    pub cpu_us_per_req: Vec<f64>,
    pub wall: Vec<Duration>,
    /// Latencies in nanoseconds, round after round.
    latency_ns: Vec<u32>,
    /// `latency_ns[ends[k-1]..ends[k]]` belongs to round `k`.
    ends: Vec<usize>,
}

/// What the fastest eighth of a series of rounds measured.
#[derive(Debug)]
pub struct Summary {
    pub req_per_s: f64,
    pub cpu_us_per_req: f64,
    /// Pooled over the selected rounds, µs, ascending.
    pub latencies_us: Vec<f64>,
    pub rounds_selected: usize,
}

impl Rounds {
    pub fn summary(&self) -> Summary {
        let mut by_speed: Vec<usize> = (0..self.req_per_s.len()).collect();
        by_speed.sort_by(|a, b| self.req_per_s[*b].total_cmp(&self.req_per_s[*a]));
        by_speed.truncate(self.req_per_s.len().div_ceil(FASTEST_ONE_IN));
        let pick = |values: &[f64]| by_speed.iter().map(|&k| values[k]).collect::<Vec<_>>();
        let mut latencies_us: Vec<f64> = by_speed
            .iter()
            .flat_map(|&k| {
                let begin = if k == 0 { 0 } else { self.ends[k - 1] };
                &self.latency_ns[begin..self.ends[k]]
            })
            .map(|&ns| f64::from(ns) / 1e3)
            .collect();
        latencies_us.sort_by(f64::total_cmp);
        Summary {
            req_per_s: stats::median(&pick(&self.req_per_s)),
            // The mean, not the median: `/proc/self/stat` counts in 10 ms
            // ticks, so one round's value moves in coarse steps and the
            // median of a few would read the same from run to run.
            cpu_us_per_req: stats::mean(&pick(&self.cpu_us_per_req)),
            latencies_us,
            rounds_selected: by_speed.len(),
        }
    }
}

/// Run rounds of `order` until `seconds` have been measured (at least one).
pub fn run_rounds(live: &mut Live<'_>, order: &[usize], seconds: f64, tally: &mut Tally) -> Rounds {
    // Filled with ones, not zeros: zeroed pages are not resident until
    // written, and the point is to own the memory before measuring.
    let mut latency_ns = vec![1u32; LATENCY_CAPACITY];
    latency_ns.clear();
    let mut out = Rounds {
        req_per_s: Vec::new(),
        cpu_us_per_req: Vec::new(),
        wall: Vec::new(),
        latency_ns,
        ends: Vec::new(),
    };
    let begun = Instant::now();
    while out.wall.is_empty() || begun.elapsed().as_secs_f64() < seconds {
        let cpu_before = stats::process_cpu_time();
        let started = Instant::now();
        let round = live.round(order, out.wall.len());
        let wall = started.elapsed();
        let cpu = stats::process_cpu_time().saturating_sub(cpu_before);
        tally.count(order.len(), &round);
        // Only requests that completed with a correct result count.
        let done = round.latencies.len();
        out.req_per_s.push(done as f64 / wall.as_secs_f64());
        out.cpu_us_per_req.push(micros(cpu) / done.max(1) as f64);
        out.wall.push(wall);
        out.latency_ns.extend(
            round
                .latencies
                .iter()
                .map(|d| u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)),
        );
        out.ends.push(out.latency_ns.len());
    }
    out
}

pub fn run(workload: &Workload, fixtures: &[Fixture<'_>], seed: u64, seconds: f64) -> EndToEnd {
    let tuning = Tuning::default();
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for _ in 0..SETUPS {
        if let Some(old) = live.take() {
            Live::tear_down(old);
        }
        let begun = Instant::now();
        let (fresh, warm) = workload.set_up(fixtures, &tuning, seed);
        setups.push(begun.elapsed().as_secs_f64());
        tally.count(warm.latencies.len() + warm.failed, &warm);
        live = Some(fresh);
    }
    let mut live = live.expect("at least one set-up");

    let order = workload.round_order(seed);
    let rounds = run_rounds(&mut live, &order, seconds, &mut tally);
    live.tear_down();
    let summary = rounds.summary();

    let mut warnings = Vec::new();
    let typical = Duration::from_secs_f64(stats::median(
        &rounds
            .wall
            .iter()
            .map(Duration::as_secs_f64)
            .collect::<Vec<_>>(),
    ));
    if typical < SHORT_ROUND {
        warnings.push(format!(
            "a round of {} requests took {typical:?}: counts are too small for this host, CPU time is coarse",
            order.len()
        ));
    }
    if summary.latencies_us.is_empty() {
        // Nothing completed: report the failure, not a division by zero.
        warnings.push("no request completed correctly".to_owned());
    }
    let pct = |q| {
        if summary.latencies_us.is_empty() {
            0.0
        } else {
            stats::percentile(&summary.latencies_us, q)
        }
    };
    EndToEnd {
        setup_s: fastest_eighth(&setups),
        req_per_s: summary.req_per_s,
        lat_p50_us: pct(0.50),
        lat_p99_us: pct(0.99),
        cpu_us_per_req: summary.cpu_us_per_req,
        peak_rss_mb: stats::peak_rss_mib(),
        attempted: tally.attempted,
        failed: tally.failed,
        rounds: rounds.wall.len(),
        rounds_selected: summary.rounds_selected,
        round_req_per_s: rounds.req_per_s.clone(),
        requests_per_round: order.len(),
        latency_samples: summary.latencies_us.len(),
        warnings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fastest_rounds_ignore_the_hosts_slow_mode() {
        // Two host speeds, the slow one lasting longer.
        let rounds = Rounds {
            req_per_s: vec![
                3000.0, 3900.0, 3050.0, 3020.0, 3010.0, 3040.0, 3950.0, 3030.0, 3060.0,
            ],
            cpu_us_per_req: vec![
                330.0, 256.0, 328.0, 331.0, 332.0, 329.0, 254.0, 330.0, 327.0,
            ],
            wall: vec![Duration::from_millis(500); 9],
            latency_ns: vec![
                330_000, 331_000, 250_000, 252_000, 329_000, 333_000, 334_000, 335_000, 336_000,
                337_000, 338_000, 339_000, 248_000, 249_000, 340_000, 341_000, 342_000, 343_000,
            ],
            ends: vec![2, 4, 6, 8, 10, 12, 14, 16, 18],
        };
        let s = rounds.summary();
        assert_eq!(s.rounds_selected, 2);
        assert_eq!(s.req_per_s, 3925.0);
        assert_eq!(s.cpu_us_per_req, 255.0);
        assert_eq!(s.latencies_us, [248.0, 249.0, 250.0, 252.0]);

        let setups = [0.2, 0.26, 0.21, 0.27, 0.25, 0.19, 0.26, 0.27, 0.28];
        assert_eq!(fastest_eighth(&setups), 0.195);
        assert_eq!(fastest_eighth(&[5.0]), 5.0);
    }
}
