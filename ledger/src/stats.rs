//! Order statistics and the `/proc` readers behind the CPU and memory
//! metrics.

use std::time::Duration;

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q` of the sample at or below it (rank ⌈q·n⌉,
/// 1-based). Always a value that was observed, never an interpolation.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Middle value (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method) — the acceptance check and
/// `ledger check` must agree with the driver's arithmetic.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let s = sorted(values.to_vec());
    let n = s.len();
    let at = |k: usize| {
        // Position k·(n+1)/4, 1-based, clamped into the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Kernel clock ticks per second for `/proc/self/stat`. `sysconf` is
/// out of reach without libc; every Linux the repo targets reports 100.
const CLK_TCK: f64 = 100.0;

/// User + system CPU time from the text of `/proc/<pid>/stat`.
pub fn parse_cpu_time(stat: &str) -> Option<Duration> {
    // The command name (field 2) may hold spaces and parentheses; the
    // numeric fields start after the *last* ')'. utime and stime are
    // fields 14 and 15, i.e. 12th and 13th after the command.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(Duration::from_secs_f64((utime + stime) / CLK_TCK))
}

/// CPU time this process has used so far, all threads.
pub fn process_cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_time(&stat).expect("utime and stime in /proc/self/stat")
}

/// Peak resident set (`VmHWM`) in MiB from the text of `/proc/<pid>/status`.
pub fn parse_peak_rss_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_peak_rss_mib(&status).expect("VmHWM in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.99), 10.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 0.91), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        // The legacy floor-index pick, q·(n−1), gives 4 and 9 here.
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 0.5), 50.0);
    }

    #[test]
    fn median_and_quartiles_match_pythons_statistics_module() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parses_proc_stat_with_an_awkward_command_name() {
        let stat = "4242 (led ger) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 \
                    250 50 0 0 20 0 3 0 12345 1000000 500 18446744073709551615";
        assert_eq!(parse_cpu_time(stat), Some(Duration::from_secs(3)));
        assert_eq!(parse_cpu_time("garbage"), None);
        assert!(process_cpu_time() < Duration::from_secs(3600));
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tledger\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_peak_rss_mib(status), Some(2.0));
        assert_eq!(parse_peak_rss_mib("Name:\tx\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }
}
