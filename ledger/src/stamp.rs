//! Host and validity stamp carried by every output: a number without
//! its host, commit and configuration cannot be compared with anything.

use crate::json::{obj, Json};
use crate::stack;
use std::path::PathBuf;
use std::process::Command;

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_owned())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// 1-minute load average, if the host exposes it.
pub fn load_average() -> Option<f64> {
    read_trimmed("/proc/loadavg")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Commit and dirty flag; "unknown" outside a git checkout (the
/// driver's checkouts are plain directories).
fn commit() -> (String, Json) {
    match command_line("git", &["rev-parse", "HEAD"]) {
        Some(head) if !head.is_empty() => {
            let dirty = command_line("git", &["status", "--porcelain"])
                .map_or(Json::Null, |s| (!s.is_empty()).into());
            (head, dirty)
        }
        _ => ("unknown".to_owned(), Json::Null),
    }
}

pub fn stamp(seed: u64) -> Json {
    let (commit, dirty) = commit();
    obj([
        ("nproc", Json::from(stack::nproc())),
        ("cpu_model", cpu_model().into()),
        (
            "kernel",
            read_trimmed("/proc/sys/kernel/osrelease")
                .unwrap_or_else(|| "unknown".into())
                .into(),
        ),
        ("commit", commit.into()),
        ("dirty", dirty),
        (
            "rustc",
            command_line("rustc", &["--version"])
                .unwrap_or_else(|| "unknown".into())
                .into(),
        ),
        ("configuration", stack::CONFIG.into()),
        ("clients", stack::client_count().into()),
        ("pipeline_depth", stack::PIPELINE_DEPTH.into()),
        ("seed", Json::Num(seed as f64)),
        (
            "load_average_1m",
            load_average().map_or(Json::Null, Json::Num),
        ),
    ])
}

/// Where traces go: `<target dir>/ledger/`, found from the running
/// binary (`<target dir>/release/ledger`), so it is always inside the
/// build directory and never in the source tree.
pub fn artifact_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running binary");
    let profile_dir = exe.parent().expect("binary lives in a directory");
    profile_dir.parent().unwrap_or(profile_dir).join("ledger")
}
