//! Pinning the calling thread to one CPU.
//!
//! On the reference host each vCPU flips on its own between a fast and a
//! slow mode (see `measure.rs`). A single-caller workload that stays on
//! one vCPU can spend a whole run in that vCPU's slow mode; alternating
//! rounds between the vCPUs lets the fastest-eighth rule find whichever
//! one is quiet. Pinning moves no code under test: it only tells the
//! scheduler where to run the caller, as `taskset` would.

extern "C" {
    /// glibc's wrapper of the Linux system call (`std` links libc).
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn set_mask(mask: u64) -> bool {
    // SAFETY: pid 0 names the calling thread; `mask` is a live, aligned
    // u64 and `cpusetsize` is exactly its size in bytes, so the kernel
    // reads 8 valid bytes and writes nothing. Failure is reported by the
    // return value and changes nothing.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// Run `f` with the calling thread pinned to `cpu`, then allow it on
/// every CPU again. Threads spawned inside `f` would inherit the pin;
/// the stacks under test spawn theirs at construction, before any round.
pub fn pinned<T>(cpu: usize, f: impl FnOnce() -> T) -> T {
    // Hosts with more than 64 CPUs (or a refusing kernel) run unpinned.
    let pinned = cpu < 64 && set_mask(1 << cpu);
    let out = f();
    if pinned {
        set_mask(u64::MAX);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_for_the_call_and_releases_after() {
        let allowed = || {
            let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
            let line = status
                .lines()
                .find(|l| l.starts_with("Cpus_allowed_list:"))
                .unwrap();
            line.split_whitespace().nth(1).unwrap().to_owned()
        };
        let before = allowed();
        assert_eq!(pinned(0, allowed), "0");
        assert_eq!(allowed(), before);
    }
}
