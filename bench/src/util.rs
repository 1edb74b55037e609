//! Small measuring tools: order statistics, `/proc` readers for the CPU
//! time and peak memory of this process and its children, pinning to one
//! processor, and the facts about the machine.

use std::fs;

use serde_json::Value;

use crate::reference::Reference;

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on every
/// Linux ABI this runs on).
const USER_HZ: f64 = 100.0;

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite metric"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Distance between the quartiles as a share of the median (0 when there
/// are fewer than four values or the median is 0).
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 4 || m == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / m.abs()
}

/// Operations per second in each whole slice of `slice_s` seconds, from
/// completion times (seconds since the window opened). A trailing partial
/// slice is dropped.
pub fn slice_rates(done_at_s: &[f64], window_s: f64, slice_s: f64) -> Vec<f64> {
    let n = (window_s / slice_s).floor() as usize;
    let mut counts = vec![0u64; n];
    for &t in done_at_s {
        let i = (t / slice_s) as usize;
        if t >= 0.0 && i < n {
            counts[i] += 1;
        }
    }
    counts.iter().map(|&c| c as f64 / slice_s).collect()
}

/// Fields of `/proc/<pid>/stat` after the parenthesised command name
/// (which may itself contain spaces), so index 0 is the state letter.
fn stat_fields(pid: u32) -> Option<Vec<String>> {
    let text = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &text[text.rfind(')')? + 1..];
    Some(rest.split_whitespace().map(str::to_string).collect())
}

/// User + system CPU seconds consumed so far by `pid`, threads that have
/// ended included (0 if it is gone). The kernel samples these at its tick;
/// the scheduler's exact per-thread counters (`/proc/<pid>/task/*/schedstat`)
/// would be better, but they forget a thread when it ends, and the server
/// spawns short-lived threads for every batch it executes.
fn cpu_s_of(pid: u32) -> f64 {
    stat_fields(pid)
        .and_then(|f| Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?))
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// Live direct children of this process (the fabric workers).
pub fn child_pids() -> Vec<u32> {
    let me = std::process::id();
    let Ok(dir) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| {
            stat_fields(pid)
                .and_then(|f| f.get(1)?.parse::<u32>().ok())
                .is_some_and(|ppid| ppid == me)
        })
        .collect()
}

/// CPU seconds consumed so far by this process and by its live children.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSnap {
    pub own_s: f64,
    pub children_s: f64,
}

impl CpuSnap {
    pub fn now() -> Self {
        CpuSnap::of(&child_pids())
    }

    /// As `now`, for a caller that reads often and knows the children:
    /// finding them walks all of `/proc`.
    pub fn of(children: &[u32]) -> Self {
        CpuSnap {
            own_s: cpu_s_of(std::process::id()),
            children_s: children.iter().copied().map(cpu_s_of).sum(),
        }
    }

    /// CPU spent since `earlier`.
    pub fn since(self, earlier: CpuSnap) -> CpuSnap {
        CpuSnap {
            own_s: self.own_s - earlier.own_s,
            children_s: self.children_s - earlier.children_s,
        }
    }

    pub fn total_s(self) -> f64 {
        self.own_s + self.children_s
    }
}

fn vm_hwm_mib(pid: u32) -> f64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Peak resident set of this process plus its live children, MiB, less
/// the reference's buffer, which is the benchmark's and not the system's.
pub fn tree_peak_rss_mib() -> f64 {
    vm_hwm_mib(std::process::id()) + child_pids().into_iter().map(vm_hwm_mib).sum::<f64>()
        - Reference::resident_mib()
}

/// Set in the environment of a process that has pinned itself.
const PINNED_ENV: &str = "PIMDL_BENCH_PINNED";

/// The last processor this process may run on.
fn last_allowed_cpu() -> Option<u32> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    list.trim().rsplit([',', '-']).next()?.parse().ok()
}

/// Re-executes this program under `taskset` on one processor and returns
/// its exit code; `None` in the pinned process itself, or where there is no
/// `taskset`, and the caller carries on.
///
/// Why one processor: the host gives this VM's two virtual CPUs now two
/// hardware threads and now one (two spin loops side by side take 1× or
/// 2× the time of one, for minutes at a time, with no steal time
/// reported), so anything that runs on both measures the host's scheduler.
/// On one processor the client, the reactor, the executors and the worker
/// pool — which sizes itself to the processors allowed — take turns, and
/// capacity is what the code costs.
pub fn pinned_exit_code() -> Option<u8> {
    if std::env::var_os(PINNED_ENV).is_some() {
        return None;
    }
    let cpu = last_allowed_cpu()?;
    let status = std::process::Command::new("taskset")
        .args(["-c", &cpu.to_string()])
        .arg(std::env::current_exe().ok()?)
        .args(std::env::args_os().skip(1))
        .env(PINNED_ENV, "1")
        .status()
        .ok()?;
    // Killed by a signal reads as failure.
    Some(status.code().map_or(1, |c| c as u8))
}

/// Facts about the machine a result was taken on, so a one-core box is
/// never mistaken for a slowdown.
pub fn machine_block() -> Value {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .unwrap_or_default();
    let has = |f: &str| flags.split_whitespace().any(|x| x == f);
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Map(vec![
        ("nproc".into(), Value::UInt(nproc as u64)),
        (
            "pool_threads".into(),
            Value::UInt(pimdl_tensor::pool::WorkerPool::global().threads() as u64),
        ),
        ("avx2".into(), Value::Bool(has("avx2"))),
        ("avx512f".into(), Value::Bool(has("avx512f"))),
        ("kernel".into(), Value::Str(kernel.trim().to_string())),
        ("rustc".into(), Value::Str(rustc)),
    ])
}

/// Deterministic 64-bit mix (splitmix64), for deriving independent seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn slices_drop_the_partial_tail() {
        let rates = slice_rates(&[0.1, 0.2, 1.5, 2.4, -0.1], 2.5, 1.0);
        assert_eq!(rates, vec![2.0, 1.0]);
    }

    #[test]
    fn own_process_is_visible_in_proc() {
        assert!(vm_hwm_mib(std::process::id()) > 0.0);
        assert!(child_pids().is_empty());
    }
}
