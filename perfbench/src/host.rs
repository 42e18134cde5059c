//! Host conditions, read from `/proc` without changing anything: the
//! worker count the run sees, the load average, CPU steal over the run,
//! and the process's resident-set high-water mark.

use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};

/// `(steal, total)` jiffies summed over all CPUs, from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user and nice.
    let steal = *fields.get(7)?;
    let total = fields.iter().take(8).sum();
    Some((steal, total))
}

/// A reading taken at the start of a run; [`Conditions::finish`] turns
/// it into the record printed beside the metrics.
pub struct Start {
    jiffies: Option<(u64, u64)>,
}

pub fn start() -> Start {
    Start {
        jiffies: cpu_jiffies(),
    }
}

impl Start {
    /// The host's conditions over the run, as a JSON object.
    pub fn finish(&self) -> String {
        let nproc = std::thread::available_parallelism().map_or(0, usize::from);
        let load = fs::read_to_string("/proc/loadavg").unwrap_or_default();
        let load: Vec<&str> = load.split_whitespace().take(3).collect();
        let steal_pct = match (self.jiffies, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                format!("{:.3}", 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
            }
            _ => "null".to_owned(),
        };
        format!(
            "{{\"nproc\": {nproc}, \"loadavg\": [{}], \"steal_pct\": {steal_pct}}}",
            load.join(", ")
        )
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f` with one spinning thread per CPU (at most 16) at the lowest
/// scheduling priority, `SCHED_IDLE`, which yields to any other runnable
/// thread at once. An idle virtual CPU halts, and on a shared host each
/// wake-up from a halt waits for the hypervisor: a daemon that sleeps
/// and wakes for every request then reads 40–75% slower whenever other
/// tenants are busy. The spinners keep the CPUs from halting, so that
/// wake-ups stay inside this machine's own scheduler.
pub fn with_idle_spinners<T>(f: impl FnOnce() -> T) -> T {
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    // The flag publishes no other data: Relaxed suffices.
    let stop = AtomicBool::new(false);
    let cpus = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(16);
    std::thread::scope(|s| {
        for _ in 0..cpus {
            s.spawn(|| {
                if lowest_priority() {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                }
            });
        }
        // Stops the spinners even if `f` panics, so the scope can join.
        let _stop = StopOnDrop(&stop);
        f()
    })
}

/// Moves the calling thread to `SCHED_IDLE`; false if that failed, in
/// which case the thread must not spin.
fn lowest_priority() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a valid `struct sched_param` (one int) that
    // outlives the call, and pid 0 names the calling thread, so the call
    // reads only that struct and changes only this thread's policy.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}
