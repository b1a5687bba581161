//! Exact sample statistics and the result line.
//!
//! Quantiles come from the sorted raw samples (linear interpolation
//! between the two closest ranks), never from bucketed histograms.

use std::fmt::Write as _;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending slice; `NaN` when
/// empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts `v` and returns its median; `NaN` when empty.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(v, 0.5)
}

/// Reads a Linux CPU-time clock in nanoseconds; `None` where it cannot
/// be read.
fn clock_ns(clock: i32) -> Option<u64> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `clock_gettime` writes one `struct timespec` through
        // the pointer and nothing else; `ts` is a live value of that
        // layout (two 64-bit fields on 64-bit Linux). An unknown clock
        // id makes it return -1 without writing.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        (rc == 0).then(|| ts.sec as u64 * 1_000_000_000 + ts.nsec as u64)
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        let _ = clock;
        None
    }
}

/// A reading of the process CPU clock (`CLOCK_PROCESS_CPUTIME_ID`): CPU
/// time used so far by every thread of the process, kernel time
/// included, exited threads too.
///
/// The timing metrics are read on CPU clocks, not on the wall clock. On
/// a virtual machine whose host is shared, the wall time of the same
/// work doubles when the host is busy; a CPU clock does not run while a
/// thread waits for a CPU, whether behind another task in the guest or
/// while the host runs another guest (Linux leaves stolen time out of a
/// task's run time). What it counts is the program's own work.
#[derive(Clone, Copy)]
pub struct Cpu(Option<u64>);

impl Cpu {
    pub fn now() -> Cpu {
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        Cpu(clock_ns(CLOCK_PROCESS_CPUTIME_ID))
    }

    /// CPU nanoseconds since the reading `start`; `NaN` (which fails the
    /// run) where the clock cannot be read.
    pub fn since(&self, start: Cpu) -> f64 {
        match (start.0, self.0) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64,
            _ => f64::NAN,
        }
    }
}

/// The CPU clocks of the threads this process has now, read as one sum.
///
/// The process clock is exact only for the thread that reads it: the
/// time of a thread running on another CPU is added when that thread
/// next leaves its CPU, so a batch's worker time would land in a later
/// batch. A thread's own clock is brought up to date when read, so the
/// sum over the threads' clocks is the CPU time of the caller and every
/// worker at the moment of reading.
pub struct ThreadClocks(Vec<i32>);

impl ThreadClocks {
    /// The clocks of every thread of the process (from `/proc/self/task`);
    /// empty where they cannot be listed.
    pub fn of_process() -> ThreadClocks {
        let tids = std::fs::read_dir("/proc/self/task")
            .into_iter()
            .flatten()
            .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok());
        // The clock id of thread `tid`, as glibc's
        // `pthread_getcpuclockid` makes it: `~tid << 3`, per-thread
        // flag 4, scheduler clock 2.
        ThreadClocks(tids.map(|tid| (((!tid) << 3) | 6) as i32).collect())
    }

    /// The summed CPU time of the threads in nanoseconds; `None` if there
    /// are none or one cannot be read (it has exited).
    pub fn read(&self) -> Option<u64> {
        if self.0.is_empty() {
            return None;
        }
        self.0.iter().map(|&c| clock_ns(c)).sum()
    }

    /// CPU nanoseconds since the reading `start`; `NaN` (which fails the
    /// run) where either reading failed.
    pub fn since(&self, start: Option<u64>) -> f64 {
        match (start, self.read()) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64,
            _ => f64::NAN,
        }
    }
}

/// A set of CPUs as the kernel's `cpu_set_t` (1024 bits).
type CpuMask = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
}

/// The CPUs the calling thread may run on, ascending; empty where they
/// cannot be read.
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: the kernel writes at most `size_of::<CpuMask>()` bytes
        // into `mask`, a live value of that size; pid 0 is this thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) };
        if rc == 0 {
            return (0..1024)
                .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect();
        }
    }
    Vec::new()
}

/// Restricts the calling thread to `cpus`; returns whether it could.
pub fn run_on(cpus: &[usize]) -> bool {
    #[cfg(target_os = "linux")]
    {
        let mut mask: CpuMask = [0; 16];
        for &c in cpus.iter().filter(|&&c| c < 1024) {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: the kernel reads `size_of::<CpuMask>()` bytes from
        // `mask`, a live value of that size; pid 0 is this thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), &mask) };
        return rc == 0;
    }
    #[allow(unreachable_code)]
    {
        let _ = cpus;
        false
    }
}

/// Holds the calling thread to the `turn`-th of `cpus`, counting round
/// and round; does nothing when `cpus` is empty.
pub fn take_turn(cpus: &[usize], turn: usize) {
    if !cpus.is_empty() {
        run_on(&[cpus[turn % cpus.len()]]);
    }
}

/// Runs `f` once; returns its result and the process CPU seconds it
/// took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Cpu::now();
    let r = f();
    (r, Cpu::now().since(t) / 1e9)
}

/// The median set-up time of a run: the time of its first set-up
/// (`first`, the one it measured with) and of more set-ups run now, each
/// dropped at once, until there are at least `SETUP_MIN` and either
/// `SETUP_BUDGET_S` seconds are spent or there are `SETUP_MAX`. A run
/// calls this after its measured phase: building and freeing several
/// set-ups before it would leave a heap that slows the measured phase
/// itself. Returns the median and the number of set-ups.
pub fn setup_median<T>(first: f64, mut setup: impl FnMut() -> T) -> (f64, usize) {
    const SETUP_MIN: usize = 5;
    const SETUP_MAX: usize = 41;
    const SETUP_BUDGET_S: f64 = 2.0;
    let mut times = vec![first];
    loop {
        let spent: f64 = times.iter().sum();
        if times.len() >= SETUP_MAX || (times.len() >= SETUP_MIN && spent >= SETUP_BUDGET_S) {
            let n = times.len();
            return (median(&mut times), n);
        }
        times.push(timed(&mut setup).1);
    }
}

/// Batches a run times at least (it runs past its deadline until then),
/// so that at least 10 samples lie beyond the p99.
pub const MIN_BATCHES: usize = 1000;

/// Batch-cost summary of a closed loop, over all of the run's raw
/// samples. Whole-run figures do not depend on how many batches a
/// faster or slower program managed.
pub struct BatchSummary {
    /// Items per second of batch time: `batch` over the mean batch time.
    pub per_s: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

/// Summarises batch costs (µs) of batches of `batch` items.
pub fn summarize(batch_us: &[f64], batch: usize) -> BatchSummary {
    let mut sorted = batch_us.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mean_us = sorted.iter().sum::<f64>() / sorted.len() as f64;
    BatchSummary {
        per_s: batch as f64 * 1e6 / mean_us,
        p50: quantile(&sorted, 0.5),
        p90: quantile(&sorted, 0.9),
        p99: quantile(&sorted, 0.99),
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `NaN`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line["VmHWM:".len()..]
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Queries (or packets) attempted.
    pub attempted: u64,
    /// Attempts that errored, failed a check, or were not delivered.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Run facts that are not metrics: seed, sample counts,
    /// `available_parallelism` and the workload's input properties.
    pub facts: Vec<(&'static str, String)>,
    /// First failed check, for the error report.
    pub first_error: Option<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn fact(&mut self, name: &'static str, value: impl ToString) {
        self.facts.push((name, value.to_string()));
    }

    /// Records a failed check (the first one is kept for the report).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_error.get_or_insert(what);
    }

    /// The facts as one JSON object.
    pub fn facts_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in self.facts.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let val = if v.parse::<f64>().is_ok_and(f64::is_finite) {
                v.clone()
            } else {
                format!("\"{}\"", escape(v))
            };
            let _ = write!(s, "{sep}\"{k}\": {val}");
        }
        s.push('}');
        s
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite number in full precision; non-finite values become `null`
/// (and fail the run, see `main`).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_on_sorted_samples() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 51.0);
        assert_eq!(quantile(&v, 0.99), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 101.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert!(quantile(&[], 0.5).is_nan());
        let mut w = vec![3.0, 1.0, 2.0, 10.0];
        assert_eq!(median(&mut w), 2.5);
    }

    #[test]
    fn summary_reads_the_whole_run() {
        let s = summarize(&vec![10.0; MIN_BATCHES], 64);
        assert_eq!((s.p50, s.p90, s.p99), (10.0, 10.0, 10.0));
        assert!((s.per_s - 6.4e6).abs() < 1e-6);
        // 101 samples 1..=101 µs in any order: p50 51, p90 91, p99 100,
        // mean 51.
        let v: Vec<f64> = (1..=101).rev().map(f64::from).collect();
        let s = summarize(&v, 51);
        assert_eq!((s.p50, s.p90, s.p99), (51.0, 91.0, 100.0));
        assert!((s.per_s - 1e6).abs() < 1e-6);
        // The estimate does not move as the run grows: twice the samples
        // in the same proportions give the same figures.
        let mut w = Vec::new();
        for _ in 0..2 * MIN_BATCHES / 100 {
            w.extend(vec![10.0; 98]);
            w.extend(vec![50.0; 2]);
        }
        let (a, b) = (summarize(&w[..MIN_BATCHES], 64), summarize(&w, 64));
        assert_eq!(
            (a.p50, a.p90, a.p99, a.per_s),
            (b.p50, b.p90, b.p99, b.per_s)
        );
    }

    #[test]
    fn a_thread_can_be_held_to_one_cpu_and_let_go() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        assert!(run_on(&cpus[1 % cpus.len()..][..1]));
        assert_eq!(allowed_cpus(), [cpus[1 % cpus.len()]]);
        assert!(run_on(&cpus));
        assert_eq!(allowed_cpus(), cpus);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("setup_s", 0.25, "s");
        o.metric("x", f64::NAN, "us");
        assert_eq!(
            o.result_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"x\": {\"value\": null, \"unit\": \"us\"}}}"
        );
        o.fact("seed", 7);
        o.fact("workload", "serve_hot");
        assert_eq!(o.facts_json(), "{\"seed\": 7, \"workload\": \"serve_hot\"}");
    }
}
