//! Bookkeeping shared by every phase: the correctness ledger, the metric
//! table, order statistics and the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Counts operations and failed checks. Any failed check marks the whole
/// run incorrect and counts toward `failed_ratio`.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Ledger {
    /// Records `n` attempted operations.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records one checked operation; a false `ok` is a failure whose
    /// explanation goes to stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.fail_n(1, what);
    }

    /// Records `n` failures sharing one explanation.
    pub fn fail_n(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.notes.len() < 50 {
            eprintln!("perfbench: check failed: {what}");
            self.notes.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Failed over attempted with add-one smoothing, so a clean run reads
    /// `1 / (attempted + 1)` rather than an exact zero.
    pub fn failed_ratio(&self) -> f64 {
        (self.failed + 1) as f64 / (self.attempted + 1) as f64
    }
}

/// Named metrics with units, in a stable order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_owned(), (value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.values.iter().map(|(k, (v, u))| (k.as_str(), *v, *u))
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile of an unsorted sample (0 for an empty one).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Resets the process's peak resident set size to its current one, so the
/// next `peak_rss_mb` reads the peak since this call. A kernel without the
/// reset leaves the peak of the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[repr(C)]
pub struct Timespec {
    pub tv_sec: i64,
    pub tv_nsec: i64,
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, correctly laid-out timespec and both clock
    // ids exist on Linux.
    unsafe {
        clock_gettime(clock, &mut ts);
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Runs `f` and returns its result with the CPU seconds every other thread
/// of the process used meanwhile: the process's CPU time minus the calling
/// thread's. Time the host steals from the guest is not CPU time.
pub fn cpu_of_others<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let process = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
    let thread = cpu_s(CLOCK_THREAD_CPUTIME_ID);
    let r = f();
    let others =
        (cpu_s(CLOCK_PROCESS_CPUTIME_ID) - process) - (cpu_s(CLOCK_THREAD_CPUTIME_ID) - thread);
    (r, others)
}

/// Hands the allocator's free memory back to the kernel, so a round's peak
/// resident set does not carry what earlier rounds left cached.
pub fn trim_heap() {
    // SAFETY: glibc's `malloc_trim` only releases free heap pages.
    unsafe {
        malloc_trim(0);
    }
}

/// The process's peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
pub fn result_json(ledger: &Ledger, metrics: &Metrics) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ledger.correct(),
        ledger.attempted.max(1),
        ledger.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// SplitMix64: the harness's own input generator, so inputs depend on
/// `--seed` and nothing else.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn clean_ledger_ratio_is_smoothed() {
        let mut l = Ledger::default();
        l.ops(99);
        assert!(l.correct());
        assert_eq!(l.failed_ratio(), 0.01);
    }
}
