//! Exact percentiles over raw samples and the window rule.
//!
//! The host drifts between speed regimes that last seconds, so a whole-run
//! mean or median moves with whichever regime a run happened to hit. Every
//! timing metric is therefore computed per fixed-length window, and the run
//! reports a slow window: the 90th percentile of the per-window latencies,
//! and a low quantile of the per-window throughputs that each workload sets.
//!
//! The quantiles follow what the windows showed on a 2-vCPU VM. A
//! single-thread loop's windows jump between a fast and a slow level as the
//! host changes speed, and the slow level is the steadier one from run to
//! run, so latency, and that loop's throughput, take the slowest tenth. The
//! socket loop needs both CPUs, and the host takes one away for seconds at a
//! time; per-window p50 hardly moves then, but throughput halves, so that
//! loop's throughput stops at the lower quartile, above those dips.

use std::time::Duration;

/// Exact nearest-rank percentile of `sorted` (ascending), `q` in `[0, 1]`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Linearly interpolated quantile of unsorted values (used across windows).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// One measurement window, reduced: exact p50/p99, sample count, length.
#[derive(Clone, Copy, Debug)]
pub struct WindowStat {
    pub p50_us: f64,
    pub p99_us: f64,
    pub count: usize,
    pub secs: f64,
}

impl WindowStat {
    pub fn of(mut lat_ns: Vec<u64>, secs: f64) -> WindowStat {
        lat_ns.sort_unstable();
        WindowStat {
            p50_us: percentile(&lat_ns, 0.50) as f64 / 1e3,
            p99_us: percentile(&lat_ns, 0.99) as f64 / 1e3,
            count: lat_ns.len(),
            secs,
        }
    }
}

/// Cuts a phase into whole windows of `width` and reduces each window as
/// soon as the next one starts, so memory holds one window's samples.
/// Samples past the last whole window are dropped.
pub struct Windows {
    n: usize,
    width_s: f64,
    cur: Vec<u64>,
    done: Vec<WindowStat>,
}

impl Windows {
    pub fn new(phase: Duration, width: Duration) -> Windows {
        let width = width.min(phase);
        Windows {
            n: ((phase.as_secs_f64() / width.as_secs_f64()).floor() as usize).max(1),
            width_s: width.as_secs_f64(),
            cur: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Records one latency, placed by its offset `at` into the phase.
    pub fn record(&mut self, at: Duration, lat_ns: u64) {
        let i = (at.as_secs_f64() / self.width_s) as usize;
        if i >= self.n {
            return;
        }
        while self.done.len() < i {
            self.close();
        }
        self.cur.push(lat_ns);
    }

    fn close(&mut self) {
        let lat = std::mem::take(&mut self.cur);
        self.done.push(WindowStat::of(lat, self.width_s));
    }

    pub fn finish(mut self) -> Summary {
        while self.done.len() < self.n {
            self.close();
        }
        Summary::of(&self.done)
    }
}

/// Fewest latencies a window needs for its percentiles to count.
pub const MIN_SAMPLES: usize = 20;

/// Quantile across windows taken for latencies.
pub const LATENCY_Q: f64 = 0.9;

/// Latency and throughput of one phase under the window rule.
#[derive(Clone, Debug)]
pub struct Summary {
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: usize,
    pub windows: Vec<WindowStat>,
}

impl Summary {
    /// The [`LATENCY_Q`] quantile of window p50/p99. Windows with fewer
    /// than [`MIN_SAMPLES`] latencies are skipped.
    pub fn of(windows: &[WindowStat]) -> Summary {
        let timed: Vec<&WindowStat> = windows.iter().filter(|w| w.count >= MIN_SAMPLES).collect();
        Summary {
            p50_us: quantile(
                &timed.iter().map(|w| w.p50_us).collect::<Vec<_>>(),
                LATENCY_Q,
            ),
            p99_us: quantile(
                &timed.iter().map(|w| w.p99_us).collect::<Vec<_>>(),
                LATENCY_Q,
            ),
            samples: windows.iter().map(|w| w.count).sum(),
            windows: windows.to_vec(),
        }
    }

    /// The `q` quantile of window throughput (requests per second).
    pub fn qps(&self, q: f64) -> f64 {
        let per_s: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| w.secs > 0.0)
            .map(|w| w.count as f64 / w.secs)
            .collect();
        quantile(&per_s, q)
    }

    /// One log line with every window's figures.
    pub fn describe(&self, phase: &str) -> String {
        let list = |f: &dyn Fn(&WindowStat) -> f64| {
            self.windows
                .iter()
                .map(|w| format!("{:.0}", f(w)))
                .collect::<Vec<_>>()
                .join(" ")
        };
        format!(
            "# windows {phase} ({} samples): p50_us [{}] p99_us [{}] per_s [{}]",
            self.samples,
            list(&|w| w.p50_us),
            list(&|w| w.p99_us),
            list(&|w| w.count as f64 / w.secs)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn quartiles_interpolate_like_numpy() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&v, 0.75), 3.25);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn window_rule_takes_slow_windows() {
        let fast = WindowStat::of(vec![1_000; 100], 1.0);
        let slow = WindowStat::of(vec![2_000; 50], 1.0);
        let s = Summary::of(&[fast, slow]);
        assert!((s.p50_us - 1.9).abs() < 1e-9);
        assert_eq!(s.qps(0.25), 62.5);
    }

    #[test]
    fn windows_split_by_offset_and_drop_the_tail() {
        let mut w = Windows::new(Duration::from_secs(2), Duration::from_secs(1));
        w.record(Duration::from_millis(100), 10_000);
        w.record(Duration::from_millis(1500), 30_000);
        w.record(Duration::from_millis(1600), 50_000);
        w.record(Duration::from_millis(2100), 99_000);
        let s = w.finish();
        assert_eq!(s.samples, 3);
        assert_eq!(s.windows.len(), 2);
        assert_eq!(s.windows[1].p50_us, 30.0);
    }
}
