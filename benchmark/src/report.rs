//! Metric collection, order statistics and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One named metric value (units live in the metric tables in `main`).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
}

/// Metrics of one run, plus the failure accounting the result line
/// carries.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations issued (requests, drift ticks, builds, runs).
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Oracle mismatches, one line each; any entry fails the run.
    pub mismatches: Vec<String>,
    /// Free-form facts printed before the result line (sample counts,
    /// sizes), as `key=value` pairs.
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64) {
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} set twice"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Notes the windows' medians, rounded, in time order.
    pub fn note_windows(&mut self, key: &str, ws: &[Window]) {
        let v: Vec<String> = ws.iter().map(|w| format!("{:.0}", w.median)).collect();
        self.note(key, v.join(" "));
    }

    /// Records an oracle check; a false `ok` fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The last stdout line: `correct`, `attempted`, `failed` and the
    /// `(name, unit)` metrics of `keep`, in that order. A metric the run
    /// did not set is reported as 0 (its layer did no work here).
    pub fn result_line(&self, keep: &[(&str, &str)]) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for (name, unit) in keep {
            let value = self.get(name).unwrap_or(0.0);
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite JSON number (NaN and infinities become 0, which no
/// metric reports on a healthy run).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// JSON string literal with the minimal escapes.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Nearest-rank quantile of an unsorted sample (`q` in `[0, 1]`);
/// 0 for an empty sample.
pub fn quantile(sample: &[f64], q: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(sample: &[f64]) -> f64 {
    quantile(sample, 0.5)
}

pub fn mean(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        0.0
    } else {
        sample.iter().sum::<f64>() / sample.len() as f64
    }
}

/// Length of the wall-clock windows a steady phase is cut into.
pub const WINDOW: Duration = Duration::from_secs(1);

/// One full window of a steady phase.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub idx: u64,
    pub median: f64,
    pub p99: f64,
    pub count: usize,
}

/// Samples grouped into consecutive [`WINDOW`]s from a common start.
///
/// The host's speed drifts by ±25 % over seconds (co-tenant load), so
/// the service workloads' end-to-end figures are taken from the good
/// phase of a run: the low decile of a latency's window medians, the
/// high decile of a throughput's window rates. Only windows that ran
/// their full length count.
pub struct Windows {
    start: Instant,
    idx: u64,
    cur: Vec<f64>,
    done: Vec<Window>,
}

impl Windows {
    pub fn new(start: Instant) -> Self {
        Self {
            start,
            idx: 0,
            cur: Vec::new(),
            done: Vec::new(),
        }
    }

    fn index(&self, at: Instant) -> u64 {
        (at.saturating_duration_since(self.start).as_nanos() / WINDOW.as_nanos()) as u64
    }

    /// Records a sample completed at `at`.
    pub fn push(&mut self, at: Instant, v: f64) {
        let idx = self.index(at);
        if idx != self.idx {
            self.flush();
            self.idx = idx;
        }
        self.cur.push(v);
    }

    fn flush(&mut self) {
        if !self.cur.is_empty() {
            let w = Window {
                idx: self.idx,
                median: median(&self.cur),
                p99: quantile(&self.cur, 0.99),
                count: self.cur.len(),
            };
            self.done.push(w);
            self.cur.clear();
        }
    }

    /// The full windows of a phase that ended at `end`.
    pub fn finish(mut self, end: Instant) -> Vec<Window> {
        if self.idx < self.index(end) {
            self.flush();
        }
        self.done
    }
}

/// Windows of several recorders of one phase merged by index: counts
/// add up, medians and tails are averaged.
pub fn merge(parts: Vec<Vec<Window>>) -> Vec<Window> {
    let mut by_idx: std::collections::BTreeMap<u64, Vec<Window>> = Default::default();
    for w in parts.into_iter().flatten() {
        by_idx.entry(w.idx).or_default().push(w);
    }
    by_idx
        .into_iter()
        .map(|(idx, ws)| {
            let n = ws.len() as f64;
            Window {
                idx,
                median: ws.iter().map(|w| w.median).sum::<f64>() / n,
                p99: ws.iter().map(|w| w.p99).sum::<f64>() / n,
                count: ws.iter().map(|w| w.count).sum(),
            }
        })
        .collect()
}

/// Share of windows allowed to read better than the reported
/// good-phase figure: the 10th percentile for latencies, the 90th for
/// rates. Above the minimum, so one lucky window does not set it.
const GOOD_PHASE: f64 = 0.10;

/// Good-phase latency: the low decile of the window medians.
pub fn best_low(ws: &[Window]) -> f64 {
    quantile(&ws.iter().map(|w| w.median).collect::<Vec<_>>(), GOOD_PHASE)
}

/// Good-phase throughput: the high decile of the per-window
/// completions per second.
pub fn best_rate(ws: &[Window]) -> f64 {
    let rates: Vec<f64> = ws
        .iter()
        .map(|w| w.count as f64 / WINDOW.as_secs_f64())
        .collect();
    quantile(&rates, 1.0 - GOOD_PHASE)
}

/// Share of an in-process workload's operations allowed to read better
/// than its reported figure. Those operations repeat the same amount of
/// work, so none can beat the host's unloaded speed; a whole run can sit
/// in a slow host phase whose window medians never get there, while
/// single operations still do.
const BEST_RUNS: f64 = 0.01;

/// Best-runs time: the 1st percentile of every operation's time.
pub fn best_runs_low(sample: &[f64]) -> f64 {
    quantile(sample, BEST_RUNS)
}

/// Best-runs rate: the 99th percentile of every operation's rate.
pub fn best_runs_high(sample: &[f64]) -> f64 {
    quantile(sample, 1.0 - BEST_RUNS)
}

/// Median over the windows' medians (printed beside the good-phase figure).
pub fn typical(ws: &[Window]) -> f64 {
    median(&ws.iter().map(|w| w.median).collect::<Vec<_>>())
}

/// Median over the windows' 99th percentiles.
pub fn typical_p99(ws: &[Window]) -> f64 {
    median(&ws.iter().map(|w| w.p99).collect::<Vec<_>>())
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64 step: derives independent per-iteration seeds from the
/// workload seed.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        ^ stream
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn windows_keep_full_windows_only() {
        let t0 = Instant::now();
        let mut w = Windows::new(t0);
        for (ms, v) in [
            (100, 5.0),
            (900, 7.0),
            (1_100, 1.0),
            (1_500, 3.0),
            (2_200, 9.0),
        ] {
            w.push(t0 + Duration::from_millis(ms), v);
        }
        let ws = w.finish(t0 + Duration::from_millis(2_500));
        assert_eq!(ws.len(), 2);
        assert_eq!((ws[0].median, ws[1].median), (5.0, 1.0));
        assert_eq!(best_low(&ws), 1.0);
        assert_eq!(best_rate(&ws), 2.0);
        let s: Vec<f64> = (1..=300).map(f64::from).collect();
        assert_eq!((best_runs_low(&s), best_runs_high(&s)), (3.0, 297.0));
        let merged = merge(vec![ws.clone(), ws]);
        assert_eq!((merged[0].median, merged[0].count), (5.0, 4));
    }

    #[test]
    fn result_line_keeps_only_requested_metrics() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.put("a", 1.5);
        r.put("b", 2.0);
        let line = r.result_line(&[("b", "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"b\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
    }
}
