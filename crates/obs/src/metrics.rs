//! Rolling-window serve metrics: a fixed-capacity ring of per-request
//! samples powering windowed latency quantiles, throughput, and
//! error-rate gauges.
//!
//! The resident service records one [`RequestSample`] per completed
//! request into a [`RollingWindow`]. A [`MetricsSnapshot`] is computed
//! on demand (for the `metrics` wire command) from the samples whose
//! completion time falls inside the configured window, so the gauges
//! track *recent* behavior rather than lifetime averages — a server
//! that was slow an hour ago and is fast now reports fast.
//!
//! Everything here is a gauge over wall-clock measurements. Snapshots
//! are **never** part of [`RunReport`](crate::RunReport)s, so the
//! deterministic surfaces stay byte-stable while these numbers move
//! with the machine.
//!
//! Timestamps are plain microsecond offsets from an epoch the caller
//! chooses (the server uses its start instant), which keeps the math
//! pure and exactly testable: feed a known sequence, get known
//! quantiles.

use crate::json::Json;
use std::collections::VecDeque;

/// One completed request, as observed by the admission-to-response
/// timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSample {
    /// Completion time, microseconds since the window's epoch.
    pub end_micros: u64,
    /// Admission-to-response latency in microseconds.
    pub latency_micros: u64,
    /// Whether the response was `ok` (errors still carry a latency).
    pub ok: bool,
}

/// Fixed-capacity ring of recent [`RequestSample`]s plus lifetime
/// totals.
///
/// `record` is O(1); `snapshot` is O(n log n) in the number of retained
/// samples (a sort for exact quantiles), which is bounded by the
/// capacity — cheap at the hundreds-to-thousands scale a serve window
/// uses.
#[derive(Debug)]
pub struct RollingWindow {
    capacity: usize,
    window_micros: u64,
    samples: VecDeque<RequestSample>,
    total_requests: u64,
    total_errors: u64,
    evicted: u64,
}

impl RollingWindow {
    /// A window retaining at most `capacity` samples, with gauges
    /// computed over the trailing `window_micros` microseconds.
    ///
    /// A zero `capacity` or window is clamped to 1 so the ring always
    /// holds the latest sample and snapshots never divide by zero.
    pub fn new(capacity: usize, window_micros: u64) -> RollingWindow {
        RollingWindow {
            capacity: capacity.max(1),
            window_micros: window_micros.max(1),
            samples: VecDeque::new(),
            total_requests: 0,
            total_errors: 0,
            evicted: 0,
        }
    }

    /// The configured sample capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured window length in microseconds.
    pub fn window_micros(&self) -> u64 {
        self.window_micros
    }

    /// Requests ever recorded (lifetime, not windowed).
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }

    /// Error responses ever recorded (lifetime).
    pub fn total_errors(&self) -> u64 {
        self.total_errors
    }

    /// Records one completed request. Oldest samples are evicted once
    /// the ring is full (counted in [`MetricsSnapshot::evicted`], so a
    /// window that outlives its capacity is visible as such).
    pub fn record(&mut self, sample: RequestSample) {
        self.total_requests += 1;
        if !sample.ok {
            self.total_errors += 1;
        }
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.evicted += 1;
        }
        self.samples.push_back(sample);
    }

    /// Computes the windowed gauges as of `now_micros` (same epoch as
    /// the recorded samples). `queue_depth` is passed through so the
    /// snapshot is a single coherent observation.
    pub fn snapshot(&self, now_micros: u64, queue_depth: usize) -> MetricsSnapshot {
        let cutoff = now_micros.saturating_sub(self.window_micros);
        let mut latencies: Vec<u64> = Vec::new();
        let mut errors: u64 = 0;
        let mut latency_sum: u64 = 0;
        for s in &self.samples {
            if s.end_micros >= cutoff && s.end_micros <= now_micros {
                latencies.push(s.latency_micros);
                latency_sum += s.latency_micros;
                if !s.ok {
                    errors += 1;
                }
            }
        }
        latencies.sort_unstable();
        let count = latencies.len() as u64;
        // Early in a server's life the trailing window extends past the
        // epoch; shrink it so throughput is not diluted by time that
        // never existed.
        let effective_micros = self.window_micros.min(now_micros).max(1);
        let effective_secs = effective_micros as f64 / 1e6;
        let rank = |q: f64| -> u64 {
            if latencies.is_empty() {
                return 0;
            }
            // Nearest-rank quantile: the smallest sample whose
            // cumulative rank reaches ceil(q * count).
            let target = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
            latencies[target - 1]
        };
        MetricsSnapshot {
            window_secs: self.window_micros as f64 / 1e6,
            effective_secs,
            count,
            errors,
            error_rate: if count == 0 {
                0.0
            } else {
                errors as f64 / count as f64
            },
            throughput_rps: count as f64 / effective_secs,
            latency_p50_micros: rank(0.50),
            latency_p90_micros: rank(0.90),
            latency_p99_micros: rank(0.99),
            latency_min_micros: latencies.first().copied().unwrap_or(0),
            latency_max_micros: latencies.last().copied().unwrap_or(0),
            latency_mean_micros: if count == 0 {
                0.0
            } else {
                latency_sum as f64 / count as f64
            },
            queue_depth: queue_depth as u64,
            total_requests: self.total_requests,
            total_errors: self.total_errors,
            capacity: self.capacity as u64,
            evicted: self.evicted,
        }
    }
}

/// A coherent point-in-time view of the rolling window, plus lifetime
/// totals. All latencies are microseconds.
#[derive(Debug, Clone, PartialEq)]
// flow3d-tidy: allow(dead-pub) — telemetry schema (flow3d::obs) consumed by downstream report tooling
pub struct MetricsSnapshot {
    /// Configured window length in seconds.
    pub window_secs: f64,
    /// The window actually covered (shorter than `window_secs` until
    /// the server has been up that long).
    pub effective_secs: f64,
    /// Samples inside the window.
    pub count: u64,
    /// Error responses inside the window.
    pub errors: u64,
    /// `errors / count` (0 when the window is empty).
    pub error_rate: f64,
    /// Requests per second over the effective window.
    pub throughput_rps: f64,
    /// Windowed median latency.
    pub latency_p50_micros: u64,
    /// Windowed 90th-percentile latency.
    pub latency_p90_micros: u64,
    /// Windowed 99th-percentile latency.
    pub latency_p99_micros: u64,
    /// Fastest request in the window.
    pub latency_min_micros: u64,
    /// Slowest request in the window.
    pub latency_max_micros: u64,
    /// Mean latency over the window.
    pub latency_mean_micros: f64,
    /// Admission-queue depth at snapshot time.
    pub queue_depth: u64,
    /// Requests ever recorded (lifetime, not windowed).
    pub total_requests: u64,
    /// Error responses ever recorded (lifetime).
    pub total_errors: u64,
    /// Ring capacity, for judging `evicted`.
    pub capacity: u64,
    /// Samples dropped by capacity pressure before they aged out.
    pub evicted: u64,
}

impl MetricsSnapshot {
    /// Renders the snapshot as a JSON object (field names match the
    /// struct).
    pub fn to_json(&self) -> Json {
        let u = |v: u64| Json::num(v as f64);
        Json::Obj(vec![
            ("window_secs".to_string(), Json::num(self.window_secs)),
            ("effective_secs".to_string(), Json::num(self.effective_secs)),
            ("count".to_string(), u(self.count)),
            ("errors".to_string(), u(self.errors)),
            ("error_rate".to_string(), Json::num(self.error_rate)),
            ("throughput_rps".to_string(), Json::num(self.throughput_rps)),
            ("latency_p50_micros".to_string(), u(self.latency_p50_micros)),
            ("latency_p90_micros".to_string(), u(self.latency_p90_micros)),
            ("latency_p99_micros".to_string(), u(self.latency_p99_micros)),
            ("latency_min_micros".to_string(), u(self.latency_min_micros)),
            ("latency_max_micros".to_string(), u(self.latency_max_micros)),
            (
                "latency_mean_micros".to_string(),
                Json::num(self.latency_mean_micros),
            ),
            ("queue_depth".to_string(), u(self.queue_depth)),
            ("total_requests".to_string(), u(self.total_requests)),
            ("total_errors".to_string(), u(self.total_errors)),
            ("capacity".to_string(), u(self.capacity)),
            ("evicted".to_string(), u(self.evicted)),
        ])
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (`# TYPE` headers, one sample per line, quantile labels on the
    /// latency gauge).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut gauge = |name: &str, help: &str, value: String| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
            out.push_str(&format!("{name} {value}\n"));
        };
        gauge(
            "flow3d_serve_window_seconds",
            "Effective length of the rolling metrics window.",
            fmt_f64(self.effective_secs),
        );
        gauge(
            "flow3d_serve_window_requests",
            "Requests completed inside the window.",
            self.count.to_string(),
        );
        gauge(
            "flow3d_serve_window_error_rate",
            "Fraction of windowed requests that returned an error.",
            fmt_f64(self.error_rate),
        );
        gauge(
            "flow3d_serve_window_throughput_rps",
            "Windowed request throughput in requests per second.",
            fmt_f64(self.throughput_rps),
        );
        gauge(
            "flow3d_serve_queue_depth",
            "Admission-queue depth at scrape time.",
            self.queue_depth.to_string(),
        );
        out.push_str(concat!(
            "# HELP flow3d_serve_request_latency_micros ",
            "Windowed request latency quantiles in microseconds.\n",
            "# TYPE flow3d_serve_request_latency_micros gauge\n"
        ));
        for (q, v) in [
            ("0.5", self.latency_p50_micros),
            ("0.9", self.latency_p90_micros),
            ("0.99", self.latency_p99_micros),
            ("1", self.latency_max_micros),
        ] {
            out.push_str(&format!(
                "flow3d_serve_request_latency_micros{{quantile=\"{q}\"}} {v}\n"
            ));
        }
        for (name, help, value) in [
            (
                "flow3d_serve_requests_total",
                "Requests completed since server start.",
                self.total_requests,
            ),
            (
                "flow3d_serve_errors_total",
                "Error responses since server start.",
                self.total_errors,
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            out.push_str(&format!("{name} {value}\n"));
        }
        out
    }
}

/// Formats an f64 the way the JSON serializer does (shortest `{}`
/// rendering), so the two surfaces agree on values.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "NaN".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(end: u64, latency: u64, ok: bool) -> RequestSample {
        RequestSample {
            end_micros: end,
            latency_micros: latency,
            ok,
        }
    }

    #[test]
    fn quantiles_match_nearest_rank_on_known_sequence() {
        let mut w = RollingWindow::new(1024, 60_000_000);
        for i in 1..=100u64 {
            w.record(sample(i * 1_000, i, true));
        }
        let s = w.snapshot(100_000, 0);
        assert_eq!(s.count, 100);
        assert_eq!(s.latency_p50_micros, 50);
        assert_eq!(s.latency_p90_micros, 90);
        assert_eq!(s.latency_p99_micros, 99);
        assert_eq!(s.latency_min_micros, 1);
        assert_eq!(s.latency_max_micros, 100);
        assert!((s.latency_mean_micros - 50.5).abs() < 1e-9);
    }

    #[test]
    fn old_samples_age_out_of_the_window() {
        let mut w = RollingWindow::new(1024, 1_000_000);
        w.record(sample(100, 7, true));
        w.record(sample(1_500_000, 9, true));
        let s = w.snapshot(1_600_000, 0);
        assert_eq!(s.count, 1);
        assert_eq!(s.latency_p50_micros, 9);
        // Lifetime totals still see both.
        assert_eq!(s.total_requests, 2);
    }

    #[test]
    fn capacity_evicts_oldest_and_counts_drops() {
        let mut w = RollingWindow::new(4, 60_000_000);
        for i in 0..10u64 {
            w.record(sample(i, i, true));
        }
        let s = w.snapshot(100, 0);
        assert_eq!(s.count, 4);
        assert_eq!(s.evicted, 6);
        assert_eq!(s.latency_min_micros, 6);
        assert_eq!(s.latency_max_micros, 9);
    }

    #[test]
    fn error_rate_and_throughput_over_effective_window() {
        let mut w = RollingWindow::new(64, 60_000_000);
        for i in 0..8u64 {
            w.record(sample(i * 250_000, 10, i % 4 != 0));
        }
        // now = 2s, window 60s: the effective window is the 2s of
        // uptime, so 8 requests -> 4 rps.
        let s = w.snapshot(2_000_000, 3);
        assert_eq!(s.count, 8);
        assert_eq!(s.errors, 2);
        assert!((s.error_rate - 0.25).abs() < 1e-9);
        assert!((s.throughput_rps - 4.0).abs() < 1e-9);
        assert_eq!(s.queue_depth, 3);
    }

    #[test]
    fn empty_window_reports_zeros() {
        let w = RollingWindow::new(16, 1_000_000);
        let s = w.snapshot(5_000_000, 0);
        assert_eq!(s.count, 0);
        assert_eq!(s.latency_p50_micros, 0);
        assert_eq!(s.latency_p99_micros, 0);
        assert_eq!(s.error_rate, 0.0);
        assert_eq!(s.throughput_rps, 0.0);
    }

    #[test]
    fn json_and_prometheus_agree() {
        let mut w = RollingWindow::new(64, 60_000_000);
        for i in 1..=10u64 {
            w.record(sample(i * 1_000, i * 100, true));
        }
        let s = w.snapshot(10_000, 1);
        let json = s.to_json();
        assert_eq!(
            json.get("latency_p99_micros").and_then(Json::as_u64),
            Some(s.latency_p99_micros)
        );
        assert_eq!(json.get("count").and_then(Json::as_u64), Some(10));
        let text = s.to_prometheus();
        assert!(text.contains(&format!(
            "flow3d_serve_request_latency_micros{{quantile=\"0.99\"}} {}",
            s.latency_p99_micros
        )));
        assert!(text.contains("flow3d_serve_requests_total 10"));
        assert!(text.contains("# TYPE flow3d_serve_queue_depth gauge"));
    }
}
