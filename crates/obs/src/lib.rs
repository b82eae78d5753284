#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Observability for the 3D-Flow legalization pipeline: hierarchical
//! phase timers, named event counters, and serializable run reports.
//!
//! This crate is intentionally dependency-free (std only). It provides
//! three layers:
//!
//! * [`Profile`] — nestable wall-clock phase scopes with
//!   per-phase call counts, plus a [`CounterSet`] of named monotonic
//!   counters (see [`keys`] for the pipeline's well-known names).
//! * [`Obs`] / [`ObsExt`] — the `Option<&mut Profile>` hook type that
//!   instrumented code threads through its call graph. A `None` hook
//!   reduces every instrumentation point to a single branch, so the
//!   uninstrumented path stays effectively free.
//! * [`RunReport`] — a snapshot of a finished profile plus optional
//!   [`Quality`] metrics, serializable to JSON ([`RunReport::to_json`],
//!   inverted by [`RunReport::from_json`]) and to an aligned text table
//!   ([`RunReport::to_pretty`]). The JSON machinery ([`Json`]) is
//!   hand-rolled and public for reuse.
//! * Telemetry — [`Histogram`]/[`HistogramSet`] for mergeable
//!   fixed-bucket distributions (surfaced as [`HistReport`] p50/p90/p99
//!   summaries), the [`trace`] module for Chrome `trace_event` export
//!   with per-worker timelines, and [`Heatmap`] for per-bin spatial
//!   grids.
//! * Live-service telemetry (v3) — [`RollingWindow`] /
//!   [`MetricsSnapshot`] for windowed latency/throughput/error-rate
//!   gauges (JSON + Prometheus text), [`EventLog`] for structured
//!   leveled JSONL event logging, and [`FlightRecorder`] for bounded
//!   postmortem rings. These are gauges over wall-clock measurements
//!   and are never part of a [`RunReport`].
//!
//! # Example
//!
//! ```
//! use flow3d_obs::{keys, Profile, RunReport};
//!
//! let mut profile = Profile::new();
//! profile.begin("legalize");
//! profile.begin("flow_pass");
//! profile.bump(keys::AUGMENTING_PATHS, 17);
//! profile.end("flow_pass");
//! profile.end("legalize");
//!
//! let report = RunReport::from_profile("toy", "flow3d", &profile);
//! let json = report.to_json();
//! let back = RunReport::from_json(&json).unwrap();
//! assert_eq!(back.counters, vec![("augmenting_paths".to_string(), 17)]);
//! assert_eq!(back.phases[1].path, "legalize/flow_pass");
//! ```

mod counters;
mod heatmap;
mod hist;
mod json;
mod log;
mod metrics;
mod profile;
mod recorder;
mod report;
mod rss;
pub mod trace;

pub use counters::{keys, CounterSet};
pub use heatmap::{heatmaps_from_json, heatmaps_to_json, Heatmap};
pub use hist::{keys as hist_keys, HistSummary, Histogram, HistogramSet, DEFAULT_POW2_BOUNDS};
pub use json::{Json, JsonError};
pub use log::{log_record, EventLog, LogLevel};
pub use metrics::{MetricsSnapshot, RequestSample, RollingWindow};
pub use profile::{Obs, ObsExt, PhaseStats, Profile};
pub use recorder::FlightRecorder;
pub use report::{HistReport, PhaseReport, Quality, RunReport};
pub use rss::peak_rss_bytes;
pub use trace::{chrome_trace_json, track_name, TraceEvent, TracePhase};
