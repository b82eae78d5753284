//! Hierarchical phase timing: [`Profile`] accumulates per-phase wall
//! time and call counts.
//!
//! Beyond timers and counters, a profile carries the rest of the
//! telemetry state: a [`HistogramSet`], captured [`Heatmap`]s (recorded
//! only when armed via [`Profile::enable_heatmaps`]), and — when armed
//! via [`Profile::enable_tracing`] — a per-thread [`TraceEvent`] stream
//! (see the [`trace`](crate::trace) module).

use crate::counters::CounterSet;
use crate::heatmap::Heatmap;
use crate::hist::HistogramSet;
use crate::trace::{chrome_trace_json, TraceEvent, TracePhase};
use std::time::{Duration, Instant};

/// Armed tracing state: the shared epoch plus this thread's events.
#[derive(Debug, Clone)]
struct TraceState {
    epoch: Instant,
    events: Vec<TraceEvent>,
}

/// Accumulated statistics for one phase path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
// flow3d-tidy: allow(dead-pub) — telemetry schema (flow3d::obs) consumed by downstream report tooling
pub struct PhaseStats {
    /// Total wall time spent inside the phase, summed over calls.
    pub total: Duration,
    /// How many times the phase was entered.
    pub calls: u64,
}

/// A hierarchical wall-clock profile plus a [`CounterSet`].
///
/// Phases nest: entering `"flow_pass"` while `"legalize"` is open
/// records time under the path `"legalize/flow_pass"`. Each distinct
/// path accumulates a total duration and a call count, in first-entry
/// order.
///
/// Instrumented code receives a `Profile` as `Option<&mut Profile>` (see
/// [`Obs`](crate::Obs) and [`ObsExt`]); passing `None` skips all
/// bookkeeping, so the uninstrumented path costs one branch per hook.
///
/// ```
/// use flow3d_obs::Profile;
///
/// let mut p = Profile::new();
/// p.begin("legalize");
/// p.begin("flow_pass");
/// p.bump("augmenting_paths", 2);
/// p.end("flow_pass");
/// p.end("legalize");
///
/// let paths: Vec<&str> = p.phases().map(|(path, _)| path).collect();
/// assert_eq!(paths, ["legalize", "legalize/flow_pass"]);
/// assert_eq!(p.counters().get("augmenting_paths"), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Profile {
    created: Instant,
    /// Open scopes, innermost last.
    stack: Vec<(String, Instant)>,
    /// Accumulated stats per phase path, in first-entry order.
    phases: Vec<(String, PhaseStats)>,
    counters: CounterSet,
    hists: HistogramSet,
    heatmaps: Vec<Heatmap>,
    /// Whether instrumented code should capture heatmaps at all.
    heatmaps_armed: bool,
    /// `Some` once tracing is armed; recording is a plain `Vec::push`
    /// on this thread-local state, so no lock is ever taken.
    trace: Option<TraceState>,
}

impl Default for Profile {
    fn default() -> Self {
        Self::new()
    }
}

impl Profile {
    /// An empty profile; total elapsed time is measured from this call.
    pub fn new() -> Self {
        Self {
            created: Instant::now(),
            stack: Vec::new(),
            phases: Vec::new(),
            counters: CounterSet::new(),
            hists: HistogramSet::new(),
            heatmaps: Vec::new(),
            heatmaps_armed: false,
            trace: None,
        }
    }

    /// A worker-side profile that shares a coordinator's trace epoch,
    /// so its event timestamps land on the coordinator's timeline.
    /// `None` (the coordinator is not tracing) yields a plain profile.
    ///
    /// Workers record events on track 0; the coordinator assigns the
    /// real track id when it folds the worker in with
    /// [`merge_nested_worker`](Self::merge_nested_worker).
    pub fn new_worker(trace_epoch: Option<Instant>) -> Self {
        let mut p = Self::new();
        if let Some(epoch) = trace_epoch {
            p.trace = Some(TraceState {
                epoch,
                events: Vec::new(),
            });
        }
        p
    }

    /// Arms event tracing. The epoch — the zero point of every event
    /// timestamp — is the instant the profile was created, so phase
    /// times and trace times share one timeline. Idempotent.
    pub fn enable_tracing(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(TraceState {
                epoch: self.created,
                events: Vec::new(),
            });
        }
    }

    /// Whether tracing is armed.
    pub fn is_tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Arms heatmap capture: instrumented code (the flow pass) then
    /// snapshots its per-bin grids into this profile. Off by default,
    /// because every capture copies whole grids and nothing but a
    /// heatmap sidecar reads them. Idempotent.
    pub fn enable_heatmaps(&mut self) {
        self.heatmaps_armed = true;
    }

    /// Whether heatmap capture is armed.
    pub fn heatmaps_enabled(&self) -> bool {
        self.heatmaps_armed
    }

    /// The trace epoch, when tracing is armed — hand this to
    /// [`new_worker`](Self::new_worker) so worker events share the
    /// coordinator's timeline.
    pub fn tracing_epoch(&self) -> Option<Instant> {
        self.trace.as_ref().map(|t| t.epoch)
    }

    /// Opens a phase scope. Must be balanced by [`end`](Self::end) with
    /// the same name.
    pub fn begin(&mut self, name: &str) {
        // Register the path now so that phases list in first-entry order
        // (a parent before the children nested inside it), not in the
        // order their scopes happen to close.
        let path = self.path_for(name);
        if !self.phases.iter().any(|(p, _)| *p == path) {
            self.phases.push((path, PhaseStats::default()));
        }
        self.stack.push((name.to_string(), Instant::now()));
    }

    /// The full path `name` would have if entered now.
    fn path_for(&self, name: &str) -> String {
        let mut path = String::new();
        for (ancestor, _) in &self.stack {
            path.push_str(ancestor);
            path.push('/');
        }
        path.push_str(name);
        path
    }

    /// Closes the innermost phase scope and accumulates its elapsed
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open or if `name` does not match the
    /// innermost open scope — a begin/end mismatch is a programming
    /// error that would silently misattribute time.
    pub fn end(&mut self, name: &str) {
        let (open, started) = self
            .stack
            .pop()
            // flow3d-tidy: allow(panic-unwrap) — documented # Panics: begin/end mismatch would misattribute time
            .unwrap_or_else(|| panic!("Profile::end(\"{name}\") with no open phase"));
        assert_eq!(
            open, name,
            "Profile::end(\"{name}\") does not match open phase \"{open}\""
        );
        let elapsed = started.elapsed();
        let path = self.path_for(name);
        let (_, stats) = self
            .phases
            .iter_mut()
            .find(|(p, _)| *p == path)
            // flow3d-tidy: allow(panic-unwrap) — invariant: begin() registered this path before end() can pop it
            .expect("begin registered the path");
        stats.total += elapsed;
        stats.calls += 1;
        if let Some(t) = &mut self.trace {
            t.events.push(TraceEvent {
                name: open,
                track: 0,
                start: started.saturating_duration_since(t.epoch),
                duration: elapsed,
                phase: TracePhase::Complete,
            });
        }
    }

    /// Records a zero-duration trace marker on this profile's timeline
    /// (a no-op unless tracing is armed).
    pub fn instant(&mut self, name: &str) {
        if let Some(t) = &mut self.trace {
            t.events.push(TraceEvent {
                name: name.to_string(),
                track: 0,
                start: Instant::now().saturating_duration_since(t.epoch),
                duration: Duration::ZERO,
                phase: TracePhase::Instant,
            });
        }
    }

    /// Adds `by` to the named counter (see [`CounterSet::bump`]).
    pub fn bump(&mut self, counter: &str, by: u64) {
        self.counters.bump(counter, by);
    }

    /// Closed-phase statistics as `(path, stats)`, in first-entry order
    /// (a parent phase lists before the children nested inside it).
    /// Scopes that have never closed are not included.
    pub fn phases(&self) -> impl Iterator<Item = (&str, PhaseStats)> {
        self.phases
            .iter()
            .filter(|(_, s)| s.calls > 0)
            .map(|(p, s)| (p.as_str(), *s))
    }

    /// Stats for one exact phase path, if it has closed at least once.
    pub fn phase(&self, path: &str) -> Option<PhaseStats> {
        self.phases
            .iter()
            .find(|(p, s)| p == path && s.calls > 0)
            .map(|(_, s)| *s)
    }

    /// Folds a worker's profile into this one, nesting every closed
    /// phase of `other` under this profile's currently open path and
    /// merging the counters.
    ///
    /// This is how concurrent phases stay coherent: each pool worker
    /// records into its own `Profile` (no shared mutable state while the
    /// pool runs), and the coordinator merges the workers in a fixed
    /// order after the join. Same-path phases accumulate time and call
    /// counts exactly as if one thread had run them back-to-back, so a
    /// merged profile's *structure* (paths, call counts, counter values)
    /// is identical for every thread count — only the durations reflect
    /// the actual concurrency.
    ///
    /// ```
    /// use flow3d_obs::Profile;
    ///
    /// let mut main = Profile::new();
    /// main.begin("flow_pass");
    /// for _ in 0..2 {
    ///     let mut worker = Profile::new();
    ///     worker.begin("source_search");
    ///     worker.bump("nodes", 3);
    ///     worker.end("source_search");
    ///     main.merge_nested(&worker);
    /// }
    /// main.end("flow_pass");
    /// assert_eq!(main.phase("flow_pass/source_search").unwrap().calls, 2);
    /// assert_eq!(main.counters().get("nodes"), 6);
    /// ```
    pub fn merge_nested(&mut self, other: &Profile) {
        self.merge_nested_retagged(other, None);
    }

    /// [`merge_nested`](Self::merge_nested), additionally retagging the
    /// worker's trace events onto track `track` (1-based; track 0 is the
    /// coordinator). Use the worker's stable index in the merge order —
    /// not an OS thread id — so the exported timeline layout is
    /// deterministic.
    pub fn merge_nested_worker(&mut self, other: &Profile, track: u32) {
        self.merge_nested_retagged(other, Some(track));
    }

    fn merge_nested_retagged(&mut self, other: &Profile, track: Option<u32>) {
        let mut prefix = String::new();
        for (ancestor, _) in &self.stack {
            prefix.push_str(ancestor);
            prefix.push('/');
        }
        for (path, stats) in other.phases() {
            let full = format!("{prefix}{path}");
            match self.phases.iter_mut().find(|(p, _)| *p == full) {
                Some((_, s)) => {
                    s.total += stats.total;
                    s.calls += stats.calls;
                }
                None => self.phases.push((full, stats)),
            }
        }
        self.counters.merge(other.counters());
        self.hists.merge(other.hists());
        self.heatmaps.extend(other.heatmaps.iter().cloned());
        if let Some(dst) = &mut self.trace {
            if let Some(src) = &other.trace {
                for e in &src.events {
                    let mut e = e.clone();
                    if let Some(t) = track {
                        e.track = t;
                    }
                    dst.events.push(e);
                }
            }
        }
    }

    /// The counter registry.
    pub fn counters(&self) -> &CounterSet {
        &self.counters
    }

    /// Mutable access to the counter registry (e.g. to
    /// [`merge`](CounterSet::merge) counters collected elsewhere).
    pub fn counters_mut(&mut self) -> &mut CounterSet {
        &mut self.counters
    }

    /// Records `value` into the named histogram (shared power-of-two
    /// buckets on first touch — see [`HistogramSet::record`]).
    pub fn record(&mut self, hist: &str, value: f64) {
        self.hists.record(hist, value);
    }

    /// The histogram registry.
    pub fn hists(&self) -> &HistogramSet {
        &self.hists
    }

    /// Mutable access to the histogram registry (custom bounds, merges).
    pub fn hists_mut(&mut self) -> &mut HistogramSet {
        &mut self.hists
    }

    /// Attaches a captured heatmap to the profile. Callers that capture
    /// as a side effect check [`heatmaps_enabled`](Self::heatmaps_enabled)
    /// first; an explicit attach is always kept.
    pub fn add_heatmap(&mut self, map: Heatmap) {
        self.heatmaps.push(map);
    }

    /// Heatmaps captured so far, in capture order.
    pub fn heatmaps(&self) -> &[Heatmap] {
        &self.heatmaps
    }

    /// Trace events recorded so far (empty unless tracing is armed).
    pub fn trace_events(&self) -> &[TraceEvent] {
        self.trace.as_ref().map_or(&[], |t| &t.events)
    }

    /// Exports the recorded events as a Chrome `trace_event` JSON
    /// document, or `None` if tracing was never armed.
    pub fn to_chrome_trace(&self, process: &str) -> Option<String> {
        self.trace
            .as_ref()
            .map(|t| chrome_trace_json(process, &t.events))
    }

    /// Wall time since the profile was created.
    pub fn total_elapsed(&self) -> Duration {
        self.created.elapsed()
    }
}

/// The hook type threaded through instrumentable code: `None` disables
/// all bookkeeping.
pub type Obs<'a> = Option<&'a mut Profile>;

/// Convenience methods on [`Obs`] hooks that no-op when the hook is
/// `None`, so instrumented code reads the same either way:
///
/// ```
/// use flow3d_obs::{Obs, ObsExt, Profile};
///
/// fn work(mut obs: Obs<'_>) {
///     obs.begin("inner");
///     obs.bump("widgets", 1);
///     obs.end("inner");
/// }
///
/// work(None); // all hooks skipped
///
/// let mut p = Profile::new();
/// work(Some(&mut p));
/// assert_eq!(p.counters().get("widgets"), 1);
/// assert_eq!(p.phase("inner").unwrap().calls, 1);
/// ```
pub trait ObsExt {
    /// [`Profile::begin`] if observing, else nothing.
    fn begin(&mut self, name: &str);
    /// [`Profile::end`] if observing, else nothing.
    fn end(&mut self, name: &str);
    /// [`Profile::bump`] if observing, else nothing.
    fn bump(&mut self, counter: &str, by: u64);
    /// [`Profile::record`] if observing, else nothing.
    fn record(&mut self, hist: &str, value: f64);
    /// [`Profile::instant`] if observing, else nothing.
    fn instant(&mut self, name: &str);
    /// Reborrows the hook for passing down to a callee while keeping it
    /// usable afterwards.
    fn reborrow(&mut self) -> Obs<'_>;
}

impl ObsExt for Obs<'_> {
    fn begin(&mut self, name: &str) {
        if let Some(p) = self {
            p.begin(name);
        }
    }

    fn end(&mut self, name: &str) {
        if let Some(p) = self {
            p.end(name);
        }
    }

    fn bump(&mut self, counter: &str, by: u64) {
        if let Some(p) = self {
            p.bump(counter, by);
        }
    }

    fn record(&mut self, hist: &str, value: f64) {
        if let Some(p) = self {
            p.record(hist, value);
        }
    }

    fn instant(&mut self, name: &str) {
        if let Some(p) = self {
            p.instant(name);
        }
    }

    fn reborrow(&mut self) -> Obs<'_> {
        self.as_deref_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(duration: Duration) {
        let start = Instant::now();
        while start.elapsed() < duration {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_are_monotonic() {
        // A child phase can never account for more time than the parent
        // scope that contains it, and the parent can never exceed the
        // profile's total elapsed time.
        let mut p = Profile::new();
        p.begin("parent");
        p.begin("child");
        spin(Duration::from_millis(2));
        p.end("child");
        spin(Duration::from_millis(1));
        p.end("parent");

        let parent = p.phase("parent").unwrap();
        let child = p.phase("parent/child").unwrap();
        assert!(child.total <= parent.total, "{child:?} > {parent:?}");
        assert!(parent.total <= p.total_elapsed());
        assert_eq!(parent.calls, 1);
        assert_eq!(child.calls, 1);
    }

    #[test]
    fn repeated_phases_accumulate_calls_and_time() {
        let mut p = Profile::new();
        for _ in 0..3 {
            p.begin("loop");
            spin(Duration::from_millis(1));
            p.end("loop");
        }
        let stats = p.phase("loop").unwrap();
        assert_eq!(stats.calls, 3);
        assert!(stats.total >= Duration::from_millis(3));
    }

    #[test]
    fn same_name_at_different_depths_is_two_paths() {
        let mut p = Profile::new();
        p.begin("a");
        p.begin("a");
        p.end("a");
        p.end("a");
        assert_eq!(p.phase("a").unwrap().calls, 1);
        assert_eq!(p.phase("a/a").unwrap().calls, 1);
    }

    #[test]
    fn merge_nested_aggregates_workers_under_open_path() {
        let mut main = Profile::new();
        main.begin("legalize");
        main.begin("placerow");
        for w in 0..3 {
            let mut worker = Profile::new();
            for _ in 0..=w {
                worker.begin("segment");
                spin(Duration::from_micros(200));
                worker.end("segment");
            }
            worker.bump("rows", (w + 1) as u64);
            main.merge_nested(&worker);
        }
        main.end("placerow");
        main.end("legalize");

        // 1 + 2 + 3 segment spans, nested where the coordinator was.
        let seg = main.phase("legalize/placerow/segment").unwrap();
        assert_eq!(seg.calls, 6);
        assert!(seg.total > Duration::ZERO);
        assert_eq!(main.counters().get("rows"), 6);
        // The parent phase still closed normally.
        assert_eq!(main.phase("legalize/placerow").unwrap().calls, 1);
    }

    #[test]
    fn merge_nested_at_top_level_keeps_paths_rooted() {
        let mut main = Profile::new();
        let mut worker = Profile::new();
        worker.begin("a");
        worker.begin("b");
        worker.end("b");
        worker.end("a");
        main.merge_nested(&worker);
        assert_eq!(main.phase("a").unwrap().calls, 1);
        assert_eq!(main.phase("a/b").unwrap().calls, 1);
    }

    #[test]
    fn merge_nested_ignores_workers_open_scopes() {
        let mut main = Profile::new();
        let mut worker = Profile::new();
        worker.begin("closed");
        worker.end("closed");
        worker.begin("still_open");
        main.merge_nested(&worker);
        assert!(main.phase("closed").is_some());
        assert!(main.phase("still_open").is_none());
    }

    #[test]
    #[should_panic(expected = "does not match open phase")]
    fn mismatched_end_panics() {
        let mut p = Profile::new();
        p.begin("a");
        p.end("b");
    }

    #[test]
    fn none_hook_is_inert() {
        let mut obs: Obs<'_> = None;
        obs.begin("x");
        obs.bump("c", 5);
        obs.record("h", 1.0);
        obs.instant("mark");
        obs.end("x");
        // Nothing to assert beyond "did not panic": there is no profile.
    }

    #[test]
    fn tracing_records_spans_with_epoch_relative_times() {
        let mut p = Profile::new();
        assert!(!p.is_tracing());
        assert!(p.to_chrome_trace("flow3d").is_none());
        p.enable_tracing();
        assert!(p.is_tracing());
        p.begin("outer");
        p.begin("inner");
        spin(Duration::from_millis(1));
        p.end("inner");
        p.instant("mark");
        p.end("outer");

        let events = p.trace_events();
        // Events are recorded at scope close: inner, mark, outer.
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[1].name, "mark");
        assert_eq!(events[1].phase, crate::trace::TracePhase::Instant);
        assert_eq!(events[2].name, "outer");
        assert!(events[2].start <= events[0].start, "outer starts first");
        assert!(events[2].duration >= events[0].duration);
        assert!(events.iter().all(|e| e.track == 0));
        let json = p.to_chrome_trace("flow3d").unwrap();
        assert!(json.contains("traceEvents"));
        assert!(json.contains("coordinator"));
    }

    #[test]
    fn untraced_profile_records_no_events() {
        let mut p = Profile::new();
        p.begin("a");
        p.end("a");
        p.instant("mark");
        assert!(p.trace_events().is_empty());
    }

    #[test]
    fn merge_nested_worker_retags_tracks_and_merges_hists() {
        let mut main = Profile::new();
        main.enable_tracing();
        main.begin("flow_pass");
        for w in 0..2u32 {
            let mut worker = Profile::new_worker(main.tracing_epoch());
            worker.begin("source_search");
            worker.record("depth", (w + 1) as f64);
            worker.end("source_search");
            main.merge_nested_worker(&worker, w + 1);
        }
        main.end("flow_pass");

        let tracks: Vec<u32> = main.trace_events().iter().map(|e| e.track).collect();
        assert_eq!(tracks, [1, 2, 0]); // two workers, then the coordinator span
        assert_eq!(main.hists().get("depth").unwrap().count(), 2);
        assert_eq!(main.phase("flow_pass/source_search").unwrap().calls, 2);
    }

    #[test]
    fn worker_without_epoch_merges_without_events() {
        let mut main = Profile::new();
        main.enable_tracing();
        let mut worker = Profile::new_worker(None);
        worker.begin("w");
        worker.end("w");
        assert!(worker.trace_events().is_empty());
        main.merge_nested_worker(&worker, 1);
        assert!(main.trace_events().is_empty());
        assert!(main.phase("w").is_some());
    }

    #[test]
    fn heatmaps_travel_through_merges() {
        use crate::heatmap::Heatmap;
        let mut main = Profile::new();
        let mut other = Profile::new();
        other.add_heatmap(Heatmap::new("pass0/die0/overflow", 2, 2));
        main.add_heatmap(Heatmap::new("pass0/die0/supply", 2, 2));
        main.merge_nested(&other);
        let names: Vec<&str> = main.heatmaps().iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, ["pass0/die0/supply", "pass0/die0/overflow"]);
    }

    #[test]
    fn reborrow_allows_sequential_callees() {
        fn callee(mut obs: Obs<'_>, name: &str) {
            obs.begin(name);
            obs.end(name);
        }
        let mut p = Profile::new();
        let mut obs: Obs<'_> = Some(&mut p);
        callee(obs.reborrow(), "first");
        callee(obs.reborrow(), "second");
        assert!(p.phase("first").is_some());
        assert!(p.phase("second").is_some());
    }
}
