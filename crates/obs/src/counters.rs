//! The counter registry: named monotonic `u64` event counters.

use std::fmt;

/// Well-known counter names used by the legalization pipeline.
///
/// Using shared constants keeps producer (core) and consumer (reports,
/// tests) spellings in sync; the registry itself accepts any name.
pub mod keys {
    /// Search-tree nodes expanded by the best-first search (Alg. 1).
    pub const NODES_EXPANDED: &str = "nodes_expanded";
    /// Search-tree nodes created (pushed to the frontier).
    pub const NODES_CREATED: &str = "nodes_created";
    /// Branches pruned by the cost bound `(1 + α)·c_min`.
    pub const BRANCHES_PRUNED: &str = "branches_pruned";
    /// Frontier entries dropped at pop time because the bound tightened
    /// after they were queued (they were never expanded).
    pub const BRANCHES_PRUNED_STALE: &str = "branches_pruned_stale";
    /// Selection-memo hits. No stage records this counter since the
    /// selection memo was removed, so it reads 0; the name stays only
    /// because the repository benchmark's per-layer metrics still read
    /// it.
    pub const SELECTION_MEMO_HITS: &str = "selection_memo_hits";
    /// Selection-memo misses. Like [`SELECTION_MEMO_HITS`], never
    /// recorded and kept only for the benchmark's per-layer metrics.
    pub const SELECTION_MEMO_MISSES: &str = "selection_memo_misses";
    /// Augmenting paths found and realized.
    pub const AUGMENTING_PATHS: &str = "augmenting_paths";
    /// Bounded-search retries after a search that found no path: one per
    /// halved flow limit, so a stuck source of supply `s` adds
    /// `⌊log2 s⌋`.
    pub const SEARCH_RETRIES: &str = "search_retries";
    /// Whole cells moved while realizing augmenting paths.
    pub const CELLS_MOVED: &str = "cells_moved";
    /// Abacus `PlaceRow` invocations during row legalization: one per
    /// non-empty segment placed. Post-optimization passes and ECO
    /// requests place only the segments whose membership changed.
    pub const PLACEROW_CALLS: &str = "placerow_calls";
    /// Cycle-canceling post-optimization passes that re-ran legalization.
    pub const CYCLE_RELEGALIZATIONS: &str = "cycle_relegalizations";
    /// Cells teleported by the last-resort fallback when no augmenting
    /// path exists.
    pub const FALLBACK_MOVES: &str = "fallback_moves";
    /// Flow passes executed (used to index per-pass telemetry such as
    /// heatmap snapshots).
    pub const FLOW_PASSES: &str = "flow_passes";
    /// Directed bin edges tabooed by the flow-pass ping-pong detector
    /// (A↔B oscillations caught before they burn the apply guard).
    pub const PING_PONG_TABUS: &str = "ping_pong_tabus";
    /// Resolved placement seeds refreshed by a resident engine's
    /// `commit()` delta (cells whose base placement actually changed).
    pub const COMMIT_RESEEDED: &str = "commit_reseeded";
    /// Total resolved placement seeds examined by `commit()`.
    pub const COMMIT_SEEDS: &str = "commit_seeds";
}

/// A name-sorted set of named monotonic counters.
///
/// Entries are kept sorted by name at all times, so iteration order —
/// and therefore every serialized report — is a pure function of *which*
/// counters were touched, never of the order threads happened to touch
/// them. That makes merged worker counter sets bit-identical across
/// `FLOW3D_THREADS` settings. The pipeline registers on the order of ten
/// counters, so the binary searches here are effectively free.
///
/// ```
/// use flow3d_obs::CounterSet;
///
/// let mut c = CounterSet::new();
/// c.bump("nodes_expanded", 3);
/// c.bump("nodes_expanded", 2);
/// assert_eq!(c.get("nodes_expanded"), 5);
/// assert_eq!(c.get("never_touched"), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
// flow3d-tidy: allow(dead-pub) — telemetry schema (flow3d::obs) consumed by downstream report tooling
pub struct CounterSet {
    entries: Vec<(String, u64)>,
}

impl CounterSet {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to the counter `name`, creating it at zero first if it
    /// has never been touched.
    pub fn bump(&mut self, name: &str, by: u64) {
        match self.entries.binary_search_by(|(k, _)| k.as_str().cmp(name)) {
            Ok(i) => self.entries[i].1 += by,
            Err(i) => self.entries.insert(i, (name.to_string(), by)),
        }
    }

    /// The current value of `name`; untouched counters read as zero.
    pub fn get(&self, name: &str) -> u64 {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .map_or(0, |i| self.entries[i].1)
    }

    /// Adds every counter of `other` into `self`.
    ///
    /// Merging is associative and commutative — with name-sorted
    /// entries, per-shard counter sets combined in any grouping produce
    /// the *identical* set — see the unit tests.
    pub fn merge(&mut self, other: &CounterSet) {
        for (name, value) in &other.entries {
            self.bump(name, *value);
        }
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of distinct counters touched.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no counter has been touched.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for CounterSet {
    /// One `name = value` line per counter.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in self.iter() {
            writeln!(f, "{name} = {value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(pairs: &[(&str, u64)]) -> CounterSet {
        let mut c = CounterSet::new();
        for &(k, v) in pairs {
            c.bump(k, v);
        }
        c
    }

    /// Value-equality that ignores entry order, for merge laws.
    fn same_values(a: &CounterSet, b: &CounterSet) -> bool {
        a.len() == b.len() && a.iter().all(|(k, v)| b.get(k) == v)
    }

    #[test]
    fn bump_accumulates_and_get_defaults_to_zero() {
        let mut c = CounterSet::new();
        assert_eq!(c.get("x"), 0);
        c.bump("x", 1);
        c.bump("y", 10);
        c.bump("x", 2);
        assert_eq!(c.get("x"), 3);
        assert_eq!(c.get("y"), 10);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn iteration_is_name_sorted_regardless_of_touch_order() {
        let c = set(&[("b", 1), ("a", 2), ("b", 3)]);
        let names: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(c.get("b"), 4);
    }

    #[test]
    fn merge_order_does_not_change_entry_order() {
        // The determinism the differential harness relies on: merging
        // worker sets in any order yields the identical set, entry order
        // included.
        let mut ab = set(&[("x", 1)]);
        ab.merge(&set(&[("a", 2)]));
        let mut ba = set(&[("a", 2)]);
        ba.merge(&set(&[("x", 1)]));
        assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative() {
        let a = set(&[("x", 1), ("y", 2)]);
        let b = set(&[("y", 10), ("z", 5)]);
        let c = set(&[("x", 100), ("z", 50)]);

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        assert!(same_values(&left, &right));
        assert_eq!(left.get("x"), 101);
        assert_eq!(left.get("y"), 12);
        assert_eq!(left.get("z"), 55);
    }

    #[test]
    fn merge_is_commutative_up_to_order() {
        let a = set(&[("x", 1), ("y", 2)]);
        let b = set(&[("y", 10), ("z", 5)]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert!(same_values(&ab, &ba));
    }

    #[test]
    fn merge_identity_is_empty() {
        let a = set(&[("x", 7)]);
        let mut merged = a.clone();
        merged.merge(&CounterSet::new());
        assert_eq!(merged, a);
    }
}
