//! Core data-shape traits, the per-task context, and the map-side emitter.

use std::collections::BTreeMap;
use std::hash::Hash;
use std::sync::Arc;

/// Marker for types usable as shuffle keys.
///
/// `Ord` (not just `Eq + Hash`) is required so that per-reducer key groups
/// can be processed in sorted order, making every job deterministic —
/// Hadoop's reduce-side sort, kept here for reproducibility rather than
/// necessity.
pub trait KeyT: Clone + Send + Sync + Eq + Ord + Hash + 'static {}
impl<T: Clone + Send + Sync + Eq + Ord + Hash + 'static> KeyT for T {}

/// Marker for types usable as records and values.
pub trait DataT: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> DataT for T {}

/// Estimates the serialized size of a key/value pair for shuffle-volume
/// accounting. Jobs can install a custom sizer; the default charges the
/// in-memory `size_of` of the pair, which is exact for plain-old-data
/// keys/values and a documented lower bound for heap-owning ones.
pub type KvSizer<K, V> = Arc<dyn Fn(&K, &V) -> usize + Send + Sync>;

/// Per-task counters, filled in by user code and the framework, consumed by
/// the [`CostModel`](crate::cost::CostModel).
///
/// `work_units` is the extension point for algorithm-specific CPU cost: the
/// skyline jobs report dimension-weighted dominance comparisons (one unit ≈
/// one coordinate visited), so a 10-D comparison costs 10 units.
#[derive(Debug, Default, Clone)]
pub struct TaskContext {
    /// Index of this task within its phase.
    pub task_index: usize,
    /// Attempt number (0 = first attempt; >0 after injected chaos faults).
    pub attempt: u32,
    records_in: u64,
    records_out: u64,
    bytes_out: u64,
    work_units: u64,
    counters: BTreeMap<&'static str, u64>,
}

impl TaskContext {
    /// Creates a context for task `task_index`, attempt `attempt`.
    pub fn new(task_index: usize, attempt: u32) -> Self {
        Self {
            task_index,
            attempt,
            ..Self::default()
        }
    }

    /// Records `n` input records consumed (called by the framework).
    #[inline]
    pub fn add_records_in(&mut self, n: u64) {
        self.records_in += n;
    }

    /// Records `n` output records produced (called by the emitter/framework).
    #[inline]
    pub fn add_records_out(&mut self, n: u64) {
        self.records_out += n;
    }

    /// Records `n` output bytes (called by the emitter/framework).
    #[inline]
    pub fn add_bytes_out(&mut self, n: u64) {
        self.bytes_out += n;
    }

    /// Charges `n` units of algorithm CPU work to this task.
    #[inline]
    pub fn add_work(&mut self, n: u64) {
        self.work_units += n;
    }

    /// Input records consumed so far.
    #[inline]
    pub fn records_in(&self) -> u64 {
        self.records_in
    }

    /// Output records produced so far.
    #[inline]
    pub fn records_out(&self) -> u64 {
        self.records_out
    }

    /// Output bytes produced so far.
    #[inline]
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out
    }

    /// Algorithm work units charged so far.
    #[inline]
    pub fn work_units(&self) -> u64 {
        self.work_units
    }

    /// Increments the named user counter by `n` — Hadoop-style job counters,
    /// aggregated per phase into [`PhaseMetrics`](crate::metrics::PhaseMetrics).
    #[inline]
    pub fn incr(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// This task's named counters.
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }
}

/// Map-side output collector handed to [`Mapper::map`](crate::Mapper::map).
///
/// Buffers `(key, value)` pairs in memory (this runtime's "spill file") and
/// keeps the byte accounting consistent with the installed sizer.
pub struct Emitter<K, V> {
    pairs: Vec<(K, V)>,
    bytes: u64,
    sizer: Option<KvSizer<K, V>>,
}

impl<K: KeyT, V: DataT> Emitter<K, V> {
    /// Creates an emitter; `sizer` overrides the default size estimate.
    pub fn new(sizer: Option<KvSizer<K, V>>) -> Self {
        Self {
            pairs: Vec::new(),
            bytes: 0,
            sizer,
        }
    }

    /// Emits one intermediate pair.
    #[inline]
    pub fn emit(&mut self, key: K, value: V) {
        self.bytes += self.pair_size(&key, &value) as u64;
        self.pairs.push((key, value));
    }

    #[inline]
    fn pair_size(&self, key: &K, value: &V) -> usize {
        match &self.sizer {
            Some(s) => s(key, value),
            None => std::mem::size_of::<K>() + std::mem::size_of::<V>(),
        }
    }

    /// Number of pairs emitted.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` if nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Total estimated bytes emitted.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Consumes the emitter, returning the buffered pairs and byte count.
    pub fn into_parts(self) -> (Vec<(K, V)>, u64) {
        (self.pairs, self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_counters_accumulate() {
        let mut ctx = TaskContext::new(3, 1);
        assert_eq!(ctx.task_index, 3);
        assert_eq!(ctx.attempt, 1);
        ctx.add_records_in(5);
        ctx.add_records_in(2);
        ctx.add_records_out(4);
        ctx.add_bytes_out(100);
        ctx.add_work(7);
        assert_eq!(ctx.records_in(), 7);
        assert_eq!(ctx.records_out(), 4);
        assert_eq!(ctx.bytes_out(), 100);
        assert_eq!(ctx.work_units(), 7);
    }

    #[test]
    fn named_counters_accumulate() {
        let mut ctx = TaskContext::new(0, 0);
        ctx.incr("pruned", 2);
        ctx.incr("pruned", 3);
        ctx.incr("spilled", 1);
        assert_eq!(ctx.counters()["pruned"], 5);
        assert_eq!(ctx.counters()["spilled"], 1);
        assert_eq!(ctx.counters().len(), 2);
    }

    #[test]
    fn emitter_default_sizer_uses_size_of() {
        let mut e: Emitter<u64, f64> = Emitter::new(None);
        e.emit(1, 2.0);
        e.emit(3, 4.0);
        assert_eq!(e.len(), 2);
        assert_eq!(e.bytes(), 32);
        let (pairs, bytes) = e.into_parts();
        assert_eq!(pairs, vec![(1, 2.0), (3, 4.0)]);
        assert_eq!(bytes, 32);
    }

    #[test]
    fn emitter_custom_sizer() {
        let sizer: KvSizer<u32, String> = Arc::new(|_k, v| 4 + v.len());
        let mut e = Emitter::new(Some(sizer));
        e.emit(1, "hello".to_string());
        assert_eq!(e.bytes(), 9);
        assert!(!e.is_empty());
    }
}
