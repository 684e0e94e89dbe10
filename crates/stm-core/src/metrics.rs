//! Structured per-run observability: an abort-reason taxonomy, latency
//! histograms, and count/sum/max aggregates of protocol observations (ATR
//! occupancy, GTS-stall episodes, store footprint).
//!
//! Every STM implementation fills a [`MetricsReport`] while it runs and the
//! launcher merges the per-warp reports into [`crate::RunResult::metrics`],
//! the same way PR 1 threaded `AnalysisReport`. The bench harness flattens
//! the report into the canonical JSON schema consumed by `bench-gate`.

/// Why a transaction attempt aborted. The taxonomy follows the paper's
/// discussion of CSMV's abort sources plus the baselines' lock conflicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AbortReason {
    /// Commit-time read-set validation found a conflicting committed writer.
    ReadValidation = 0,
    /// Write-write conflict: a versioned lock was held, sealed or stolen
    /// (single-versioned baselines only).
    WriteWrite = 1,
    /// The transaction's snapshot fell out of the ATR ring's window before
    /// it could be validated (slot recycled / walk budget exhausted). The
    /// native engine also fails, terminally, a transaction whose
    /// write-set is larger than one ATR entry holds.
    AtrWindowOverflow = 2,
    /// Intra-warp pre-validation killed this lane in favour of a warp-mate
    /// writing the same item (CSMV clients only).
    PreValidationKill = 3,
    /// The commit server's request queue was full when the request arrived.
    ServerQueueFull = 4,
    /// Version-list overflow: the snapshot was older than the oldest
    /// retained version of a box read during execution.
    VersionOverflow = 5,
    /// The commit server did not answer within the client's send-attempt
    /// budget (request/response lost and retries exhausted, or the server
    /// is dead); the transaction is failed cleanly rather than retried.
    ServerTimeout = 6,
    /// The per-transaction protocol retry budget was exhausted: the
    /// transaction kept aborting for retriable reasons and gave up.
    RetryBudgetExhausted = 7,
    /// The transaction's partition is served by a quarantined (crashed)
    /// server; it fails cleanly while other partitions keep committing.
    ServerUnavailable = 8,
    /// The transaction's snapshot fell below the version-GC watermark: the
    /// version it needed was reclaimed because no *registered* reader held
    /// a snapshot that old. Retriable — a fresh attempt takes a current
    /// snapshot (and may register/pin it, see `stm_core::gc`).
    SnapshotTooOld = 9,
}

impl AbortReason {
    /// All reasons, in id order.
    pub const ALL: [AbortReason; 10] = [
        AbortReason::ReadValidation,
        AbortReason::WriteWrite,
        AbortReason::AtrWindowOverflow,
        AbortReason::PreValidationKill,
        AbortReason::ServerQueueFull,
        AbortReason::VersionOverflow,
        AbortReason::ServerTimeout,
        AbortReason::RetryBudgetExhausted,
        AbortReason::ServerUnavailable,
        AbortReason::SnapshotTooOld,
    ];

    /// Dense id, usable as an array index and as a wire code.
    #[inline]
    pub const fn id(self) -> u8 {
        self as u8
    }

    /// Inverse of [`AbortReason::id`].
    pub const fn from_id(id: u8) -> Option<AbortReason> {
        match id {
            0 => Some(AbortReason::ReadValidation),
            1 => Some(AbortReason::WriteWrite),
            2 => Some(AbortReason::AtrWindowOverflow),
            3 => Some(AbortReason::PreValidationKill),
            4 => Some(AbortReason::ServerQueueFull),
            5 => Some(AbortReason::VersionOverflow),
            6 => Some(AbortReason::ServerTimeout),
            7 => Some(AbortReason::RetryBudgetExhausted),
            8 => Some(AbortReason::ServerUnavailable),
            9 => Some(AbortReason::SnapshotTooOld),
            _ => None,
        }
    }

    /// True for reasons that terminate the transaction instead of sending
    /// it around the retry loop again (failure-recovery outcomes).
    pub const fn is_terminal(self) -> bool {
        matches!(
            self,
            AbortReason::ServerTimeout
                | AbortReason::RetryBudgetExhausted
                | AbortReason::ServerUnavailable
        )
    }

    /// Stable snake_case key used in the JSON schema.
    pub const fn key(self) -> &'static str {
        match self {
            AbortReason::ReadValidation => "read_validation",
            AbortReason::WriteWrite => "write_write",
            AbortReason::AtrWindowOverflow => "atr_window_overflow",
            AbortReason::PreValidationKill => "prevalidation_kill",
            AbortReason::ServerQueueFull => "server_queue_full",
            AbortReason::VersionOverflow => "version_overflow",
            AbortReason::ServerTimeout => "server_timeout",
            AbortReason::RetryBudgetExhausted => "retry_budget_exhausted",
            AbortReason::ServerUnavailable => "server_unavailable",
            AbortReason::SnapshotTooOld => "snapshot_too_old",
        }
    }
}

/// Classes of fault-injection / recovery events observed during a run,
/// counted in [`FaultCounts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FaultEvent {
    /// A client's wait for a server response timed out.
    Timeout = 0,
    /// A client re-posted a request after a timeout (same batch seq).
    Resend = 1,
    /// The fault plan made a client deliver a completed request again.
    DuplicateInjected = 2,
    /// A server recognised and suppressed a duplicate batch.
    DuplicateSuppressed = 3,
    /// The fault plan delayed a request send.
    DelayInjected = 4,
    /// A client declared a server dead (stale heartbeat) and quarantined
    /// its partition.
    Quarantine = 5,
}

impl FaultEvent {
    /// All events, in id order.
    pub const ALL: [FaultEvent; 6] = [
        FaultEvent::Timeout,
        FaultEvent::Resend,
        FaultEvent::DuplicateInjected,
        FaultEvent::DuplicateSuppressed,
        FaultEvent::DelayInjected,
        FaultEvent::Quarantine,
    ];

    /// Dense id, usable as an array index.
    #[inline]
    pub const fn id(self) -> u8 {
        self as u8
    }

    /// Stable snake_case key used in the JSON schema.
    pub const fn key(self) -> &'static str {
        match self {
            FaultEvent::Timeout => "timeouts",
            FaultEvent::Resend => "resends",
            FaultEvent::DuplicateInjected => "duplicates_injected",
            FaultEvent::DuplicateSuppressed => "duplicates_suppressed",
            FaultEvent::DelayInjected => "delays_injected",
            FaultEvent::Quarantine => "quarantines",
        }
    }
}

/// Fault/recovery event counters, one per [`FaultEvent`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    counts: [u64; FaultEvent::ALL.len()],
}

impl FaultCounts {
    /// Record one event.
    #[inline]
    pub fn record(&mut self, event: FaultEvent) {
        self.counts[event.id() as usize] += 1;
    }

    /// Events of one class.
    #[inline]
    pub fn count(&self, event: FaultEvent) -> u64 {
        self.counts[event.id() as usize]
    }

    /// Total events across all classes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Accumulate another counter set.
    pub fn merge(&mut self, other: &FaultCounts) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }
}

/// Abort counters, one per [`AbortReason`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbortCounts {
    counts: [u64; AbortReason::ALL.len()],
}

impl AbortCounts {
    /// Record one abort.
    #[inline]
    pub fn record(&mut self, reason: AbortReason) {
        self.counts[reason.id() as usize] += 1;
    }

    /// Aborts attributed to one reason.
    #[inline]
    pub fn count(&self, reason: AbortReason) -> u64 {
        self.counts[reason.id() as usize]
    }

    /// Total aborts across all reasons.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Accumulate another counter set.
    pub fn merge(&mut self, other: &AbortCounts) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }
}

/// Version-GC and memory-footprint counters (filled by backends with a
/// watermark-gated multi-version store; zero elsewhere). Reported as the
/// `gc.*` / `max_version_list_len` rows in the bench JSON schema.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Ring slots recycled in place: the overwritten version was already
    /// below the reader watermark, so no registered snapshot could need it.
    pub versions_reclaimed: u64,
    /// Versions spilled to an item's overflow list instead of being
    /// reclaimed, because a registered reader's snapshot still needed them.
    pub versions_spilled: u64,
    /// Spilled versions pruned later, once the watermark passed them.
    pub spill_pruned: u64,
    /// Read-only transactions that committed while holding a pinned
    /// snapshot (the starvation-freedom escalation path).
    pub pinned_commits: u64,
    /// Largest per-item version-list length (ring + live spill entries)
    /// observed at any sample point.
    pub max_version_list_len: u64,
    /// Bytes of live version storage (ring words + spill entries) when the
    /// run ended, read once from the store.
    pub footprint_bytes: u64,
}

impl GcStats {
    /// Accumulate another counter set. Counters add; the list-length
    /// high-water mark and the end-of-run footprint take the max.
    pub fn merge(&mut self, other: &GcStats) {
        self.versions_reclaimed += other.versions_reclaimed;
        self.versions_spilled += other.versions_spilled;
        self.spill_pruned += other.spill_pruned;
        self.pinned_commits += other.pinned_commits;
        self.max_version_list_len = self.max_version_list_len.max(other.max_version_list_len);
        self.footprint_bytes = self.footprint_bytes.max(other.footprint_bytes);
    }
}

/// log2 of the exact region: values below `1 << SUB_BITS` (128) have a
/// slot each.
const SUB_BITS: u32 = 7;
/// Linear sub-buckets per power of two above the exact region (64), so a
/// slot is at most 1/64 (1.6 %) of its values wide.
const SUB_BUCKETS: usize = 1 << (SUB_BITS - 1);

/// Slot of `v`: `v` itself below 128, then [`SUB_BUCKETS`] linear
/// sub-buckets per power of two. Monotone in `v`; `u64::MAX` is slot 3775.
#[inline]
fn slot_of(v: u64) -> usize {
    // Or-ing in 127 makes the shift 0 in the exact region, without a branch.
    let shift = (v | ((1 << SUB_BITS) - 1)).ilog2() + 1 - SUB_BITS;
    shift as usize * SUB_BUCKETS + (v >> shift) as usize
}

/// Largest value in `slot` (the inverse of [`slot_of`]'s upper edge).
fn slot_max(slot: usize) -> u64 {
    let shift = (slot / SUB_BUCKETS).saturating_sub(1);
    (((slot - shift * SUB_BUCKETS) as u64) << shift) | ((1u64 << shift) - 1)
}

/// `counts`, which starts at slot `first`, widened to span slots
/// `lo..=hi` as well; returns the new first slot with it. Takes and
/// returns the vector by value so that the recording path lends the
/// histogram to no call, and a loop of records keeps its totals in
/// registers.
#[cold]
#[inline(never)]
fn widen(first: usize, mut counts: Vec<u64>, lo: usize, hi: usize) -> (usize, Vec<u64>) {
    let first = if counts.is_empty() { lo } else { first };
    let lo = lo.min(first);
    let end = (hi + 1).max(first + counts.len());
    counts.reserve_exact(end - lo - counts.len());
    counts.resize(end - first, 0);
    counts.splice(0..0, std::iter::repeat_n(0, first - lo));
    (lo, counts)
}

/// A log-linear histogram of `u64` samples (cycles, microseconds): values
/// below 128 are exact, and each power of two above has 64 linear
/// sub-buckets, so a quantile is at most 1.6 % above the sample it stands
/// for. Counts are stored only from the lowest recorded slot to the
/// highest, so an empty histogram allocates nothing, and two histograms
/// holding the same samples compare equal however they were recorded and
/// merged. Exact min/max/sum are kept alongside so means are not quantized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Slot of `counts[0]`; 0 while empty.
    first: usize,
    /// Counts of the slots from `first` on; the first and last are nonzero.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            first: 0,
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let slot = slot_of(value);
        match self.counts.get_mut(slot.wrapping_sub(self.first)) {
            Some(n) => *n += 1,
            None => {
                let counts = std::mem::take(&mut self.counts);
                (self.first, self.counts) = widen(self.first, counts, slot, slot);
                self.counts[slot - self.first] += 1;
            }
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate: the inclusive upper bound of the slot containing
    /// the `q`-quantile sample (`q` in `[0, 1]`), clamped into
    /// `[min, max]`. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return slot_max(self.first + i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Accumulate another histogram.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        let (lo, hi) = (other.first, other.first + other.counts.len() - 1);
        if lo < self.first || hi - self.first >= self.counts.len() {
            let counts = std::mem::take(&mut self.counts);
            (self.first, self.counts) = widen(self.first, counts, lo, hi);
        }
        let offset = lo - self.first;
        for (a, b) in self.counts[offset..].iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A count/sum/max aggregate of `u64` observations (occupancies, stall
/// lengths, footprints). It keeps no samples, so it never grows however
/// long a run is, and two series holding the same observations compare
/// equal however they were recorded and merged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Series {
    count: u64,
    sum: u64,
    max: u64,
}

impl Series {
    /// Record one observation.
    #[inline]
    pub fn push(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Observations recorded.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of every observation's value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest observed value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of every observation's value.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Accumulate another series.
    pub fn merge(&mut self, other: &Series) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Counters of a commit pipeline no backend has any more: every field is
/// always zero. The repository benchmark (`benchmark/`) still reads both
/// fields, so they stay until the benchmark's own change deletes them
/// with this struct (ROADMAP item 1c).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Executions run while a batch awaited its turn: always zero.
    pub spec_executed: u64,
    /// Of those, executions discarded before validation: always zero.
    pub spec_squashed: u64,
}

impl PipelineStats {
    /// Accumulate another counter set.
    pub fn merge(&mut self, other: &PipelineStats) {
        self.spec_executed += other.spec_executed;
        self.spec_squashed += other.spec_squashed;
    }
}

/// The per-run observability report. Times are in simulated cycles on the
/// simulator's STMs and in nanoseconds on the native host
/// (`csmv-native`); the CPU baseline leaves the report empty.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Aborts by reason.
    pub aborts: AbortCounts,
    /// Attempt-start → commit latency of committed attempts, in cycles.
    pub commit_latency: Histogram,
    /// Attempt-start → abort latency of aborted attempts, in cycles.
    pub abort_latency: Histogram,
    /// Commit-server validation batch sizes (requests per batch); empty for
    /// serverless STMs.
    pub batch_sizes: Histogram,
    /// ATR ring occupancy (live records in the window) sampled when a
    /// committer reserves timestamps; empty for STMs without an ATR.
    pub atr_occupancy: Series,
    /// GTS turn-taking stall episodes: one observation per wait, the time
    /// spent waiting for the publication turn. What counts as a wait is the
    /// host's: the simulator's CSMV client records every turn, a zero for
    /// one already reached, while the native worker records only turns
    /// that actually waited. The sum per commit means the same on both;
    /// the count and the mean do not.
    pub gts_stall: Series,
    /// ATR entry-wait stall episodes: one observation per blocking wait on
    /// an in-flight (reserved but unpublished) entry, the time spent
    /// waiting. Only the native host records it, and there the waiter is
    /// the committing worker's validator (the paper's server role, run in
    /// place); empty on the simulator's STMs.
    pub server_stall: Series,
    /// Always zero; kept for the benchmark's reads ([`PipelineStats`]).
    pub pipeline: PipelineStats,
    /// Injected-fault and recovery event counters; all zero on fault-free
    /// runs.
    pub faults: FaultCounts,
    /// Version-GC counters; all zero on backends without a watermark-gated
    /// store.
    pub gc: GcStats,
    /// Multi-version store memory footprint, bytes of live version storage
    /// (ring words + spill entries), observed once per worker round. Empty
    /// on backends that do not observe it.
    pub footprint: Series,
}

impl MetricsReport {
    /// Record an abort with its latency.
    pub fn record_abort(&mut self, reason: AbortReason, latency_cycles: u64) {
        self.aborts.record(reason);
        self.abort_latency.record(latency_cycles);
    }

    /// Record a fault/recovery event.
    pub fn record_fault(&mut self, event: FaultEvent) {
        self.faults.record(event);
    }

    /// Record a commit latency.
    pub fn record_commit(&mut self, latency_cycles: u64) {
        self.commit_latency.record(latency_cycles);
    }

    /// Accumulate another warp's report.
    pub fn merge(&mut self, other: &MetricsReport) {
        self.aborts.merge(&other.aborts);
        self.commit_latency.merge(&other.commit_latency);
        self.abort_latency.merge(&other.abort_latency);
        self.batch_sizes.merge(&other.batch_sizes);
        self.atr_occupancy.merge(&other.atr_occupancy);
        self.gts_stall.merge(&other.gts_stall);
        self.server_stall.merge(&other.server_stall);
        self.pipeline.merge(&other.pipeline);
        self.faults.merge(&other.faults);
        self.gc.merge(&other.gc);
        self.footprint.merge(&other.footprint);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reason_ids_are_dense_and_round_trip() {
        for (i, r) in AbortReason::ALL.iter().enumerate() {
            assert_eq!(r.id() as usize, i);
            assert_eq!(AbortReason::from_id(r.id()), Some(*r));
        }
        assert_eq!(AbortReason::from_id(AbortReason::ALL.len() as u8), None);
    }

    #[test]
    fn reason_keys_are_distinct() {
        let mut keys: Vec<_> = AbortReason::ALL.iter().map(|r| r.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), AbortReason::ALL.len());
    }

    #[test]
    fn abort_counts_accumulate_and_merge() {
        let mut a = AbortCounts::default();
        a.record(AbortReason::ReadValidation);
        a.record(AbortReason::ReadValidation);
        a.record(AbortReason::VersionOverflow);
        let mut b = AbortCounts::default();
        b.record(AbortReason::WriteWrite);
        a.merge(&b);
        assert_eq!(a.count(AbortReason::ReadValidation), 2);
        assert_eq!(a.count(AbortReason::WriteWrite), 1);
        assert_eq!(a.count(AbortReason::VersionOverflow), 1);
        assert_eq!(a.count(AbortReason::ServerQueueFull), 0);
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn fault_event_ids_are_dense_and_keys_distinct() {
        for (i, e) in FaultEvent::ALL.iter().enumerate() {
            assert_eq!(e.id() as usize, i);
        }
        let mut keys: Vec<_> = FaultEvent::ALL.iter().map(|e| e.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), FaultEvent::ALL.len());
    }

    #[test]
    fn fault_counts_record_and_merge_through_reports() {
        let mut a = MetricsReport::default();
        a.record_fault(FaultEvent::Timeout);
        a.record_fault(FaultEvent::Resend);
        let mut b = MetricsReport::default();
        b.record_fault(FaultEvent::Resend);
        a.merge(&b);
        assert_eq!(a.faults.count(FaultEvent::Timeout), 1);
        assert_eq!(a.faults.count(FaultEvent::Resend), 2);
        assert_eq!(a.faults.total(), 3);
    }

    #[test]
    fn terminal_reasons_are_exactly_the_recovery_outcomes() {
        let terminal: Vec<_> = AbortReason::ALL
            .iter()
            .copied()
            .filter(|r| r.is_terminal())
            .collect();
        assert_eq!(
            terminal,
            vec![
                AbortReason::ServerTimeout,
                AbortReason::RetryBudgetExhausted,
                AbortReason::ServerUnavailable,
            ]
        );
    }

    #[test]
    fn snapshot_too_old_is_retriable() {
        assert!(!AbortReason::SnapshotTooOld.is_terminal());
        assert_eq!(AbortReason::SnapshotTooOld.key(), "snapshot_too_old");
        assert_eq!(
            AbortReason::from_id(AbortReason::SnapshotTooOld.id()),
            Some(AbortReason::SnapshotTooOld)
        );
    }

    #[test]
    fn gc_stats_merge_adds_counters_and_maxes_list_len() {
        let mut a = GcStats {
            versions_reclaimed: 5,
            versions_spilled: 2,
            spill_pruned: 1,
            pinned_commits: 1,
            max_version_list_len: 8,
            footprint_bytes: 4096,
        };
        let b = GcStats {
            versions_reclaimed: 3,
            versions_spilled: 4,
            spill_pruned: 2,
            pinned_commits: 0,
            max_version_list_len: 12,
            footprint_bytes: 0,
        };
        a.merge(&b);
        assert_eq!(a.versions_reclaimed, 8);
        assert_eq!(a.versions_spilled, 6);
        assert_eq!(a.spill_pruned, 3);
        assert_eq!(a.pinned_commits, 1);
        assert_eq!(a.max_version_list_len, 12);
        assert_eq!(a.footprint_bytes, 4096);
    }

    #[test]
    fn report_merge_covers_gc_and_footprint() {
        let mut a = MetricsReport::default();
        a.gc.versions_reclaimed = 2;
        a.footprint.push(100);
        let mut b = MetricsReport::default();
        b.gc.versions_reclaimed = 3;
        b.gc.max_version_list_len = 7;
        b.footprint.push(200);
        a.merge(&b);
        assert_eq!(a.gc.versions_reclaimed, 5);
        assert_eq!(a.gc.max_version_list_len, 7);
        assert_eq!(a.footprint.len(), 2);
        assert_eq!(a.footprint.max(), 200);
    }

    #[test]
    fn histogram_tracks_exact_moments() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 1106.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(
            h.counts.capacity(),
            0,
            "an empty histogram allocates nothing"
        );
        // Merging an empty histogram changes nothing, empty or not.
        let mut g = Histogram::default();
        g.merge(&h);
        assert_eq!(g, h);
        g.record(300);
        let before = g.clone();
        g.merge(&h);
        assert_eq!(g, before);
    }

    #[test]
    fn quantile_bounds_the_right_bucket() {
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.record(10); // below 128: a slot of its own
        }
        h.record(1 << 20);
        assert_eq!(h.quantile(0.5), 10);
        // p100 lands in the outlier's slot, clamped to the exact max.
        assert_eq!(h.quantile(1.0), 1 << 20);
        let mut lo = Histogram::default();
        lo.record(0);
        lo.record(1);
        assert_eq!(lo.quantile(0.25), 0);
        assert_eq!(lo.quantile(1.0), 1);
        // Above 128 the quantile is its slot's upper edge: 1000 shares
        // [1000, 1007] with its neighbours.
        let mut mid = Histogram::default();
        mid.record(1000);
        mid.record(5000);
        assert_eq!(mid.quantile(0.5), 1007);
    }

    #[test]
    fn slots_are_monotone_and_in_range_across_the_u64_domain() {
        let top = slot_of(u64::MAX);
        assert_eq!(slot_max(top), u64::MAX);
        let mut last = 0;
        let mut v: u64 = 0;
        loop {
            let s = slot_of(v);
            assert!(s <= top, "v={v} slot={s}");
            assert!(s >= last, "slot regressed at v={v}");
            assert!(slot_max(s) >= v, "upper bound below value at v={v}");
            assert!(
                s == 0 || slot_max(s - 1) < v,
                "v={v} also fits slot {}",
                s - 1
            );
            last = s;
            if v > u64::MAX / 3 {
                break;
            }
            v = v * 3 + 1;
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::default();
        for v in 0..128 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 63);
        assert_eq!(h.quantile(1.0), 127);
        assert_eq!(h.max(), 127);
        assert_eq!(h.count(), 128);
    }

    #[test]
    fn large_values_have_bounded_relative_error() {
        for v in [1_500u64, 23_456, 987_654, 12_345_678, 3_000_000_000] {
            // A second, larger sample keeps the max clamp out of the way.
            let mut h = Histogram::default();
            h.record(v);
            h.record(2 * v);
            let q = h.quantile(0.5);
            assert!(q >= v && (q - v) as f64 <= v as f64 * 0.016, "v={v} q={q}");
        }
    }

    #[test]
    fn p999_separates_a_tail_from_the_body() {
        let mut h = Histogram::default();
        for _ in 0..999 {
            h.record(100);
        }
        h.record(1_000_000);
        assert_eq!(h.quantile(0.5), 100);
        assert_eq!(h.quantile(0.99), 100);
        assert!(h.quantile(0.999) >= 100);
        assert!(h.quantile(1.0) >= 990_000);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut whole) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for v in 0..2_000u64 {
            let x = v * v % 77_777;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            whole.record(x);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        for q in [0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut c = Histogram::default();
        for v in [5, 7, 9] {
            a.record(v);
            c.record(v);
        }
        for v in [100, 200] {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a, c);
    }

    #[test]
    fn series_merge_adds_counts_and_keeps_max() {
        let mut a = Series::default();
        a.push(1);
        a.push(3);
        let mut b = Series::default();
        b.push(2);
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.sum(), 6);
        assert_eq!(a.max(), 3);
        assert!((a.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn report_records_and_merges() {
        let mut a = MetricsReport::default();
        a.record_commit(100);
        a.record_abort(AbortReason::PreValidationKill, 40);
        let mut b = MetricsReport::default();
        b.record_commit(200);
        b.batch_sizes.record(8);
        b.atr_occupancy.push(3);
        b.gts_stall.push(12);
        b.server_stall.push(9);
        a.merge(&b);
        assert_eq!(a.commit_latency.count(), 2);
        assert_eq!(a.abort_latency.count(), 1);
        assert_eq!(a.aborts.count(AbortReason::PreValidationKill), 1);
        assert_eq!(a.batch_sizes.count(), 1);
        assert_eq!(a.atr_occupancy.len(), 1);
        assert_eq!(a.gts_stall.len(), 1);
        assert_eq!(a.server_stall.len(), 1);
        assert_eq!(a.server_stall.sum(), 9);
    }

    #[test]
    fn pipeline_stats_merge_adds_counters() {
        let mut a = MetricsReport::default();
        a.pipeline.spec_executed = 10;
        a.pipeline.spec_squashed = 2;
        let mut b = MetricsReport::default();
        b.pipeline.spec_executed = 5;
        b.pipeline.spec_squashed = 1;
        a.merge(&b);
        assert_eq!(a.pipeline.spec_executed, 15);
        assert_eq!(a.pipeline.spec_squashed, 3);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 24 })]
            /// A quantile is at or above the exact order statistic and at
            /// most 1/64 above it; recording into two histograms and
            /// merging equals recording into one.
            #[test]
            fn quantiles_bound_the_order_statistic_and_merge_is_exact(
                samples in proptest::collection::vec(
                    (0u8..2, 24u32..64, proptest::num::u64::ANY),
                    1..80,
                ),
                permille in 0u32..1001,
            ) {
                let values: Vec<u64> = samples.iter().map(|&(_, s, x)| x >> s).collect();
                let (mut a, mut b, mut whole) =
                    (Histogram::default(), Histogram::default(), Histogram::default());
                for (&(side, _, _), &v) in samples.iter().zip(&values) {
                    if side == 0 { a.record(v) } else { b.record(v) }
                    whole.record(v);
                }
                b.merge(&a);
                prop_assert_eq!(&b, &whole);

                let mut sorted = values.clone();
                sorted.sort_unstable();
                let q = permille as f64 / 1000.0;
                let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
                let exact = sorted[rank - 1];
                let got = whole.quantile(q);
                prop_assert!(got >= exact, "q={} got={} exact={}", q, got, exact);
                prop_assert!(got - exact <= exact / 64, "q={} got={} exact={}", q, got, exact);
            }
        }

        /// splitmix64: the observations and their split of one case.
        fn next(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 16 })]
            /// However a long run's observations are split across series
            /// and in whatever order those are merged, the result is the
            /// series that recorded them all.
            #[test]
            fn series_merges_in_any_order_equal_one_recording(
                seed in proptest::num::u64::ANY,
                parts in 2usize..9,
                n in 70_000u64..72_000,
            ) {
                let mut state = seed;
                let mut whole = Series::default();
                let mut split = vec![Series::default(); parts];
                for _ in 0..n {
                    let value = next(&mut state) >> 24;
                    split[(next(&mut state) % parts as u64) as usize].push(value);
                    whole.push(value);
                }
                let mut order: Vec<usize> = (0..parts).collect();
                for i in (1..parts).rev() {
                    order.swap(i, (next(&mut state) % (i as u64 + 1)) as usize);
                }
                for order in [order.clone(), order.into_iter().rev().collect()] {
                    let mut merged = Series::default();
                    for &i in &order {
                        merged.merge(&split[i]);
                    }
                    prop_assert_eq!(merged, whole);
                }
            }
        }
    }
}
