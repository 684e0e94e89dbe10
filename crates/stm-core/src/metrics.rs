//! Structured per-run observability: an abort-reason taxonomy, latency
//! histograms in simulated cycles, and protocol time series (ATR occupancy,
//! GTS-stall episodes, server batch sizes).
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
    /// The server recognised the request as a duplicate of an
    /// already-processed batch and dropped it instead of re-committing.
    DuplicateDropped = 9,
    /// The transaction's snapshot fell below the version-GC watermark: the
    /// version it needed was reclaimed because no *registered* reader held
    /// a snapshot that old. Retriable — a fresh attempt takes a current
    /// snapshot (and may register/pin it, see `stm_core::gc`).
    SnapshotTooOld = 10,
}

impl AbortReason {
    /// All reasons, in id order.
    pub const ALL: [AbortReason; 11] = [
        AbortReason::ReadValidation,
        AbortReason::WriteWrite,
        AbortReason::AtrWindowOverflow,
        AbortReason::PreValidationKill,
        AbortReason::ServerQueueFull,
        AbortReason::VersionOverflow,
        AbortReason::ServerTimeout,
        AbortReason::RetryBudgetExhausted,
        AbortReason::ServerUnavailable,
        AbortReason::DuplicateDropped,
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
            9 => Some(AbortReason::DuplicateDropped),
            10 => Some(AbortReason::SnapshotTooOld),
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
            AbortReason::DuplicateDropped => "duplicate_dropped",
            AbortReason::SnapshotTooOld => "snapshot_too_old",
        }
    }
}

/// Classes of fault-injection / recovery events observed during a run.
/// Counted in [`FaultCounts`] and time-stamped in
/// [`MetricsReport::fault_events`].
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

    /// Dense id, usable as an array index and a series value.
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
}

impl GcStats {
    /// Accumulate another counter set. Counters add; the list-length
    /// high-water mark takes the max.
    pub fn merge(&mut self, other: &GcStats) {
        self.versions_reclaimed += other.versions_reclaimed;
        self.versions_spilled += other.versions_spilled;
        self.spill_pruned += other.spill_pruned;
        self.pinned_commits += other.pinned_commits;
        self.max_version_list_len = self.max_version_list_len.max(other.max_version_list_len);
    }
}

/// A power-of-two-bucket histogram of `u64` samples (cycle counts). Bucket
/// `i` holds samples whose value has bit-length `i`, i.e. values in
/// `[2^(i-1), 2^i)` (bucket 0 holds the value 0). Exact min/max/sum are kept
/// alongside so means are not quantized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
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

    /// Quantile estimate: the inclusive upper bound of the bucket containing
    /// the `q`-quantile sample (`q` in `[0, 1]`). 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper bound of bucket i is 2^i - 1 (bucket 0 holds only 0),
                // clamped to the exact max so outliers don't over-report.
                let ub = if i == 0 { 0 } else { (1u64 << i.min(63)) - 1 };
                return ub.min(self.max);
            }
        }
        self.max
    }

    /// Accumulate another histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One time-series sample: a value observed at a simulated cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Simulated time of the observation, in cycles.
    pub cycle: u64,
    /// Observed value (meaning depends on the series).
    pub value: u64,
}

/// A bounded time series of [`Sample`]s. Samples beyond
/// [`Series::MAX_SAMPLES`] are counted but dropped, so pathological runs
/// cannot balloon the report; `merge` re-sorts by cycle (then value) to keep
/// the aggregate deterministic regardless of harvest order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Series {
    samples: Vec<Sample>,
    dropped: u64,
}

impl Series {
    /// Retention cap per series.
    pub const MAX_SAMPLES: usize = 1 << 16;

    /// Record one observation.
    pub fn push(&mut self, cycle: u64, value: u64) {
        if self.samples.len() < Self::MAX_SAMPLES {
            self.samples.push(Sample { cycle, value });
        } else {
            self.dropped += 1;
        }
    }

    /// The retained samples, sorted by cycle after a `merge`.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Observations recorded, including dropped ones.
    pub fn len(&self) -> u64 {
        self.samples.len() as u64 + self.dropped
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mean of the retained samples' values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().map(|s| s.value).sum::<u64>() as f64 / self.samples.len() as f64
        }
    }

    /// Largest retained value (0 when empty).
    pub fn max(&self) -> u64 {
        self.samples.iter().map(|s| s.value).max().unwrap_or(0)
    }

    /// Sum of the retained samples' values.
    pub fn sum(&self) -> u64 {
        self.samples.iter().map(|s| s.value).sum()
    }

    /// Append another series, keeping cycle order and the retention cap.
    pub fn merge(&mut self, other: &Series) {
        self.dropped += other.dropped;
        for s in &other.samples {
            if self.samples.len() < Self::MAX_SAMPLES {
                self.samples.push(*s);
            } else {
                self.dropped += 1;
            }
        }
        self.samples.sort_by_key(|s| (s.cycle, s.value));
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

/// The per-run observability report. All counters are in simulated cycles /
/// simulated events; wall-clock-measured systems (the CPU baseline) leave
/// the report empty.
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
    /// GTS turn-taking stall episodes: one sample per wait, `value` = cycles
    /// spent waiting for the publication turn. What counts as a wait is the
    /// host's: the simulator's CSMV client records every turn, a zero for
    /// one already reached, while the native worker records only turns
    /// that actually waited. The sum per commit means the same on both;
    /// the sample count and the mean do not.
    pub gts_stall: Series,
    /// Server-side ATR entry-wait stall episodes: one sample per blocking
    /// wait on an in-flight (reserved but unpublished) entry, `value` =
    /// cycles spent waiting. Empty for STMs without a commit server.
    pub server_stall: Series,
    /// Always zero; kept for the benchmark's reads ([`PipelineStats`]).
    pub pipeline: PipelineStats,
    /// Injected-fault and recovery event counters; all zero on fault-free
    /// runs.
    pub faults: FaultCounts,
    /// Time series of fault/recovery events: one sample per event, `value` =
    /// the [`FaultEvent`] id. Empty on fault-free runs.
    pub fault_events: Series,
    /// Version-GC counters; all zero on backends without a watermark-gated
    /// store.
    pub gc: GcStats,
    /// Multi-version store memory footprint samples, `value` = bytes of
    /// live version storage (ring words + spill entries). Empty on
    /// backends that do not sample it.
    pub footprint: Series,
}

impl MetricsReport {
    /// Record an abort with its latency.
    pub fn record_abort(&mut self, reason: AbortReason, latency_cycles: u64) {
        self.aborts.record(reason);
        self.abort_latency.record(latency_cycles);
    }

    /// Record a fault/recovery event at a cycle.
    pub fn record_fault(&mut self, event: FaultEvent, cycle: u64) {
        self.faults.record(event);
        self.fault_events.push(cycle, event.id() as u64);
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
        self.fault_events.merge(&other.fault_events);
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
        a.record_fault(FaultEvent::Timeout, 100);
        a.record_fault(FaultEvent::Resend, 150);
        let mut b = MetricsReport::default();
        b.record_fault(FaultEvent::Resend, 50);
        a.merge(&b);
        assert_eq!(a.faults.count(FaultEvent::Timeout), 1);
        assert_eq!(a.faults.count(FaultEvent::Resend), 2);
        assert_eq!(a.faults.total(), 3);
        assert_eq!(a.fault_events.len(), 3);
        // Merge re-sorts by cycle.
        let cycles: Vec<u64> = a.fault_events.samples().iter().map(|s| s.cycle).collect();
        assert_eq!(cycles, vec![50, 100, 150]);
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
        };
        let b = GcStats {
            versions_reclaimed: 3,
            versions_spilled: 4,
            spill_pruned: 2,
            pinned_commits: 0,
            max_version_list_len: 12,
        };
        a.merge(&b);
        assert_eq!(a.versions_reclaimed, 8);
        assert_eq!(a.versions_spilled, 6);
        assert_eq!(a.spill_pruned, 3);
        assert_eq!(a.pinned_commits, 1);
        assert_eq!(a.max_version_list_len, 12);
    }

    #[test]
    fn report_merge_covers_gc_and_footprint() {
        let mut a = MetricsReport::default();
        a.gc.versions_reclaimed = 2;
        a.footprint.push(10, 100);
        let mut b = MetricsReport::default();
        b.gc.versions_reclaimed = 3;
        b.gc.max_version_list_len = 7;
        b.footprint.push(5, 200);
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
    }

    #[test]
    fn quantile_bounds_the_right_bucket() {
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.record(10); // bucket 4: [8, 16)
        }
        h.record(1 << 20);
        assert_eq!(h.quantile(0.5), 15);
        // p100 lands in the outlier's bucket, clamped to the exact max.
        assert_eq!(h.quantile(1.0), 1 << 20);
        let mut lo = Histogram::default();
        lo.record(0);
        lo.record(1);
        assert_eq!(lo.quantile(0.25), 0);
        assert_eq!(lo.quantile(1.0), 1);
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
    fn series_merge_sorts_by_cycle_and_caps() {
        let mut a = Series::default();
        a.push(10, 1);
        a.push(30, 3);
        let mut b = Series::default();
        b.push(20, 2);
        a.merge(&b);
        let cycles: Vec<u64> = a.samples().iter().map(|s| s.cycle).collect();
        assert_eq!(cycles, vec![10, 20, 30]);
        assert_eq!(a.len(), 3);
        assert_eq!(a.sum(), 6);
        assert_eq!(a.max(), 3);
        assert!((a.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn series_drops_beyond_cap_but_keeps_count() {
        let mut s = Series::default();
        for i in 0..(Series::MAX_SAMPLES as u64 + 10) {
            s.push(i, 1);
        }
        assert_eq!(s.samples().len(), Series::MAX_SAMPLES);
        assert_eq!(s.len(), Series::MAX_SAMPLES as u64 + 10);
    }

    #[test]
    fn report_records_and_merges() {
        let mut a = MetricsReport::default();
        a.record_commit(100);
        a.record_abort(AbortReason::PreValidationKill, 40);
        let mut b = MetricsReport::default();
        b.record_commit(200);
        b.batch_sizes.record(8);
        b.atr_occupancy.push(50, 3);
        b.gts_stall.push(60, 12);
        b.server_stall.push(70, 9);
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
}
