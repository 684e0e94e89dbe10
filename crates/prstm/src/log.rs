//! The lock-mutation log: a simulator-level accelerator for PR-STM's
//! incremental validation.
//!
//! PR-STM has no global clock, so opacity requires a transaction to
//! re-examine its entire read-set on **every** read (and once more at
//! commit) — the O(read-set²) instrumentation cost that dominates the
//! paper's Table II for long read-only transactions. Simulating each of
//! those re-reads word-by-word would multiply host time by the same factor,
//! so we use an exact shortcut:
//!
//! * every mutation of a lock word (acquire, steal, release, version bump)
//!   appends the item to this log;
//! * a revalidation scans only the log suffix since its previous
//!   revalidation (its *cursor*) and re-checks — via an uncosted peek — the
//!   current lock word of any logged item that is in its read-set;
//! * the *cycle cost* charged is that of the full read-set re-read
//!   (`WarpCtx::charge_global_accesses`), exactly as the real protocol
//!   would pay.
//!
//! Because log order coincides with simulated-time order (the scheduler
//! executes steps in clock order) and a re-check inspects the *current*
//! word, the accept/abort outcome is identical to re-reading every lock
//! word at the validation instant.

use std::cell::{Ref, RefCell};
use std::rc::Rc;

/// Shared, append-only list of items whose lock word was mutated. Every
/// warp of one device holds a handle; the device steps them one at a time
/// on one host thread, so appends land in simulated-time order.
#[derive(Clone, Default)]
pub struct LockLog {
    inner: Rc<RefCell<Vec<u64>>>,
}

impl LockLog {
    /// New empty log.
    pub fn new() -> Self {
        Self::default()
    }

    fn guard(&self) -> Ref<'_, Vec<u64>> {
        self.inner.borrow()
    }

    /// Record a mutation of `item`'s lock word.
    pub fn push(&self, item: u64) {
        self.inner.borrow_mut().push(item);
    }

    /// Current length (used as a revalidation cursor).
    pub fn len(&self) -> usize {
        self.guard().len()
    }

    /// True when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.guard().is_empty()
    }

    /// Visit the items logged at positions `[cursor, len)`.
    pub fn scan_since(&self, cursor: usize, mut f: impl FnMut(u64)) {
        let v = self.guard();
        for &item in &v[cursor..] {
            f(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_scan_sees_only_new_entries() {
        let log = LockLog::new();
        log.push(1);
        log.push(2);
        let cur = log.len();
        log.push(3);
        log.push(2);
        let mut seen = Vec::new();
        log.scan_since(cur, |i| seen.push(i));
        assert_eq!(seen, vec![3, 2]);
    }

    #[test]
    fn clones_share_the_log() {
        let a = LockLog::new();
        let b = a.clone();
        a.push(7);
        assert_eq!(b.len(), 1);
        let mut seen = Vec::new();
        b.scan_since(0, |i| seen.push(i));
        assert_eq!(seen, vec![7]);
    }
}
