//! Reader-snapshot registration: the active-reader epoch table behind the
//! version-GC watermark and the long-reader starvation-freedom path.
//!
//! A reader that wants its snapshot protected from version reclamation
//! publishes it in a [`SnapshotRegistry`] slot *before* executing, and
//! clears the slot when the attempt resolves. The garbage collector (the
//! native store's ring-recycle path) computes a **watermark** — the
//! minimum over all registered snapshots, clamped by the GTS — and only
//! reclaims versions that no snapshot at or above the watermark can ever
//! need.
//!
//! The registration/scan race is benign by construction: a writer that
//! scanned the table *before* a reader's `register` became visible may
//! reclaim a version that reader needed, costing it one retriable abort
//! (`SnapshotTooOld`). On the retry the registration is already visible
//! (the slot store and the writer's scan are both `SeqCst`), so a reader
//! that *pins* its snapshot — re-registering the same timestamp across
//! attempts — is guaranteed the versions it needs survive, which is what
//! makes long read-only transactions starvation-free: they never validate,
//! so a retained snapshot is all they need to commit.

use std::sync::atomic::{AtomicU64, Ordering};

/// Slot sentinel: no snapshot registered.
const FREE: u64 = u64::MAX;

/// A fixed-capacity table of registered reader snapshots.
///
/// Lock-free: each slot is one `AtomicU64` (`u64::MAX` = free), claimed by
/// CAS and released by a plain store. Capacity bounds how many readers can
/// be protected at once — and therefore bounds the extra versions the GC
/// must retain, which is what keeps the store's memory footprint bounded.
#[derive(Debug)]
pub struct SnapshotRegistry {
    slots: Vec<AtomicU64>,
}

impl SnapshotRegistry {
    /// A registry with `slots` reader slots (0 is allowed: registration
    /// always fails and the watermark is always the GTS).
    pub fn new(slots: usize) -> Self {
        Self {
            slots: (0..slots).map(|_| AtomicU64::new(FREE)).collect(),
        }
    }

    /// Number of reader slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Publish `snapshot` in a free slot. Returns the slot index to pass
    /// to [`SnapshotRegistry::deregister`], or `None` when the table is
    /// full (the reader runs unprotected, exactly as before this module
    /// existed). `snapshot` must not be `u64::MAX`.
    pub fn register(&self, snapshot: u64) -> Option<usize> {
        debug_assert_ne!(snapshot, FREE, "u64::MAX is the free-slot sentinel");
        for (i, slot) in self.slots.iter().enumerate() {
            if slot
                .compare_exchange(FREE, snapshot, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Some(i);
            }
        }
        None
    }

    /// Replace the snapshot in a held slot (a pinned reader re-arming the
    /// same timestamp, or a round advancing its snapshot without a
    /// release/re-claim window during which the slot could be lost).
    pub fn update(&self, slot: usize, snapshot: u64) {
        debug_assert_ne!(snapshot, FREE, "u64::MAX is the free-slot sentinel");
        self.slots[slot].store(snapshot, Ordering::SeqCst);
    }

    /// Release a slot claimed by [`SnapshotRegistry::register`].
    pub fn deregister(&self, slot: usize) {
        self.slots[slot].store(FREE, Ordering::SeqCst);
    }

    /// Replace the contents of `out` with every currently registered
    /// snapshot, in slot order — into the caller's buffer, so a scan per
    /// write-back allocates nothing. A point-in-time scan — registrations
    /// landing after the scan are missed, costing that reader at most one
    /// spurious retriable abort (see the module docs).
    pub fn registered_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(
            self.slots
                .iter()
                .map(|s| s.load(Ordering::SeqCst))
                .filter(|&s| s != FREE),
        );
    }

    /// The smallest registered snapshot, or `None` when the table is empty.
    pub fn min_registered(&self) -> Option<u64> {
        self.slots
            .iter()
            .map(|s| s.load(Ordering::SeqCst))
            .filter(|&s| s != FREE)
            .min()
    }

    /// The GC watermark: the minimum over registered snapshots, clamped to
    /// `gts` so an in-flight registration of a future timestamp can never
    /// raise it above the committed frontier. Versions strictly older than
    /// the newest version at-or-below the watermark are reclaimable.
    pub fn watermark(&self, gts: u64) -> u64 {
        match self.min_registered() {
            Some(min) => min.min(gts),
            None => gts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_registry_watermark_is_gts() {
        let r = SnapshotRegistry::new(4);
        assert_eq!(r.min_registered(), None);
        assert_eq!(r.watermark(17), 17);
    }

    #[test]
    fn register_lowers_the_watermark_until_deregister() {
        let r = SnapshotRegistry::new(4);
        let a = r.register(10).expect("slot free");
        let b = r.register(5).expect("slot free");
        assert_eq!(r.min_registered(), Some(5));
        assert_eq!(r.watermark(20), 5);
        r.deregister(b);
        assert_eq!(r.watermark(20), 10);
        r.deregister(a);
        assert_eq!(r.watermark(20), 20);
    }

    #[test]
    fn watermark_is_clamped_by_gts() {
        let r = SnapshotRegistry::new(2);
        r.register(100).expect("slot free");
        assert_eq!(r.watermark(7), 7);
    }

    #[test]
    fn full_registry_rejects_and_zero_capacity_always_rejects() {
        let r = SnapshotRegistry::new(1);
        let slot = r.register(3).expect("slot free");
        assert_eq!(r.register(4), None);
        r.deregister(slot);
        assert!(r.register(4).is_some());
        let z = SnapshotRegistry::new(0);
        assert_eq!(z.register(1), None);
        assert_eq!(z.watermark(9), 9);
    }

    #[test]
    fn update_moves_a_held_slot_without_releasing_it() {
        let r = SnapshotRegistry::new(1);
        let slot = r.register(10).expect("slot free");
        r.update(slot, 6);
        assert_eq!(r.min_registered(), Some(6));
        assert_eq!(r.register(2), None, "update must not free the slot");
        r.deregister(slot);
    }

    #[test]
    fn registered_into_replaces_the_buffer_and_skips_free_slots() {
        let r = SnapshotRegistry::new(4);
        let a = r.register(9).expect("slot free");
        let b = r.register(3).expect("slot free");
        r.register(7).expect("slot free");
        r.deregister(b);
        let mut out = vec![42, 43];
        r.registered_into(&mut out);
        assert_eq!(out, [9, 7], "slot order, stale contents gone");
        r.deregister(a);
        r.registered_into(&mut out);
        assert_eq!(out, [7], "a released slot is skipped");
    }

    #[test]
    fn registration_is_visible_across_threads() {
        use std::sync::Arc;
        let r = Arc::new(SnapshotRegistry::new(8));
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let slot = r.register(i).expect("8 slots for 4 threads");
                    let w = r.watermark(100);
                    assert!(w <= i, "own registration bounds the watermark");
                    r.deregister(slot);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panics");
        }
        assert_eq!(r.min_registered(), None);
    }
}
