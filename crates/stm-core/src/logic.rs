//! The resumable transaction-logic interface.
//!
//! Workloads describe *what* a transaction does; STMs decide *how* each
//! operation is executed (which versions to read, what to lock, when to
//! abort). The bridge is [`TxLogic`]: a small state machine that, fed the
//! result of its previous read, emits the next logical operation. STM client
//! kernels drive one `TxLogic` per lane, one operation per simulated
//! instruction, so transaction bodies interleave realistically across warps.
//!
//! Items are *logical* indices (`0..num_items`); each STM maps them onto its
//! own memory layout (VBox arrays, lock-table stripes, …).

/// One logical operation requested by a transaction body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOp {
    /// Read transactional item `item`; the value is passed to the next
    /// [`TxLogic::next`] call.
    Read { item: u64 },
    /// Write `value` to transactional item `item`.
    Write { item: u64, value: u64 },
    /// The body is complete; the STM may try to commit.
    Finish,
}

/// A resumable transaction body.
///
/// Contract: the STM calls [`TxLogic::next`] with `None` for the first
/// operation and thereafter with `Some(v)` iff the previous operation was a
/// `Read` that returned `v` (writes acknowledge with `None`). After an abort
/// the STM calls [`TxLogic::reset`] and replays from the start — bodies must
/// therefore be deterministic functions of their read values.
///
/// Bodies are `Send` because `csmv-native`'s engine boxes them as
/// `Box<dyn TxLogic>` jobs and hands those to its worker threads; a trait
/// object is `Send` only through its trait's bound.
pub trait TxLogic: Send {
    /// Whether this transaction is declared read-only at start (multi-version
    /// STMs give such transactions an instrumentation-free fast path).
    fn is_read_only(&self) -> bool;

    /// Restart the body from the beginning (after an abort).
    fn reset(&mut self);

    /// Produce the next operation. `last_read` carries the value returned by
    /// the immediately preceding `Read`, if any.
    fn next(&mut self, last_read: Option<u64>) -> TxOp;
}

/// A per-thread stream of transactions to execute. `None` means the thread's
/// quota is exhausted and the lane can retire. Sources are `Send` so any
/// source can feed the host-threaded backends (`csmv-native`, `jvstm-cpu`),
/// which move each source onto the worker thread that drains it.
pub trait TxSource: Send {
    /// The concrete transaction-body type.
    type Tx: TxLogic;

    /// Produce the next transaction, or `None` when done.
    fn next_tx(&mut self) -> Option<Self::Tx>;
}

/// An `(item, value)` access list, as recorded in transaction histories.
pub type AccessList = Vec<(u64, u64)>;

/// Convenience: run a `TxLogic` to completion against a plain map, with no
/// concurrency control. Used by tests and by the sequential oracle.
pub fn run_sequential<L: TxLogic>(
    logic: &mut L,
    heap: &mut std::collections::HashMap<u64, u64>,
) -> (AccessList, AccessList) {
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    let mut last = None;
    loop {
        match logic.next(last) {
            TxOp::Read { item } => {
                let v = *heap.get(&item).unwrap_or(&0);
                reads.push((item, v));
                last = Some(v);
            }
            TxOp::Write { item, value } => {
                heap.insert(item, value);
                writes.push((item, value));
                last = None;
            }
            TxOp::Finish => return (reads, writes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Reads `a`, reads `b`, writes `a+b` into `c`.
    struct Sum {
        step: u8,
        a: u64,
        b: u64,
        c: u64,
        acc: u64,
    }
    impl TxLogic for Sum {
        fn is_read_only(&self) -> bool {
            false
        }
        fn reset(&mut self) {
            self.step = 0;
            self.acc = 0;
        }
        fn next(&mut self, last_read: Option<u64>) -> TxOp {
            if let Some(v) = last_read {
                self.acc += v;
            }
            let op = match self.step {
                0 => TxOp::Read { item: self.a },
                1 => TxOp::Read { item: self.b },
                2 => TxOp::Write {
                    item: self.c,
                    value: self.acc,
                },
                _ => TxOp::Finish,
            };
            self.step += 1;
            op
        }
    }

    #[test]
    fn sequential_driver_executes_body() {
        let mut heap = HashMap::new();
        heap.insert(1, 10);
        heap.insert(2, 32);
        let mut tx = Sum {
            step: 0,
            a: 1,
            b: 2,
            c: 3,
            acc: 0,
        };
        let (reads, writes) = run_sequential(&mut tx, &mut heap);
        assert_eq!(reads, vec![(1, 10), (2, 32)]);
        assert_eq!(writes, vec![(3, 42)]);
        assert_eq!(heap[&3], 42);
    }

    #[test]
    fn reset_replays_identically() {
        let mut heap = HashMap::new();
        heap.insert(1, 5);
        let mut tx = Sum {
            step: 0,
            a: 1,
            b: 1,
            c: 9,
            acc: 0,
        };
        let first = run_sequential(&mut tx, &mut heap);
        tx.reset();
        let second = run_sequential(&mut tx, &mut heap);
        // b reads c=9's old value? No: both runs read item 1 twice.
        assert_eq!(first.0, second.0);
        assert_eq!(first.1, second.1);
    }

    #[test]
    fn missing_items_read_zero() {
        let mut heap = HashMap::new();
        let mut tx = Sum {
            step: 0,
            a: 7,
            b: 8,
            c: 9,
            acc: 0,
        };
        let (reads, writes) = run_sequential(&mut tx, &mut heap);
        assert_eq!(reads, vec![(7, 0), (8, 0)]);
        assert_eq!(writes, vec![(9, 0)]);
    }
}
