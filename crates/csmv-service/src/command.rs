//! Command vocabulary and the RESP→transaction mapping.
//!
//! A `MULTI…EXEC` block maps to one CSMV transaction; a bare `GET`,
//! `SET` or `INCRBY` maps to a single-op transaction. [`KvTx`] is the
//! `TxLogic` state machine the engine executes: it replays its op list
//! against the store (reads through the MV snapshot, writes into the
//! private write-set, `INCRBY` as read-modify-write) and records one
//! [`KvResult`] per op into a shared sink the connection reads back once
//! the commit is certified. Keys are integers in `0..keys` — the store
//! is a dense array of versioned boxes, not a hash map.

use std::sync::{Arc, Mutex, MutexGuard};

use stm_core::{TxLogic, TxOp};

/// One logical KV operation inside a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Read a key.
    Get(u64),
    /// Write a key.
    Set(u64, u64),
    /// Read-modify-write: add a (possibly negative) delta, wrapping in
    /// the store's 32-bit value domain (see [`VALUE_MAX`]).
    IncrBy(u64, i64),
}

/// The largest storable value. The native store packs `(cts << 32) |
/// value` into one `AtomicU64` so a version can never tear; values
/// therefore live in a 32-bit domain, enforced here at the service
/// boundary: `SET` rejects larger values and `INCRBY` wraps modulo
/// 2^32. A value with high bits set would silently corrupt the packed
/// timestamp and poison the item's version ring (every reader sees
/// only "too new" versions and aborts with `VersionOverflow` forever).
pub const VALUE_MAX: u64 = u32::MAX as u64;

/// The per-op result a committed [`KvTx`] recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvResult {
    /// `SET` acknowledged.
    Ok,
    /// The value a `GET` read, or the value an `INCRBY` wrote.
    Value(u64),
}

/// Shared result sink: the transaction writes into it during execution,
/// the connection reads it after the completion arrives. The engine owns
/// the transaction until then, so the two sides never race.
pub type ResultSink = Arc<Mutex<Vec<KvResult>>>;

/// The ops of a [`KvTx`]: a bare command's one op inline, a block's in a
/// vector.
enum Ops {
    One(KvOp),
    Block(Vec<KvOp>),
}

/// A KV transaction body: executes `ops` in order through the engine.
pub struct KvTx {
    ops: Ops,
    results: ResultSink,
    step: usize,
    /// A `Get` whose read value arrives on the next `next()` call.
    get_pending: bool,
    /// An `IncrBy` whose read value arrives on the next `next()` call,
    /// to be folded into the write.
    incr_pending: Option<(u64, i64)>,
}

impl KvTx {
    /// Build a transaction over `ops` recording into `results`.
    pub fn new(ops: Vec<KvOp>, results: ResultSink) -> Self {
        Self::over(Ops::Block(ops), results)
    }

    /// A single-op transaction (a bare command), its op held inline.
    pub fn one(op: KvOp, results: ResultSink) -> Self {
        Self::over(Ops::One(op), results)
    }

    fn over(ops: Ops, results: ResultSink) -> Self {
        Self {
            ops,
            results,
            step: 0,
            get_pending: false,
            incr_pending: None,
        }
    }

    fn ops(&self) -> &[KvOp] {
        match &self.ops {
            Ops::One(op) => std::slice::from_ref(op),
            Ops::Block(ops) => ops,
        }
    }

    fn results_mut(&self) -> MutexGuard<'_, Vec<KvResult>> {
        // Poison requires a panic while holding the guard; pushes don't
        // panic, so recovering the inner value is always sound.
        self.results.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl TxLogic for KvTx {
    fn is_read_only(&self) -> bool {
        self.ops().iter().all(|op| matches!(op, KvOp::Get(_)))
    }

    fn reset(&mut self) {
        self.step = 0;
        self.get_pending = false;
        self.incr_pending = None;
        self.results_mut().clear();
    }

    fn next(&mut self, last_read: Option<u64>) -> TxOp {
        if let Some((item, delta)) = self.incr_pending.take() {
            let value = (last_read.unwrap_or(0) as u32).wrapping_add(delta as u32) as u64;
            self.results_mut().push(KvResult::Value(value));
            self.step += 1;
            return TxOp::Write { item, value };
        }
        if self.get_pending {
            self.get_pending = false;
            self.results_mut()
                .push(KvResult::Value(last_read.unwrap_or(0)));
            self.step += 1;
        }
        match self.ops().get(self.step).copied() {
            None => TxOp::Finish,
            Some(KvOp::Get(item)) => {
                self.get_pending = true;
                TxOp::Read { item }
            }
            Some(KvOp::Set(item, value)) => {
                self.results_mut().push(KvResult::Ok);
                self.step += 1;
                TxOp::Write { item, value }
            }
            Some(KvOp::IncrBy(item, delta)) => {
                self.incr_pending = Some((item, delta));
                TxOp::Read { item }
            }
        }
    }
}

/// A parsed client command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Liveness probe; immediate `+PONG`.
    Ping,
    /// Single-op read transaction (or queued op inside `MULTI`).
    Get(u64),
    /// Single-op write transaction (or queued op inside `MULTI`).
    Set(u64, u64),
    /// Single-op read-modify-write (or queued op inside `MULTI`).
    IncrBy(u64, i64),
    /// Open a queued transaction block.
    Multi,
    /// Commit the queued block as one transaction.
    Exec,
    /// Drop the queued block.
    Discard,
    /// Ask the service to stop accepting connections and shut down.
    Shutdown,
}

fn parse_u64(arg: &[u8], what: &str) -> Result<u64, String> {
    std::str::from_utf8(arg)
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| format!("ERR {what} is not an unsigned integer"))
}

/// Parse a storable value: an unsigned integer within [`VALUE_MAX`].
fn parse_value(arg: &[u8]) -> Result<u64, String> {
    let v = parse_u64(arg, "value")?;
    if v > VALUE_MAX {
        return Err(format!("ERR value is out of range (0..={VALUE_MAX})"));
    }
    Ok(v)
}

fn parse_i64(arg: &[u8], what: &str) -> Result<i64, String> {
    std::str::from_utf8(arg)
        .ok()
        .and_then(|s| s.parse::<i64>().ok())
        .ok_or_else(|| format!("ERR {what} is not an integer"))
}

fn arity<A>(argv: &[A], want: usize, name: &str) -> Result<(), String> {
    if argv.len() != want {
        Err(format!("ERR wrong number of arguments for '{name}'"))
    } else {
        Ok(())
    }
}

impl Command {
    /// Parse one frame's argv, owned or borrowed. The name matches in any
    /// case, without a copy. Errors are RESP error strings (without the
    /// leading `-`).
    pub fn parse<A: AsRef<[u8]>>(argv: &[A]) -> Result<Command, String> {
        let Some(name) = argv.first().map(AsRef::as_ref) else {
            return Err("ERR empty command".to_string());
        };
        let is = |word: &str| name.eq_ignore_ascii_case(word.as_bytes());
        // The commonest first.
        if is("GET") {
            arity(argv, 2, "get")?;
            Ok(Command::Get(parse_u64(argv[1].as_ref(), "key")?))
        } else if is("SET") {
            arity(argv, 3, "set")?;
            Ok(Command::Set(
                parse_u64(argv[1].as_ref(), "key")?,
                parse_value(argv[2].as_ref())?,
            ))
        } else if is("INCRBY") {
            arity(argv, 3, "incrby")?;
            Ok(Command::IncrBy(
                parse_u64(argv[1].as_ref(), "key")?,
                parse_i64(argv[2].as_ref(), "delta")?,
            ))
        } else {
            let (command, lower) = if is("MULTI") {
                (Command::Multi, "multi")
            } else if is("EXEC") {
                (Command::Exec, "exec")
            } else if is("PING") {
                (Command::Ping, "ping")
            } else if is("DISCARD") {
                (Command::Discard, "discard")
            } else if is("SHUTDOWN") {
                (Command::Shutdown, "shutdown")
            } else {
                return Err(format!(
                    "ERR unknown command '{}'",
                    String::from_utf8_lossy(&name.to_ascii_uppercase())
                ));
            };
            arity(argv, 1, lower)?;
            Ok(command)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::logic::run_sequential;

    fn argv(words: &[&str]) -> Vec<Vec<u8>> {
        words.iter().map(|w| w.as_bytes().to_vec()).collect()
    }

    #[test]
    fn commands_parse_case_insensitively_with_arity_checks() {
        assert_eq!(Command::parse(&argv(&["ping"])), Ok(Command::Ping));
        assert_eq!(Command::parse(&argv(&["GeT", "7"])), Ok(Command::Get(7)));
        assert_eq!(
            Command::parse(&argv(&["set", "3", "41"])),
            Ok(Command::Set(3, 41))
        );
        assert_eq!(
            Command::parse(&argv(&["INCRBY", "3", "-5"])),
            Ok(Command::IncrBy(3, -5))
        );
        assert_eq!(Command::parse(&argv(&["MULTI"])), Ok(Command::Multi));
        assert!(Command::parse(&argv(&["GET"])).is_err());
        assert!(Command::parse(&argv(&["SET", "x", "1"])).is_err());
        assert!(Command::parse(&argv(&["HGETALL", "h"])).is_err());
        assert!(Command::parse::<Vec<u8>>(&[]).is_err());
        // Borrowed words parse alike, and an unknown name is reported in
        // upper case, however it was sent.
        let borrowed: [&[u8]; 3] = [b"iNcRbY", b"3", b"-5"];
        assert_eq!(Command::parse(&borrowed), Ok(Command::IncrBy(3, -5)));
        assert_eq!(
            Command::parse(&[b"hGetAll".as_slice()]),
            Err("ERR unknown command 'HGETALL'".to_string())
        );
    }

    #[test]
    fn values_are_confined_to_the_store_packing_domain() {
        // SET refuses values whose high bits would corrupt the packed
        // `(cts << 32) | value` timestamp.
        assert_eq!(
            Command::parse(&argv(&["SET", "0", "4294967295"])),
            Ok(Command::Set(0, VALUE_MAX))
        );
        assert!(Command::parse(&argv(&["SET", "0", "4294967296"]))
            .unwrap_err()
            .contains("out of range"));
        // INCRBY below zero wraps within 32 bits, never into the
        // timestamp field (the regression: 0 - 1 must not become
        // u64::MAX and poison the item's version ring).
        let sink: ResultSink = Arc::new(Mutex::new(Vec::new()));
        let mut tx = KvTx::new(vec![KvOp::IncrBy(0, -1)], sink.clone());
        let mut store = std::collections::HashMap::from([(0u64, 0u64)]);
        let _ = run_sequential(&mut tx, &mut store);
        assert_eq!(store[&0], VALUE_MAX);
        assert_eq!(*sink.lock().unwrap(), vec![KvResult::Value(VALUE_MAX)]);
    }

    #[test]
    fn kvtx_replays_ops_in_order_with_read_own_write() {
        let sink: ResultSink = Arc::new(Mutex::new(Vec::new()));
        let mut tx = KvTx::new(
            vec![
                KvOp::Get(0),
                KvOp::Set(0, 10),
                KvOp::Get(0),
                KvOp::IncrBy(0, -3),
                KvOp::Get(1),
            ],
            sink.clone(),
        );
        // Drive the state machine the way a worker does, over a tiny
        // two-item store.
        let mut store = [5u64, 9u64];
        let mut last: Option<u64> = None;
        let mut ws: Vec<(u64, u64)> = Vec::new();
        loop {
            match tx.next(last) {
                TxOp::Read { item } => {
                    let v = ws
                        .iter()
                        .rev()
                        .find(|&&(i, _)| i == item)
                        .map(|&(_, v)| v)
                        .unwrap_or(store[item as usize]);
                    last = Some(v);
                }
                TxOp::Write { item, value } => {
                    ws.push((item, value));
                    last = None;
                }
                TxOp::Finish => break,
            }
        }
        for (item, value) in ws {
            store[item as usize] = value;
        }
        assert_eq!(
            *sink.lock().unwrap(),
            vec![
                KvResult::Value(5),
                KvResult::Ok,
                KvResult::Value(10),
                KvResult::Value(7),
                KvResult::Value(9),
            ]
        );
        assert_eq!(store, [7, 9]);
    }

    #[test]
    fn reset_clears_recorded_results_for_a_clean_retry() {
        let sink: ResultSink = Arc::new(Mutex::new(Vec::new()));
        let mut tx = KvTx::new(vec![KvOp::Get(0), KvOp::Set(1, 2)], sink.clone());
        let _ = run_sequential(&mut tx, &mut std::collections::HashMap::new());
        assert_eq!(sink.lock().unwrap().len(), 2);
        tx.reset();
        assert!(sink.lock().unwrap().is_empty());
        assert!(!tx.is_read_only());
        assert!(KvTx::new(vec![KvOp::Get(0)], sink.clone()).is_read_only());
    }

    #[test]
    fn a_bare_command_runs_its_inline_op() {
        let sink: ResultSink = Arc::new(Mutex::new(Vec::new()));
        let mut store = std::collections::HashMap::from([(4u64, 40u64)]);
        let mut get = KvTx::one(KvOp::Get(4), sink.clone());
        assert!(get.is_read_only());
        let _ = run_sequential(&mut get, &mut store);
        let mut incr = KvTx::one(KvOp::IncrBy(4, 2), sink.clone());
        assert!(!incr.is_read_only());
        let _ = run_sequential(&mut incr, &mut store);
        assert_eq!(
            *sink.lock().unwrap(),
            [KvResult::Value(40), KvResult::Value(42)]
        );
        assert_eq!(store[&4], 42);
    }
}
