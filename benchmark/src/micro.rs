//! Pure-function microbenches: each layer's public functions timed in
//! their own loop on fixed inputs drawn from the seed, so a regression can
//! be pinned to a layer without running the stack. The crate-private
//! `NativeStore`/`NativeAtr` are not reachable from here and wait for a
//! later change.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use csmv::steps;
use csmv_service::command::Command;
use csmv_service::resp;
use stm_core::{SnapshotRegistry, TxRecord, TxSource};
use workloads::{BankConfig, BankSource, ListConfig, ListSource};

use crate::report::Outcome;
use crate::service::KvGen;
use crate::stats::SplitMix64;
use crate::Plan;

/// Nanoseconds per operation: `pass` performs some operations and returns
/// how many; it is repeated until `min` has elapsed.
fn ns_per_op(min: Duration, mut pass: impl FnMut() -> u64) -> f64 {
    let began = Instant::now();
    let mut ops = 0u64;
    loop {
        ops += pass();
        let elapsed = began.elapsed();
        if elapsed >= min {
            return elapsed.as_nanos() as f64 / ops.max(1) as f64;
        }
    }
}

/// `resp.*`, `command.parse_ns`, `workloads.kv_gen_ns`: the byte stream
/// `service-sat` sends, and the replies it gets back.
pub fn wire(plan: &Plan, out: &mut Outcome) {
    let mut gen = KvGen::new(plan.seed, 0, plan.n);
    let mut stream = Vec::new();
    for _ in 0..1000 {
        gen.next_req().encode(&mut stream);
    }
    let mut argvs = Vec::new();
    let mut rest = &stream[..];
    while let resp::ParseOutcome::Frame(argv, used) = resp::parse_frame(rest) {
        argvs.push(argv);
        rest = &rest[used..];
    }
    out.set(
        "resp.parse_frame_ns",
        ns_per_op(plan.micro_min, || {
            let mut rest = black_box(&stream[..]);
            let mut frames = 0;
            while let resp::ParseOutcome::Frame(argv, used) = resp::parse_frame(rest) {
                black_box(argv);
                rest = &rest[used..];
                frames += 1;
            }
            frames
        }),
    );
    out.set(
        "command.parse_ns",
        ns_per_op(plan.micro_min, || {
            for argv in &argvs {
                let _ = black_box(Command::parse(black_box(argv)));
            }
            argvs.len() as u64
        }),
    );
    out.set(
        "resp.encode_command_ns",
        ns_per_op(plan.micro_min, || {
            for argv in &argvs {
                black_box(resp::encode_command(black_box(argv)));
            }
            argvs.len() as u64
        }),
    );

    // The reply stream of the same mix: bulk for GET, +OK for SET, an
    // integer for INCRBY, and +OK, +QUEUED ×3 and an array for a block.
    let mut replies = Vec::new();
    let mut rng = SplitMix64(plan.seed);
    for _ in 0..1000 {
        match rng.below(100) {
            0..=49 => replies.extend(resp::bulk(rng.below(1000).to_string().as_bytes())),
            50..=74 => replies.extend(resp::simple("OK")),
            75..=89 => replies.extend(resp::integer(rng.below(1000) as i64)),
            _ => {
                replies.extend(resp::simple("OK"));
                (0..3).for_each(|_| replies.extend(resp::simple("QUEUED")));
                replies.extend(resp::array_header(3));
                replies.extend(resp::bulk(b"42"));
                replies.extend(resp::integer(41));
                replies.extend(resp::simple("OK"));
            }
        }
    }
    out.set(
        "resp.parse_reply_ns",
        ns_per_op(plan.micro_min, || {
            let mut rest = black_box(&replies[..]);
            let mut n = 0;
            while let resp::ReplyOutcome::Reply(r, used) = resp::parse_reply(rest) {
                black_box(r);
                rest = &rest[used..];
                n += 1;
            }
            n
        }),
    );
    let mut buf = Vec::new();
    out.set(
        "workloads.kv_gen_ns",
        ns_per_op(plan.micro_min, || {
            buf.clear();
            for _ in 0..256 {
                gen.next_req().encode(&mut buf);
            }
            black_box(&buf);
            256
        }),
    );
}

/// `steps.*`: the pure protocol decisions on commit-path-sized inputs
/// (Bank footprints of 4 items, batches of 8, rings of 8 versions).
pub fn protocol_steps(plan: &Plan, out: &mut Outcome) {
    let mut rng = SplitMix64(plan.seed ^ 0x57E9);
    let footprints: Vec<[u64; 4]> = (0..256)
        .map(|_| std::array::from_fn(|_| rng.below(4096)))
        .collect();
    let entries: Vec<Vec<u64>> = (0..256)
        .map(|_| (0..2).map(|_| rng.below(4096)).collect())
        .collect();
    out.set(
        "steps.footprint_hits_entry_ns",
        ns_per_op(plan.micro_min, || {
            for (f, e) in footprints.iter().zip(&entries) {
                black_box(steps::footprint_hits_entry(f.iter().copied(), black_box(e)));
            }
            footprints.len() as u64
        }),
    );
    out.set(
        "steps.preval_losers_ns",
        ns_per_op(plan.micro_min, || {
            for (lane, e) in entries.iter().enumerate() {
                black_box(steps::preval_losers(
                    lane % 8,
                    black_box(e),
                    0xFF,
                    |j, item| footprints[(lane + j) % 256].contains(&item),
                ));
            }
            entries.len() as u64
        }),
    );
    let rings: Vec<[u64; 8]> = (0..256)
        .map(|_| {
            let base = rng.below(1 << 20);
            std::array::from_fn(|i| base + 3 * i as u64)
        })
        .collect();
    out.set(
        "steps.retain_from_ns",
        ns_per_op(plan.micro_min, || {
            for r in &rings {
                black_box(steps::retain_from(black_box(r), r[0] + 11));
            }
            rings.len() as u64
        }),
    );
    out.set(
        "steps.version_needed_ns",
        ns_per_op(plan.micro_min, || {
            for r in &rings {
                black_box(steps::version_needed(
                    r[2],
                    r[3],
                    black_box(r).iter().map(|ts| ts + 1),
                ));
            }
            rings.len() as u64
        }),
    );
}

/// `stm_core.*`: the reader registry the scan workload leans on, and the
/// overhead guards (oracle cost per transaction, histogram record).
pub fn core(plan: &Plan, out: &mut Outcome) {
    let registry = SnapshotRegistry::new(csmv_native::NativeConfig::default().reader_slots);
    out.set(
        "stm_core.registry_cycle_ns",
        ns_per_op(plan.micro_min, || {
            for snapshot in 0..256u64 {
                if let Some(slot) = registry.register(black_box(snapshot)) {
                    registry.deregister(slot);
                }
            }
            256
        }),
    );
    let held: Vec<_> = (100..104).filter_map(|s| registry.register(s)).collect();
    out.set(
        "stm_core.watermark_ns",
        ns_per_op(plan.micro_min, || {
            for gts in 0..256u64 {
                black_box(registry.watermark(black_box(gts + 200)));
            }
            256
        }),
    );
    held.into_iter().for_each(|slot| registry.deregister(slot));

    // A valid serial history of transfers: tx i reads two accounts at
    // read point i and commits their new balances at i + 1.
    let mut rng = SplitMix64(plan.seed ^ 0xC0DE);
    let initial: HashMap<u64, u64> = (0..64).map(|i| (i, 1000)).collect();
    let mut state = initial.clone();
    let records: Vec<TxRecord> = (0..2000u64)
        .map(|i| {
            let a = rng.below(64);
            let b = (a + 1 + rng.below(63)) % 64;
            let (va, vb) = (state[&a], state[&b]);
            state.insert(a, va - 1);
            state.insert(b, vb + 1);
            TxRecord {
                thread: 0,
                read_point: i,
                cts: Some(i + 1),
                reads: vec![(a, va), (b, vb)],
                writes: vec![(a, va - 1), (b, vb + 1)],
            }
        })
        .collect();
    out.set(
        "stm_core.check_history_ns_per_tx",
        ns_per_op(plan.micro_min, || {
            let checked = stm_core::check_history(black_box(&records), &initial, true);
            assert!(
                checked.is_ok(),
                "the microbench history is valid: {checked:?}"
            );
            records.len() as u64
        }),
    );
    let mut hist = stm_core::Histogram::default();
    out.set(
        "stm_core.histogram_record_ns",
        ns_per_op(plan.micro_min, || {
            for v in 0..1024u64 {
                hist.record(black_box(v * 37));
            }
            1024
        }),
    );
    black_box(hist);
}

/// `workloads.bank_next_tx_ns` / `workloads.list_next_tx_ns`: what the
/// generators cost per transaction. If that is more than 5 % of a
/// worker's time per commit, the generator is being measured, not the
/// engine — the caller warns.
pub fn bank_source(plan: &Plan, out: &mut Outcome) {
    let bank = BankConfig::small(crate::native::ACCOUNTS, 0);
    let mut src = BankSource::new(&bank, plan.seed, 0, usize::MAX);
    out.set(
        "workloads.bank_next_tx_ns",
        ns_per_op(plan.micro_min, || {
            (0..256).for_each(|_| {
                black_box(src.next_tx());
            });
            256
        }),
    );
}

pub fn list_source(plan: &Plan, out: &mut Outcome) {
    let list = ListConfig {
        pool_per_thread: u64::MAX / 4,
        ..ListConfig::new(1, 30)
    };
    let mut src = ListSource::new(&list, plan.seed, 0, usize::MAX);
    out.set(
        "workloads.list_next_tx_ns",
        ns_per_op(plan.micro_min, || {
            (0..256).for_each(|_| {
                black_box(src.next_tx());
            });
            256
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_op_divides_elapsed_time_by_the_operations_done() {
        let mut passes = 0;
        let ns = ns_per_op(Duration::from_millis(5), || {
            passes += 1;
            std::thread::sleep(Duration::from_millis(1));
            10
        });
        assert!(passes >= 2);
        // Each pass sleeps ≥ 1 ms for 10 ops: ≥ 100 µs per op.
        assert!(ns >= 100_000.0, "{ns}");
    }
}
