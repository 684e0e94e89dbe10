//! The CSMV protocol-invariant checker for the simulator's analysis layer.
//!
//! [`CsmvInvariantChecker`] watches the raw memory-event stream of a CSMV
//! launch and re-derives the obligations of the commit protocol (§III-B of
//! the paper). One type serves both hosts: [`CsmvInvariantChecker::single`]
//! the single-server design, [`CsmvInvariantChecker::multi`] the
//! multi-server extension. A small decoder per host turns its memory words
//! into protocol steps, and every obligation is written once:
//!
//! 1. **Reservation** — a reservation is a non-empty batch that starts at
//!    the checker's mirror of the counter, so batches are gap-free and in
//!    order.
//! 2. **Publication** — a published ring tag lands in the slot the ring maps
//!    it to, and tags strictly increase per slot (ring recycling only moves
//!    forward). The tag's cts was reserved before it is published, and it
//!    is published exactly once.
//! 3. **Write-back** — a version installed in a VBox carries a published
//!    cts (writing back an unpublished one skipped validation), and a head
//!    index stays inside the version ring.
//! 4. **End of run** — a complete run ends with the published set dense
//!    over `1..=reserved`.
//!
//! Each host adds only its own rules:
//!
//! * **Single server** (violations named `csmv`). Timestamps are reserved
//!   by CAS on the server's shared `next_cts` word, and the tag *is* the
//!   cts. The GTS moves only when `T.CTS == GTS`: every GTS write publishes
//!   the next reserved batch's last cts, starting from `base − 1`, and by
//!   the end of the run every batch is bumped. A client that skips the
//!   turn-taking wait trips this rule.
//! * **Multi-server** (violations named `csmv-multi`). Timestamps come from
//!   one global fetch-add per batch; a partition publishes a seq tag
//!   (`local_seq + 1`) after the slot's cts word. Seq tags follow global cts
//!   order (the validator's backward walk stops early on that), and the
//!   local seq line (`next_local`) is gap-free. Publication is progressive,
//!   so there is no batch turn: the GTS never regresses and never overtakes
//!   the reservation counter, and two publishers that saw the same run may
//!   write the same value. Kill/crash fault plans build the checker with
//!   `expect_complete = false`, which skips the end-of-run checks that a
//!   crash legitimately breaks (quarantined holes, reserved timestamps that
//!   never publish).
//!
//! These are protocol steps, not the correctness definition: what makes a
//! committed history correct (opacity, an acyclic multiversion
//! serialization graph) is stated once in DESIGN.md §7.1 and checked by
//! `stm_core::check_history`.

use std::collections::{HashMap, HashSet};

use gpu_sim::{AccessKind, InvariantChecker, MemEvent, Space, Violation};
use stm_core::vbox::unpack_version;
use stm_core::VBoxHeap;

use crate::multi::PartitionedAtr;
use crate::SharedAtr;

/// Where one ATR ring keeps its tag words. The rings keep their bases
/// private; slot 0's tag address and the per-slot stride recover the map.
/// Both hosts map tag `t` to slot `(t − 1) mod capacity`.
struct Ring {
    tag0: u64,
    stride: u64,
    capacity: u64,
}

impl Ring {
    /// The slot `addr` lies in, and the word's offset inside the slot.
    fn locate(&self, addr: u64) -> Option<(u64, u64)> {
        let off = addr.checked_sub(self.tag0)?;
        let slot = off / self.stride;
        (slot < self.capacity).then_some((slot, off % self.stride))
    }
}

/// A multi-server partition's local seq line.
#[derive(Default)]
struct SeqLine {
    next_local_addr: u64,
    /// Latest cts word written per slot (a candidate until the tag publishes).
    slot_cts: HashMap<u64, u64>,
    /// cts by published seq tag: the local-order/global-order alignment.
    cts_by_tag: HashMap<u64, u64>,
    max_tag: u64,
    /// Mirror of the `next_local` word.
    next_local: u64,
}

/// The state only one host's rules need.
enum Host {
    /// Reserved batches `[base, last]` in reservation order, and the index
    /// of the next one due to bump the GTS.
    Single {
        batches: Vec<(u64, u64)>,
        turn: usize,
    },
    /// One seq line per partition.
    Multi(Vec<SeqLine>),
}

/// One protocol step, decoded from a memory event.
enum Step {
    /// A batch of `n` timestamps reserved from counter value `base`.
    Reserve { base: u64, n: u64 },
    /// `tag` stored into `slot` of ring `ring`.
    Publish { ring: usize, slot: u64, tag: u64 },
    /// A multi-server slot's cts word.
    SlotCts { ring: usize, slot: u64, cts: u64 },
    /// A multi-server partition's `next_local` word.
    NextLocal { ring: usize, value: u64 },
    /// A write, or successful CAS, on the GTS.
    Gts(u64),
    /// A store into the VBox heap.
    WriteBack,
}

/// Protocol-invariant checker for CSMV: every single-server variant, and
/// the multi-server extension.
pub struct CsmvInvariantChecker {
    host: Host,
    /// Ring `i` lives in the shared memory of SM `first_sm + i`.
    rings: Vec<Ring>,
    first_sm: usize,
    heap: VBoxHeap,
    h0: u64,
    words_per_box: u64,
    gts_addr: u64,
    /// The reservation counter: shared memory of the server SM on a single
    /// server, global memory on several.
    cts_addr: u64,
    /// Mirror of the counter (host-initialised to 1) and of the GTS
    /// (initialised to 0).
    next: u64,
    gts: u64,
    published: HashSet<u64>,
    /// Latest tag per `(ring, slot)`.
    last_tag: HashMap<(usize, u64), u64>,
    expect_complete: bool,
}

fn violation(checker: &'static str, at: Option<&MemEvent>, message: String) -> Violation {
    Violation {
        checker,
        warp: at.map_or(usize::MAX, |e| e.warp),
        clock: at.map_or(u64::MAX, |e| e.clock),
        addr: at.map_or(u64::MAX, |e| e.addr),
        message,
    }
}

impl CsmvInvariantChecker {
    /// The single-server form. `server_sm` scopes the shared ATR addresses;
    /// `gts_addr` is the global GTS word.
    pub fn single(atr: SharedAtr, heap: VBoxHeap, gts_addr: u64, server_sm: usize) -> Self {
        let ring = Ring {
            tag0: atr.slot_cts_addr(0),
            stride: 2 + atr.max_ws() as u64,
            capacity: atr.capacity(),
        };
        let host = Host::Single {
            batches: Vec::new(),
            turn: 0,
        };
        let cts_addr = atr.next_cts_addr();
        Self::new(host, vec![ring], server_sm, heap, gts_addr, cts_addr, true)
    }

    /// The multi-server form. `atrs[i]` is the ring of the server on SM
    /// `first_server_sm + i`; `expect_complete` is false when the fault plan
    /// kills warps or crashes SMs.
    pub fn multi(
        atrs: Vec<PartitionedAtr>,
        heap: VBoxHeap,
        gts_addr: u64,
        global_cts_addr: u64,
        first_server_sm: usize,
        expect_complete: bool,
    ) -> Self {
        let rings = atrs.iter().map(|a| {
            let (tag0, capacity) = (a.slot_seq_addr(0), a.capacity());
            Ring {
                tag0,
                stride: a.slot_seq_addr(1) - tag0,
                capacity,
            }
        });
        let lines = atrs.iter().map(|a| SeqLine {
            next_local_addr: a.next_local_addr(),
            ..SeqLine::default()
        });
        let host = Host::Multi(lines.collect());
        Self::new(
            host,
            rings.collect(),
            first_server_sm,
            heap,
            gts_addr,
            global_cts_addr,
            expect_complete,
        )
    }

    fn new(
        host: Host,
        rings: Vec<Ring>,
        first_sm: usize,
        heap: VBoxHeap,
        gts_addr: u64,
        cts_addr: u64,
        expect_complete: bool,
    ) -> Self {
        Self {
            host,
            rings,
            first_sm,
            h0: heap.head_addr(0),
            words_per_box: 1 + heap.versions_per_box(),
            heap,
            gts_addr,
            cts_addr,
            next: 1,
            gts: 0,
            published: HashSet::new(),
            last_tag: HashMap::new(),
            expect_complete,
        }
    }

    /// Turn one memory event into a protocol step, if it is one. The GTS
    /// and the heap are global words on both hosts.
    fn decode(&self, ev: &MemEvent) -> Option<Step> {
        if ev.space == Space::Global && ev.addr == self.gts_addr {
            return match ev.kind {
                AccessKind::Write => Some(Step::Gts(ev.value)),
                AccessKind::Cas {
                    new, success: true, ..
                } => Some(Step::Gts(new)),
                _ => None,
            };
        }
        let heap_end = self.h0 + self.heap.num_items() * self.words_per_box;
        if ev.space == Space::Global
            && ev.kind == AccessKind::Write
            && (self.h0..heap_end).contains(&ev.addr)
        {
            return Some(Step::WriteBack);
        }
        match &self.host {
            Host::Single { .. } => self.decode_single(ev),
            Host::Multi(lines) => self.decode_multi(lines, ev),
        }
    }

    /// Single server: the `next_cts` CAS and the cts-tag stores, in the
    /// server SM's shared memory.
    fn decode_single(&self, ev: &MemEvent) -> Option<Step> {
        if ev.space != Space::Shared || ev.sm != self.first_sm {
            return None;
        }
        match ev.kind {
            AccessKind::Cas {
                expected,
                new,
                success: true,
            } if ev.addr == self.cts_addr => Some(Step::Reserve {
                base: expected,
                n: new.saturating_sub(expected),
            }),
            AccessKind::Write => match self.rings[0].locate(ev.addr)? {
                (slot, 0) => Some(Step::Publish {
                    ring: 0,
                    slot,
                    tag: ev.value,
                }),
                _ => None,
            },
            _ => None,
        }
    }

    /// Multi-server: the global fetch-add, and per partition the seq and cts
    /// words and `next_local`.
    fn decode_multi(&self, lines: &[SeqLine], ev: &MemEvent) -> Option<Step> {
        let value = ev.value;
        match (ev.space, ev.kind) {
            (Space::Global, AccessKind::Add { operand }) if ev.addr == self.cts_addr => {
                Some(Step::Reserve {
                    base: value,
                    n: operand,
                })
            }
            (Space::Shared, AccessKind::Write) => {
                let ring = ev.sm.checked_sub(self.first_sm)?;
                if ev.addr == lines.get(ring)?.next_local_addr {
                    return (value != 0).then_some(Step::NextLocal { ring, value });
                }
                match self.rings[ring].locate(ev.addr)? {
                    (slot, 0) => Some(Step::Publish {
                        ring,
                        slot,
                        tag: value,
                    }),
                    (slot, 1) => Some(Step::SlotCts {
                        ring,
                        slot,
                        cts: value,
                    }),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Reservation: a non-empty batch that starts at the counter's mirror.
    fn reserve(&mut self, base: u64, n: u64, flag: &mut dyn FnMut(String)) {
        if n == 0 {
            flag(format!(
                "empty cts reservation at counter {base} — a reservation takes at least \
                 one timestamp (workers skip all-abort batches)"
            ));
        }
        if base != self.next {
            flag(format!(
                "cts reservation from counter {base}, but the reservation history says {} \
                 — reservations must be gap-free",
                self.next
            ));
        }
        match &mut self.host {
            Host::Single { batches, .. } if n > 0 => batches.push((base, base + n - 1)),
            _ => {}
        }
        self.next = base.wrapping_add(n);
    }

    /// Publication of one ATR entry: `tag` stored into `slot` of `ring`.
    fn publish(&mut self, ring: usize, slot: u64, tag: u64, flag: &mut dyn FnMut(String)) {
        if tag == 0 {
            return flag(format!(
                "ATR {ring} slot {slot}: published tag 0 (tags are 1-based, so 0 means unset)"
            ));
        }
        let home = (tag - 1) % self.rings[ring].capacity;
        if home != slot {
            flag(format!(
                "ATR {ring}: tag {tag} published into slot {slot}, but the ring maps it \
                 to slot {home}"
            ));
        }
        if let Some(prev) = self
            .last_tag
            .insert((ring, slot), tag)
            .filter(|&prev| tag <= prev)
        {
            flag(format!(
                "ATR {ring} slot {slot} tag went from {prev} to {tag} — per-slot tags must \
                 strictly increase (ring recycling only moves forward)"
            ));
        }
        let cts = match &mut self.host {
            Host::Single { .. } => tag,
            Host::Multi(lines) => {
                let line = &mut lines[ring];
                line.max_tag = line.max_tag.max(tag);
                let Some(&cts) = line.slot_cts.get(&slot) else {
                    return flag(format!(
                        "partition {ring} published seq tag {tag} before writing the slot's \
                         cts word"
                    ));
                };
                if let Some(&prev) = line.cts_by_tag.get(&(tag - 1)).filter(|&&p| cts <= p) {
                    flag(format!(
                        "partition {ring} local order diverged from global cts order: seq \
                         tag {} carries cts {prev}, tag {tag} carries cts {cts}",
                        tag - 1
                    ));
                }
                line.cts_by_tag.insert(tag, cts);
                cts
            }
        };
        if cts == 0 || cts >= self.next {
            flag(format!(
                "published cts {cts}, which was never reserved (the counter is {})",
                self.next
            ));
        }
        if !self.published.insert(cts) {
            flag(format!("cts {cts} published twice"));
        }
    }

    /// A GTS update: a host rule on each host.
    fn on_gts(&mut self, value: u64, flag: &mut dyn FnMut(String)) {
        match &mut self.host {
            Host::Single { batches, turn } => {
                match batches.get(*turn) {
                    None => flag(format!(
                        "GTS bumped to {value} with no reserved batch outstanding"
                    )),
                    Some(&(base, last)) if value != last => flag(format!(
                        "GTS bumped to {value}, but the next batch in reservation order is \
                         [{base}, {last}] and must publish {last} — a batch published out \
                         of turn"
                    )),
                    Some(&(base, last)) if self.gts != base - 1 => flag(format!(
                        "batch [{base}, {last}] published while GTS was {} (expected {}) — \
                         the turn-taking wait was skipped",
                        self.gts,
                        base - 1
                    )),
                    Some(_) => {}
                }
                *turn += 1;
            }
            Host::Multi(_) => {
                if value < self.gts {
                    flag(format!(
                        "GTS moved from {} to {value} — progressive publication must not \
                         regress",
                        self.gts
                    ));
                }
                if value >= self.next {
                    flag(format!(
                        "GTS bumped to {value}, overtaking the reservation counter ({})",
                        self.next
                    ));
                }
            }
        }
        self.gts = self.gts.max(value);
    }

    /// Write-back: a store into the VBox heap.
    fn write_back(&self, ev: &MemEvent, flag: &mut dyn FnMut(String)) {
        let off = ev.addr - self.h0;
        let item = off / self.words_per_box;
        if off.is_multiple_of(self.words_per_box) {
            if ev.value >= self.heap.versions_per_box() {
                flag(format!(
                    "VBox {item} head set to {} but only {} version slots exist",
                    ev.value,
                    self.heap.versions_per_box()
                ));
            }
        } else {
            let (ts, _) = unpack_version(ev.value);
            if !self.published.contains(&ts) {
                flag(format!(
                    "VBox {item} version installed with cts {ts}, which was never \
                     published — write-back before validation"
                ));
            }
        }
    }
}

impl InvariantChecker for CsmvInvariantChecker {
    fn name(&self) -> &'static str {
        match self.host {
            Host::Single { .. } => "csmv",
            Host::Multi(_) => "csmv-multi",
        }
    }

    fn on_event(&mut self, ev: &MemEvent, out: &mut Vec<Violation>) {
        let Some(step) = self.decode(ev) else {
            return;
        };
        let checker = self.name();
        let flag = &mut |message| out.push(violation(checker, Some(ev), message));
        match step {
            Step::Reserve { base, n } => self.reserve(base, n, flag),
            Step::Publish { ring, slot, tag } => self.publish(ring, slot, tag, flag),
            Step::Gts(value) => self.on_gts(value, flag),
            Step::WriteBack => self.write_back(ev, flag),
            Step::SlotCts { ring, slot, cts } => {
                if let Host::Multi(lines) = &mut self.host {
                    lines[ring].slot_cts.insert(slot, cts);
                }
            }
            Step::NextLocal { ring, value } => {
                if let Host::Multi(lines) = &mut self.host {
                    let line = &mut lines[ring];
                    if value <= line.next_local {
                        flag(format!(
                            "partition {ring} next_local went from {} to {value} — the \
                             local seq line must strictly increase",
                            line.next_local
                        ));
                    }
                    line.next_local = value;
                }
            }
        }
    }

    fn finish(&mut self, out: &mut Vec<Violation>) {
        if !self.expect_complete {
            return;
        }
        let checker = self.name();
        let mut flag = |message| out.push(violation(checker, None, message));
        match &self.host {
            Host::Single { batches, turn } => {
                if *turn != batches.len() {
                    flag(format!(
                        "{} batches reserved but the GTS was only bumped {turn} times",
                        batches.len()
                    ));
                }
            }
            Host::Multi(lines) => {
                for (ring, line) in lines.iter().enumerate() {
                    for tag in (1..=line.max_tag).filter(|t| !line.cts_by_tag.contains_key(t)) {
                        flag(format!(
                            "partition {ring} seq tag {tag} was never published — the local \
                             seq line must be gap-free up to {}",
                            line.max_tag
                        ));
                    }
                    if line.next_local != line.max_tag {
                        flag(format!(
                            "partition {ring} next_local ended at {} but the highest \
                             published seq tag is {}",
                            line.next_local, line.max_tag
                        ));
                    }
                }
            }
        }
        let reserved = self.next.saturating_sub(1);
        for cts in (1..=reserved).filter(|c| !self.published.contains(c)) {
            flag(format!(
                "cts {cts} was reserved but never published — the published set must be \
                 dense 1..={reserved}"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        run, CommitProtocol, CsmvClient, CsmvConfig, CsmvVariant, ReceiverWarp, ServerControl,
        WorkerWarp,
    };
    use gpu_sim::{AnalysisConfig, Device, GpuConfig};
    use workloads::{BankConfig, BankSource};

    fn analysed_cfg(variant: CsmvVariant) -> CsmvConfig {
        let gpu = GpuConfig {
            num_sms: 5,
            ..Default::default()
        };
        CsmvConfig {
            gpu,
            variant,
            server_workers: 3,
            analysis: AnalysisConfig {
                races: true,
                invariants: true,
            },
            ..Default::default()
        }
    }

    /// Every stock variant must come out of a contended run with zero races
    /// and zero protocol violations — the analysis layer's "no false
    /// positives" baseline.
    #[test]
    fn stock_variants_run_clean_under_full_analysis() {
        for (variant, seed) in [
            (CsmvVariant::Full, 42),
            (CsmvVariant::NoCv, 43),
            (CsmvVariant::OnlyCs, 44),
        ] {
            let cfg = analysed_cfg(variant);
            let bank = BankConfig::small(64, 30);
            let res = run(
                &cfg,
                |t| BankSource::new(&bank, seed, t, 3),
                bank.accounts,
                |_| bank.initial_balance,
            );
            let report = res.analysis.expect("analysis was enabled");
            assert!(report.events > 0, "analysis must have observed the run");
            assert!(
                report.is_clean(),
                "variant {variant:?}: races {:?}, violations {:?}",
                report.races,
                report.violations
            );
        }
    }

    /// ATR ring recycling (tiny window, forced wrap-around) exercises the
    /// seqlock-style tag re-check paths; they must stay clean too.
    #[test]
    fn atr_window_overflow_runs_clean_under_full_analysis() {
        let mut cfg = analysed_cfg(CsmvVariant::Full);
        cfg.atr_capacity = 4;
        cfg.versions_per_box = 16;
        let bank = BankConfig::small(16, 0);
        let res = run(
            &cfg,
            |t| BankSource::new(&bank, 9, t, 2),
            bank.accounts,
            |_| bank.initial_balance,
        );
        let report = res.analysis.expect("analysis was enabled");
        assert!(
            report.is_clean(),
            "races {:?}, violations {:?}",
            report.races,
            report.violations
        );
    }

    /// Seeded protocol bug: one warp skips the GTS turn-taking wait and
    /// publishes its batch out of order. The checker must flag the first
    /// out-of-turn bump. The run is stepped manually so we can stop at the
    /// first violation — past that point the protocol is genuinely broken
    /// (healthy warps assert that the GTS never overtakes their batch).
    #[test]
    fn seeded_skip_gts_wait_is_detected() {
        let cfg = analysed_cfg(CsmvVariant::Full);
        let bank = BankConfig::small(64, 0); // all-update workload
        let server_sm = cfg.gpu.num_sms - 1;
        let num_clients = cfg.num_client_warps();

        let mut dev = Device::new(cfg.gpu.clone());
        let gts_addr = dev.alloc_global(1);
        let done_addr = dev.alloc_global(1);
        let heap = stm_core::VBoxHeap::init(
            dev.global_mut(),
            bank.accounts,
            cfg.versions_per_box,
            |_| bank.initial_balance,
        );
        let proto = CommitProtocol::alloc(dev.global_mut(), num_clients, cfg.max_rs, cfg.max_ws);
        let atr = SharedAtr::alloc(&mut dev, server_sm, cfg.atr_capacity, cfg.max_ws);
        let ctl = ServerControl::alloc(&mut dev, server_sm, num_clients);
        dev.shared_write_host(server_sm, atr.next_cts_addr(), 1);
        dev.enable_analysis(cfg.analysis);
        dev.add_invariant_checker(Box::new(CsmvInvariantChecker::single(
            atr.clone(),
            heap.clone(),
            gts_addr,
            server_sm,
        )));

        let mut thread_id = 0;
        let mut slot = 0;
        for sm in 0..server_sm {
            for _ in 0..cfg.warps_per_sm {
                let sources: Vec<BankSource> = (0..32)
                    .map(|i| BankSource::new(&bank, 7, thread_id + i, 4))
                    .collect();
                let mut client = CsmvClient::new(
                    sources,
                    thread_id,
                    Default::default(),
                    heap.clone(),
                    proto.clone(),
                    slot,
                    gts_addr,
                    done_addr,
                    cfg.variant,
                );
                if slot == num_clients - 1 {
                    client.inject_skip_gts_wait();
                }
                dev.spawn(sm, Box::new(client));
                thread_id += 32;
                slot += 1;
            }
        }
        dev.spawn(
            server_sm,
            Box::new(ReceiverWarp::new(
                proto.clone(),
                ctl.clone(),
                num_clients,
                done_addr,
            )),
        );
        for _ in 0..cfg.server_workers {
            dev.spawn(
                server_sm,
                Box::new(WorkerWarp::new(
                    proto.clone(),
                    ctl.clone(),
                    atr.clone(),
                    heap.clone(),
                    gts_addr,
                    cfg.variant,
                )),
            );
        }

        for _ in 0..50_000_000u64 {
            if dev.analysis().is_some_and(|a| a.violation_count() > 0) {
                let v = &dev.analysis().unwrap().violations()[0];
                assert_eq!(v.checker, "csmv");
                assert!(
                    v.message.contains("out of turn") || v.message.contains("turn-taking"),
                    "unexpected violation: {v}"
                );
                return;
            }
            if dev.live_warps() == 0 {
                panic!("run completed without the seeded bug being detected");
            }
            dev.step_once();
        }
        panic!("run neither finished nor produced a violation");
    }

    /// A single client warp that skips the wait is always "next in line", so
    /// the skip is unobservable and must NOT be flagged — the checker keys on
    /// protocol order, not on which code path produced the bump.
    #[test]
    fn single_client_skip_is_benign() {
        let gpu = GpuConfig {
            num_sms: 2,
            ..Default::default()
        }; // 1 client SM + server
        let cfg = CsmvConfig {
            gpu,
            server_workers: 2,
            warps_per_sm: 1,
            analysis: AnalysisConfig {
                races: true,
                invariants: true,
            },
            ..Default::default()
        };
        let bank = BankConfig::small(16, 0);
        let server_sm = cfg.gpu.num_sms - 1;
        let num_clients = cfg.num_client_warps();

        let mut dev = Device::new(cfg.gpu.clone());
        let gts_addr = dev.alloc_global(1);
        let done_addr = dev.alloc_global(1);
        let heap = stm_core::VBoxHeap::init(
            dev.global_mut(),
            bank.accounts,
            cfg.versions_per_box,
            |_| bank.initial_balance,
        );
        let proto = CommitProtocol::alloc(dev.global_mut(), num_clients, cfg.max_rs, cfg.max_ws);
        let atr = SharedAtr::alloc(&mut dev, server_sm, cfg.atr_capacity, cfg.max_ws);
        let ctl = ServerControl::alloc(&mut dev, server_sm, num_clients);
        dev.shared_write_host(server_sm, atr.next_cts_addr(), 1);
        dev.enable_analysis(cfg.analysis);
        dev.add_invariant_checker(Box::new(CsmvInvariantChecker::single(
            atr.clone(),
            heap.clone(),
            gts_addr,
            server_sm,
        )));

        let sources: Vec<BankSource> = (0..32).map(|i| BankSource::new(&bank, 3, i, 3)).collect();
        let mut client = CsmvClient::new(
            sources,
            0,
            Default::default(),
            heap.clone(),
            proto.clone(),
            0,
            gts_addr,
            done_addr,
            cfg.variant,
        );
        client.inject_skip_gts_wait();
        dev.spawn(0, Box::new(client));
        dev.spawn(
            server_sm,
            Box::new(ReceiverWarp::new(
                proto.clone(),
                ctl.clone(),
                num_clients,
                done_addr,
            )),
        );
        for _ in 0..cfg.server_workers {
            dev.spawn(
                server_sm,
                Box::new(WorkerWarp::new(
                    proto.clone(),
                    ctl.clone(),
                    atr.clone(),
                    heap.clone(),
                    gts_addr,
                    cfg.variant,
                )),
            );
        }
        dev.run_to_completion();
        let report = dev.finish_analysis().expect("analysis enabled");
        assert_eq!(
            report.violations.len(),
            0,
            "violations: {:?}",
            report.violations
        );
    }

    // -- multi-server checker (synthetic event streams) ---------------------

    mod multi_checker {
        use super::*;
        use gpu_sim::MemOrder;
        use stm_core::vbox::pack_version;

        fn fixture(expect_complete: bool) -> (CsmvInvariantChecker, PartitionedAtr, VBoxHeap) {
            let mut dev = Device::new(GpuConfig::default());
            let gts = dev.alloc_global(1);
            let cts = dev.alloc_global(1);
            let heap = VBoxHeap::init(dev.global_mut(), 4, 4, &mut |_| 0);
            let atr = PartitionedAtr::alloc(&mut dev, 0, 4, 2);
            let chk = CsmvInvariantChecker::multi(
                vec![atr.clone()],
                heap.clone(),
                gts,
                cts,
                0,
                expect_complete,
            );
            (chk, atr, heap)
        }

        pub(super) fn ev(space: Space, addr: u64, kind: AccessKind, value: u64) -> MemEvent {
            MemEvent {
                warp: 0,
                sm: 0,
                clock: 0,
                space,
                addr,
                kind,
                value,
                order: MemOrder::Release,
            }
        }

        pub(super) fn drive(chk: &mut CsmvInvariantChecker, evs: &[MemEvent]) -> Vec<Violation> {
            let mut out = Vec::new();
            for e in evs {
                chk.on_event(e, &mut out);
            }
            out
        }

        /// The two publication writes for local seq `seq` carrying `cts`.
        fn publish(atr: &PartitionedAtr, seq: u64, cts: u64) -> [MemEvent; 2] {
            let slot = atr.slot_of(seq);
            [
                ev(
                    Space::Shared,
                    atr.slot_cts_addr(slot),
                    AccessKind::Write,
                    cts,
                ),
                ev(
                    Space::Shared,
                    atr.slot_seq_addr(slot),
                    AccessKind::Write,
                    seq + 1,
                ),
            ]
        }

        fn reserve(
            chk: &mut CsmvInvariantChecker,
            cts_addr: u64,
            base: u64,
            n: u64,
        ) -> Vec<Violation> {
            drive(
                chk,
                &[ev(
                    Space::Global,
                    cts_addr,
                    AccessKind::Add { operand: n },
                    base,
                )],
            )
        }

        #[test]
        fn healthy_synthetic_stream_is_clean() {
            let (mut chk, atr, _heap) = fixture(true);
            let cts_addr = chk.cts_addr;
            let gts_addr = chk.gts_addr;
            assert!(reserve(&mut chk, cts_addr, 1, 2).is_empty());
            let mut evs = Vec::new();
            evs.extend(publish(&atr, 0, 1));
            evs.extend(publish(&atr, 1, 2));
            evs.push(ev(
                Space::Shared,
                atr.next_local_addr(),
                AccessKind::Write,
                2,
            ));
            evs.push(ev(Space::Global, gts_addr, AccessKind::Write, 2));
            let v = drive(&mut chk, &evs);
            assert!(v.is_empty(), "{v:?}");
            let mut out = Vec::new();
            chk.finish(&mut out);
            assert!(out.is_empty(), "{out:?}");
        }

        #[test]
        fn gts_regression_is_flagged() {
            let (mut chk, atr, _heap) = fixture(true);
            let cts_addr = chk.cts_addr;
            let gts_addr = chk.gts_addr;
            reserve(&mut chk, cts_addr, 1, 3);
            let mut evs = Vec::new();
            evs.extend(publish(&atr, 0, 1));
            evs.extend(publish(&atr, 1, 2));
            evs.push(ev(Space::Global, gts_addr, AccessKind::Write, 2));
            assert!(drive(&mut chk, &evs).is_empty());
            let v = drive(
                &mut chk,
                &[ev(Space::Global, gts_addr, AccessKind::Write, 1)],
            );
            assert_eq!(v.len(), 1, "{v:?}");
            assert!(v[0].message.contains("regress"), "{}", v[0].message);
        }

        #[test]
        fn gts_overtaking_reservations_is_flagged() {
            let (mut chk, _atr, _heap) = fixture(true);
            let cts_addr = chk.cts_addr;
            let gts_addr = chk.gts_addr;
            reserve(&mut chk, cts_addr, 1, 1);
            // A successful quarantine CAS that skips past the counter.
            let v = drive(
                &mut chk,
                &[ev(
                    Space::Global,
                    gts_addr,
                    AccessKind::Cas {
                        expected: 0,
                        new: 2,
                        success: true,
                    },
                    0,
                )],
            );
            assert_eq!(v.len(), 1, "{v:?}");
            assert!(v[0].message.contains("overtaking"), "{}", v[0].message);
        }

        #[test]
        fn unreserved_cts_publication_is_flagged() {
            let (mut chk, atr, _heap) = fixture(true);
            let v = drive(&mut chk, &publish(&atr, 0, 5));
            assert_eq!(v.len(), 1, "{v:?}");
            assert!(v[0].message.contains("never reserved"), "{}", v[0].message);
        }

        #[test]
        fn local_order_diverging_from_cts_order_is_flagged() {
            let (mut chk, atr, _heap) = fixture(true);
            let cts_addr = chk.cts_addr;
            reserve(&mut chk, cts_addr, 1, 2);
            let mut evs = Vec::new();
            evs.extend(publish(&atr, 0, 2));
            evs.extend(publish(&atr, 1, 1));
            let v = drive(&mut chk, &evs);
            assert_eq!(v.len(), 1, "{v:?}");
            assert!(v[0].message.contains("local order"), "{}", v[0].message);
        }

        #[test]
        fn stale_per_slot_tag_is_flagged() {
            let (mut chk, atr, _heap) = fixture(true);
            let cts_addr = chk.cts_addr;
            reserve(&mut chk, cts_addr, 1, 2);
            // Re-publishing the same tag into slot 0 (a stale recycled
            // entry) must trip the per-slot tag monotonicity.
            let mut evs = Vec::new();
            evs.extend(publish(&atr, 0, 1));
            evs.extend(publish(&atr, 0, 2));
            let v = drive(&mut chk, &evs);
            assert!(
                v.iter().any(|v| v.message.contains("strictly increase")),
                "{v:?}"
            );
        }

        #[test]
        fn writeback_of_unpublished_cts_is_flagged() {
            let (mut chk, atr, heap) = fixture(true);
            let cts_addr = chk.cts_addr;
            reserve(&mut chk, cts_addr, 1, 2);
            let mut evs: Vec<MemEvent> = publish(&atr, 0, 1).into();
            // cts 2 is reserved but not yet published: installing a version
            // carrying it means the client wrote back before validation.
            evs.push(ev(
                Space::Global,
                heap.head_addr(1) + 1,
                AccessKind::Write,
                pack_version(2, 77),
            ));
            let v = drive(&mut chk, &evs);
            assert_eq!(v.len(), 1, "{v:?}");
            assert!(
                v[0].message.contains("write-back before validation"),
                "{}",
                v[0].message
            );
        }

        #[test]
        fn finish_flags_reserved_but_unpublished_cts() {
            let (mut chk, atr, _heap) = fixture(true);
            let cts_addr = chk.cts_addr;
            reserve(&mut chk, cts_addr, 1, 2);
            let mut evs: Vec<MemEvent> = publish(&atr, 0, 1).into();
            evs.push(ev(
                Space::Shared,
                atr.next_local_addr(),
                AccessKind::Write,
                1,
            ));
            assert!(drive(&mut chk, &evs).is_empty());
            let mut out = Vec::new();
            chk.finish(&mut out);
            assert_eq!(out.len(), 1, "{out:?}");
            assert!(out[0].message.contains("reserved but never published"));
        }

        #[test]
        fn incomplete_runs_skip_end_of_run_checks() {
            let (mut chk, atr, _heap) = fixture(false);
            let cts_addr = chk.cts_addr;
            reserve(&mut chk, cts_addr, 1, 2);
            let evs: Vec<MemEvent> = publish(&atr, 0, 1).into();
            assert!(drive(&mut chk, &evs).is_empty());
            let mut out = Vec::new();
            chk.finish(&mut out);
            assert!(out.is_empty(), "{out:?}");
        }
    }

    // -- single-server checker (synthetic event streams) --------------------

    mod single_checker {
        use super::multi_checker::{drive, ev};
        use super::*;
        use stm_core::vbox::pack_version;

        /// One row per single-server obligation: an event stream that breaks
        /// it, and a phrase of the violation it must raise (the first row is
        /// the healthy stream, which raises none).
        #[test]
        fn each_broken_obligation_is_flagged() {
            let mut dev = Device::new(GpuConfig::default());
            let gts = dev.alloc_global(1);
            let heap = VBoxHeap::init(dev.global_mut(), 4, 4, &mut |_| 0);
            let atr = SharedAtr::alloc(&mut dev, 0, 4, 2);
            let reserve = |base: u64, n: u64| {
                let kind = AccessKind::Cas {
                    expected: base,
                    new: base + n,
                    success: true,
                };
                ev(Space::Shared, atr.next_cts_addr(), kind, base)
            };
            let tag = |slot, cts| {
                ev(
                    Space::Shared,
                    atr.slot_cts_addr(slot),
                    AccessKind::Write,
                    cts,
                )
            };
            let publish = |cts| tag(atr.slot_of(cts), cts);
            let bump = |value| ev(Space::Global, gts, AccessKind::Write, value);
            let install = |cts| {
                let word = heap.head_addr(1) + 1;
                ev(Space::Global, word, AccessKind::Write, pack_version(cts, 7))
            };
            let rows = [
                (
                    "healthy",
                    vec![reserve(1, 2), publish(1), publish(2), bump(2), install(2)],
                    "",
                ),
                (
                    "reservation gap",
                    vec![reserve(1, 2), reserve(4, 1)],
                    "gap-free",
                ),
                (
                    "wrong ring slot",
                    vec![reserve(1, 1), tag(1, 1)],
                    "ring maps it to slot 0",
                ),
                (
                    "stale per-slot tag",
                    vec![reserve(1, 5), publish(5), publish(1)],
                    "strictly increase",
                ),
                (
                    "double publish",
                    vec![reserve(1, 1), publish(1), publish(1)],
                    "published twice",
                ),
                (
                    "out-of-turn GTS bump",
                    vec![reserve(1, 2), reserve(3, 2), bump(4)],
                    "out of turn",
                ),
                (
                    "write-back of an unpublished cts",
                    vec![reserve(1, 2), publish(1), install(2)],
                    "write-back before validation",
                ),
                (
                    "reserved but unpublished at finish",
                    vec![reserve(1, 2), publish(1), bump(2)],
                    "reserved but never published",
                ),
            ];
            for (row, events, expect) in rows {
                let mut chk = CsmvInvariantChecker::single(atr.clone(), heap.clone(), gts, 0);
                let mut out = drive(&mut chk, &events);
                chk.finish(&mut out);
                if expect.is_empty() {
                    assert!(out.is_empty(), "{row}: {out:?}");
                } else {
                    assert!(
                        out.iter()
                            .any(|v| v.checker == "csmv" && v.message.contains(expect)),
                        "{row}: expected a violation containing `{expect}`, got {out:?}"
                    );
                }
            }
        }
    }
}
