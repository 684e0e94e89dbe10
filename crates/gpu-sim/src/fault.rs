//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] is a pure function of a seed plus a [`FaultSpec`]: every
//! decision it hands out is computed by hashing the seed together with
//! *simulation-stable* coordinates (warp id, mailbox channel/slot, batch
//! sequence number, retry attempt) — never wall-clock time, never scheduler
//! internals. The rest of the repo relies on the consequence,
//! **replayability**: the same seed + spec + workload produces the same
//! faults at the same simulated instants, so a faulty run is as debuggable
//! as a healthy one.
//!
//! Two families of faults exist:
//!
//! * **Scheduled faults** consulted by the scheduler before stepping a warp
//!   ([`FaultPlan::scheduled_fate`]): kill a warp at a cycle, stall it for N
//!   cycles at a cycle, or crash a whole SM (every warp resident on it dies
//!   once scheduled at/after the crash cycle).
//! * **Message faults** consulted by mailbox kernels at send/respond time
//!   ([`FaultPlan::drop_request`] & friends): drop a request, delay it,
//!   duplicate it, or drop a response status flip. Decisions are keyed by
//!   `(channel, slot, seq, attempt)` so a *retry* of a dropped message is an
//!   independent coin flip — a fixed probability below 1.0 cannot livelock a
//!   retrying client.
//!
//! The plan also provides deterministic backoff jitter
//! ([`FaultPlan::backoff_jitter`]) so client retry schedules are seeded too.

use std::fmt;
use std::str::FromStr;

use crate::sched::WarpId;

/// What the scheduler should do with a warp it is about to step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Step normally.
    Run,
    /// Add this many cycles to the warp's clock and reschedule (applied at
    /// most once per warp; the scheduler records that the stall happened).
    Stall(u64),
    /// Retire the warp immediately without stepping it.
    Kill,
}

/// Declarative description of the faults to inject. Parsed from the
/// `--faults` CLI syntax (see [`FaultSpec::from_str`]); all-default means
/// "no faults".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSpec {
    /// Probability that a request send's status flip is suppressed.
    pub drop_req: f64,
    /// Probability that a response's status flip is suppressed.
    pub drop_resp: f64,
    /// Probability that a client re-delivers a completed request once.
    pub dup_req: f64,
    /// Probability that a request send is delayed.
    pub delay_prob: f64,
    /// Delay applied when a send is delayed, in cycles.
    pub delay_cycles: u64,
    /// Kill warp `w` when it is first scheduled at/after cycle `c`.
    pub kills: Vec<(WarpId, u64)>,
    /// Stall warp `w` for `n` cycles when first scheduled at/after cycle `c`.
    pub stalls: Vec<(WarpId, u64, u64)>,
    /// Kill every warp of SM `s` scheduled at/after cycle `c`.
    pub crash_sms: Vec<(usize, u64)>,
}

impl FaultSpec {
    /// True when the spec injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.drop_req == 0.0
            && self.drop_resp == 0.0
            && self.dup_req == 0.0
            && (self.delay_prob == 0.0 || self.delay_cycles == 0)
            && self.kills.is_empty()
            && self.stalls.is_empty()
            && self.crash_sms.is_empty()
    }
}

/// `--faults` parse error with the offending fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(pub String);

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

fn parse_prob(key: &str, v: &str) -> Result<f64, FaultSpecError> {
    let p: f64 = v
        .parse()
        .map_err(|_| FaultSpecError(format!("{key}={v}: not a probability")))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(FaultSpecError(format!("{key}={v}: outside [0,1]")));
    }
    Ok(p)
}

fn parse_u64(key: &str, v: &str) -> Result<u64, FaultSpecError> {
    v.parse()
        .map_err(|_| FaultSpecError(format!("{key}: `{v}` is not an integer")))
}

fn split2<'v>(key: &str, v: &'v str, sep: char) -> Result<(&'v str, &'v str), FaultSpecError> {
    v.split_once(sep)
        .ok_or_else(|| FaultSpecError(format!("{key}={v}: expected `{sep}` separator")))
}

impl FromStr for FaultSpec {
    type Err = FaultSpecError;

    /// Comma-separated `key=value` clauses:
    ///
    /// ```text
    /// drop_req=P            drop request delivery with probability P
    /// drop_resp=P           drop response delivery with probability P
    /// dup_req=P             duplicate a completed request with probability P
    /// delay_req=PxN         delay a request N cycles with probability P
    /// kill=W@C              kill warp W at cycle C       (repeatable)
    /// stall=W@CxN           stall warp W at cycle C for N cycles (repeatable)
    /// crash_sm=S@C          crash SM S at cycle C        (repeatable)
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut spec = FaultSpec::default();
        for clause in s.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, v) = clause
                .split_once('=')
                .ok_or_else(|| FaultSpecError(format!("`{clause}`: expected key=value")))?;
            match key {
                "drop_req" => spec.drop_req = parse_prob(key, v)?,
                "drop_resp" => spec.drop_resp = parse_prob(key, v)?,
                "dup_req" => spec.dup_req = parse_prob(key, v)?,
                "delay_req" => {
                    let (p, n) = split2(key, v, 'x')?;
                    spec.delay_prob = parse_prob(key, p)?;
                    spec.delay_cycles = parse_u64(key, n)?;
                }
                "kill" => {
                    let (w, c) = split2(key, v, '@')?;
                    spec.kills
                        .push((parse_u64(key, w)? as WarpId, parse_u64(key, c)?));
                }
                "stall" => {
                    let (w, rest) = split2(key, v, '@')?;
                    let (c, n) = split2(key, rest, 'x')?;
                    spec.stalls.push((
                        parse_u64(key, w)? as WarpId,
                        parse_u64(key, c)?,
                        parse_u64(key, n)?,
                    ));
                }
                "crash_sm" => {
                    let (sm, c) = split2(key, v, '@')?;
                    spec.crash_sms
                        .push((parse_u64(key, sm)? as usize, parse_u64(key, c)?));
                }
                _ => return Err(FaultSpecError(format!("unknown fault class `{key}`"))),
            }
        }
        Ok(spec)
    }
}

/// SplitMix64: tiny, high-quality, dependency-free mixing function. Only
/// used for fault decisions, so its statistical quality requirements are
/// modest; determinism is what matters.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// Domain-separation salts so each decision family draws independent bits.
const D_DROP_REQ: u64 = 1;
const D_DROP_RESP: u64 = 2;
const D_DUP_REQ: u64 = 3;
const D_DELAY: u64 = 4;
const D_JITTER: u64 = 5;

/// A fully materialized, immutable fault schedule. Cheap to clone; share by
/// reference between the scheduler and kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    spec: FaultSpec,
}

impl FaultPlan {
    /// Derive the plan. A given `(seed, spec)` pair always produces the
    /// identical plan — no ambient state is consulted.
    pub fn new(seed: u64, spec: FaultSpec) -> Self {
        Self { seed, spec }
    }

    /// The seed the plan was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The spec the plan was derived from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    fn roll(&self, domain: u64, a: u64, b: u64, c: u64, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let h = splitmix64(
            self.seed ^ splitmix64(domain ^ splitmix64(a ^ splitmix64(b ^ splitmix64(c)))),
        );
        // Compare against a fixed-point threshold; f64→u64 conversion of a
        // value in [0, 2^64) is exact enough for fault rates.
        (h as f64) < p * (u64::MAX as f64)
    }

    /// What the scheduler should do with `warp` (resident on `sm`) about to
    /// be stepped at `clock`. `already_stalled` suppresses re-applying a
    /// one-shot stall.
    pub fn scheduled_fate(
        &self,
        warp: WarpId,
        sm: usize,
        clock: u64,
        already_stalled: bool,
    ) -> Fate {
        for &(s, c) in &self.spec.crash_sms {
            if sm == s && clock >= c {
                return Fate::Kill;
            }
        }
        for &(w, c) in &self.spec.kills {
            if warp == w && clock >= c {
                return Fate::Kill;
            }
        }
        if !already_stalled {
            for &(w, c, n) in &self.spec.stalls {
                if warp == w && clock >= c && n > 0 {
                    return Fate::Stall(n);
                }
            }
        }
        Fate::Run
    }

    /// The earliest cycle at/after which SM `sm` is crashed, if any.
    pub fn sm_crash_at(&self, sm: usize) -> Option<u64> {
        self.spec
            .crash_sms
            .iter()
            .filter(|&&(s, _)| s == sm)
            .map(|&(_, c)| c)
            .min()
    }

    /// Should the `attempt`-th delivery of request `seq` on
    /// `(channel, slot)` be dropped (status flip suppressed)?
    pub fn drop_request(&self, channel: u64, slot: u64, seq: u64, attempt: u32) -> bool {
        self.roll(
            D_DROP_REQ,
            channel,
            slot,
            seq ^ ((attempt as u64) << 48),
            self.spec.drop_req,
        )
    }

    /// Extra cycles to delay the `attempt`-th delivery of request `seq`
    /// (0 = deliver on time).
    pub fn request_delay(&self, channel: u64, slot: u64, seq: u64, attempt: u32) -> u64 {
        if self.spec.delay_cycles > 0
            && self.roll(
                D_DELAY,
                channel,
                slot,
                seq ^ ((attempt as u64) << 48),
                self.spec.delay_prob,
            )
        {
            self.spec.delay_cycles
        } else {
            0
        }
    }

    /// Should the client re-deliver request `seq` once after completing it
    /// (modelling duplicate delivery in the transport)?
    pub fn duplicate_request(&self, channel: u64, slot: u64, seq: u64) -> bool {
        self.roll(D_DUP_REQ, channel, slot, seq, self.spec.dup_req)
    }

    /// Should the `send_idx`-th response publication for `(channel, slot,
    /// seq)` be dropped (status flip suppressed, payload left in place)?
    pub fn drop_response(&self, channel: u64, slot: u64, seq: u64, send_idx: u32) -> bool {
        self.roll(
            D_DROP_RESP,
            channel,
            slot,
            seq ^ ((send_idx as u64) << 48),
            self.spec.drop_resp,
        )
    }

    /// Deterministic jitter in `[0, max]` for a client backoff decision.
    pub fn backoff_jitter(&self, warp: WarpId, seq: u64, attempt: u32, max: u64) -> u64 {
        if max == 0 {
            return 0;
        }
        let h = splitmix64(
            self.seed
                ^ splitmix64(D_JITTER ^ splitmix64(warp as u64 ^ splitmix64(seq)))
                ^ (attempt as u64),
        );
        h % (max + 1)
    }
}

/// Standalone seeded jitter for harnesses that retry without a fault plan
/// installed (backoff should be deterministic whether or not faults are
/// being injected).
pub fn seeded_jitter(seed: u64, actor: u64, seq: u64, attempt: u32, max: u64) -> u64 {
    FaultPlan::new(seed, FaultSpec::default()).backoff_jitter(actor as WarpId, seq, attempt, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_every_class() {
        let s: FaultSpec = "drop_req=0.1,drop_resp=0.25,dup_req=0.05,delay_req=0.5x40,kill=5@2000,\
             stall=3@1000x500,crash_sm=7@3000,kill=6@100"
            .parse()
            .expect("valid spec");
        assert_eq!(s.drop_req, 0.1);
        assert_eq!(s.drop_resp, 0.25);
        assert_eq!(s.dup_req, 0.05);
        assert_eq!((s.delay_prob, s.delay_cycles), (0.5, 40));
        assert_eq!(s.kills, vec![(5, 2000), (6, 100)]);
        assert_eq!(s.stalls, vec![(3, 1000, 500)]);
        assert_eq!(s.crash_sms, vec![(7, 3000)]);
        assert!(!s.is_empty());
        assert!(FaultSpec::default().is_empty());
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!("drop_req=2.0".parse::<FaultSpec>().is_err());
        assert!("nonsense=1".parse::<FaultSpec>().is_err());
        assert!("kill=5".parse::<FaultSpec>().is_err());
        assert!("delay_req=0.5".parse::<FaultSpec>().is_err());
        assert!("".parse::<FaultSpec>().expect("empty ok").is_empty());
    }

    #[test]
    fn decisions_are_pure_functions_of_inputs() {
        let spec: FaultSpec = "drop_req=0.5,drop_resp=0.5,dup_req=0.5,delay_req=0.5x10"
            .parse()
            .unwrap();
        let a = FaultPlan::new(42, spec.clone());
        let b = FaultPlan::new(42, spec.clone());
        for seq in 0..200 {
            assert_eq!(a.drop_request(0, 3, seq, 0), b.drop_request(0, 3, seq, 0));
            assert_eq!(a.drop_response(1, 3, seq, 2), b.drop_response(1, 3, seq, 2));
            assert_eq!(
                a.duplicate_request(0, 3, seq),
                b.duplicate_request(0, 3, seq)
            );
            assert_eq!(
                a.backoff_jitter(9, seq, 1, 100),
                b.backoff_jitter(9, seq, 1, 100)
            );
        }
        let c = FaultPlan::new(43, spec);
        let diverges =
            (0..200).any(|seq| a.drop_request(0, 3, seq, 0) != c.drop_request(0, 3, seq, 0));
        assert!(diverges, "different seeds must give different schedules");
    }

    #[test]
    fn probability_extremes_are_exact() {
        let all: FaultSpec = "drop_req=1.0".parse().unwrap();
        let none = FaultSpec::default();
        let p1 = FaultPlan::new(7, all);
        let p0 = FaultPlan::new(7, none);
        for seq in 0..100 {
            assert!(p1.drop_request(0, 0, seq, 0));
            assert!(!p0.drop_request(0, 0, seq, 0));
        }
    }

    #[test]
    fn retries_reroll_the_dice() {
        let spec: FaultSpec = "drop_req=0.5".parse().unwrap();
        let p = FaultPlan::new(1, spec);
        // Some (slot, seq) whose first attempt drops must eventually pass on
        // a retry — the attempt number participates in the hash.
        let mut saw_recovery = false;
        for seq in 0..64 {
            if p.drop_request(0, 0, seq, 0) && !p.drop_request(0, 0, seq, 1) {
                saw_recovery = true;
            }
        }
        assert!(saw_recovery);
    }

    #[test]
    fn scheduled_fates_trigger_at_cycle() {
        let spec: FaultSpec = "kill=2@100,stall=4@50x500,crash_sm=1@300".parse().unwrap();
        let p = FaultPlan::new(0, spec);
        assert_eq!(p.scheduled_fate(2, 0, 99, false), Fate::Run);
        assert_eq!(p.scheduled_fate(2, 0, 100, false), Fate::Kill);
        assert_eq!(p.scheduled_fate(4, 0, 60, false), Fate::Stall(500));
        assert_eq!(p.scheduled_fate(4, 0, 60, true), Fate::Run);
        assert_eq!(p.scheduled_fate(9, 1, 299, false), Fate::Run);
        assert_eq!(p.scheduled_fate(9, 1, 300, false), Fate::Kill);
        assert_eq!(p.sm_crash_at(1), Some(300));
        assert_eq!(p.sm_crash_at(0), None);
    }

    #[test]
    fn jitter_is_bounded_and_seeded() {
        let p = FaultPlan::new(11, FaultSpec::default());
        for a in 0..32 {
            let j = p.backoff_jitter(3, 17, a, 64);
            assert!(j <= 64);
            assert_eq!(j, seeded_jitter(11, 3, 17, a, 64));
        }
        assert_eq!(p.backoff_jitter(3, 17, 0, 0), 0);
    }
}
