//! Bench-side spans: recorded in memory around the calls into each layer,
//! written out once when the traced run ends. Spans inside the program
//! are a later change (ROADMAP item 1); these are taken from outside.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;

/// One request in this many is traced; the rest only feed the histograms.
pub const SAMPLE_EVERY: u64 = 16;

/// Spans listed per trace file; later ones are only counted, so a fast
/// workload cannot write hundreds of megabytes.
const MAX_SPANS: usize = 60_000;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// Shared by all spans of one request (the root's id).
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn id(&self) -> u32 {
        // Relaxed: the id only has to be unique, it publishes nothing.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a root span with `children` laid end to end inside it.
    /// Returns the root's id so later spans can name it as their parent.
    pub fn record(
        &self,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        children: &[(&'static str, Instant, Instant)],
    ) -> u32 {
        let id = self.id();
        let req = if parent == 0 { id } else { parent };
        let mut batch = vec![Span {
            id,
            parent,
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        }];
        for &(child, from, to) in children {
            batch.push(Span {
                id: self.id(),
                parent: id,
                req,
                name: child,
                start_ns: self.ns(from),
                end_ns: self.ns(to),
            });
        }
        self.spans
            .lock()
            .expect("no span writer panics while holding the lock")
            .extend(batch);
        id
    }

    /// Per span name: how many, their total time, and their self time
    /// (duration minus the part their child spans cover).
    pub fn summary(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut covered: BTreeMap<u32, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *covered.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in spans {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let own = dur.saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += own;
        }
        out
    }

    /// Write `{"workload", "dropped", "summary", "spans"}` to `path`. The
    /// summary covers every span recorded; `spans` lists the first
    /// [`MAX_SPANS`] by start time and `dropped` counts the rest.
    pub fn write(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        let mut spans = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no span writer panics while holding the lock"),
        );
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let summary = Json::obj(Self::summary(&spans).into_iter().map(
            |(name, (n, total, own))| {
                (
                    name,
                    Json::obj([
                        ("count", Json::Num(n as f64)),
                        ("total_ns", Json::Num(total as f64)),
                        ("self_ns", Json::Num(own as f64)),
                    ]),
                )
            },
        ));
        let dropped = spans.len().saturating_sub(MAX_SPANS);
        let list = spans
            .iter()
            .take(MAX_SPANS)
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    ("parent", Json::Num(s.parent as f64)),
                    ("req", Json::Num(s.req as f64)),
                    ("name", Json::Str(s.name.into())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("workload", Json::Str(workload.into())),
            ("dropped", Json::Num(dropped as f64)),
            ("summary", summary),
            ("spans", Json::Arr(list)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let t = Tracer::default();
        let at = |us: u64| t.epoch + Duration::from_micros(us);
        let root = t.record(
            0,
            "req",
            at(0),
            at(100),
            &[("sock.write", at(0), at(10)), ("wait", at(10), at(90))],
        );
        t.record(root, "late", at(100), at(130), &[]);
        let spans = t.spans.lock().unwrap().clone();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.req == root));
        let sum = Tracer::summary(&spans);
        // req lasts 100 us; its three children cover 10 + 80 + 30.
        assert_eq!(sum["req"], (1, 100_000, 0));
        assert_eq!(sum["wait"], (1, 80_000, 80_000));
        assert_eq!(sum["late"], (1, 30_000, 30_000));
    }

    #[test]
    fn written_trace_parses_back() {
        let t = Tracer::default();
        let now = Instant::now();
        t.record(0, "run", now, now + Duration::from_millis(2), &[]);
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/trace-unit-test.json");
        t.write("unit", &path).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some("unit"));
        assert_eq!(
            doc.get("spans").and_then(Json::as_arr).map(<[_]>::len),
            Some(1)
        );
    }
}
