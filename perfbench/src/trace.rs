//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer of the stack; the program itself carries no probes. A span
//! has a name, start and end (ns since the tracer was created), the id
//! of the span that caused it, and the id of the workload run it
//! belongs to. Spans stay in memory and are written out once, at exit.
//!
//! A disabled tracer hands out inert guards, so the untraced run pays
//! one branch per span site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub run: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Open spans of this thread, innermost last: the parent of the
    /// next span opened here.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    run: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            run: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Starts a new workload run; spans opened from now on carry its id.
    pub fn begin_run(&self) -> u64 {
        self.run.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span whose parent is the innermost span open on this
    /// thread. The span ends when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard {
                tracer: None,
                id: 0,
                parent: None,
                run: 0,
                name,
                start_ns: 0,
            };
        }
        let parent = OPEN.with(|open| open.borrow().last().copied());
        self.open(name, parent)
    }

    /// Opens a span under an explicit parent (for work handed to
    /// another thread, whose own stack is empty).
    pub fn span_under(&self, name: &'static str, parent: Option<u64>) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard {
                tracer: None,
                id: 0,
                parent: None,
                run: 0,
                name,
                start_ns: 0,
            };
        }
        self.open(name, parent)
    }

    fn open(&self, name: &'static str, parent: Option<u64>) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push(id));
        SpanGuard {
            tracer: Some(self),
            id,
            parent,
            run: self.run.load(Ordering::Relaxed),
            name,
            start_ns: self.now_ns(),
        }
    }

    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .clone()
    }

    fn push(&self, record: SpanRecord) {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .push(record);
    }
}

/// Ends its span on drop.
#[must_use = "a span ends when its guard drops"]
pub struct SpanGuard<'t> {
    tracer: Option<&'t Tracer>,
    id: u64,
    parent: Option<u64>,
    run: u64,
    name: &'static str,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// This span's id, to parent work started on other threads.
    pub fn id(&self) -> Option<u64> {
        self.tracer.map(|_| self.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer else { return };
        let end_ns = tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&id| id == self.id) {
                open.remove(pos);
            }
        });
        tracer.push(SpanRecord {
            id: self.id,
            parent: self.parent,
            run: self.run,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

/// Total length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of its
/// interval that its child spans cover (children on other threads may
/// overlap each other; the union is subtracted once).
pub fn self_times(spans: &[SpanRecord]) -> Vec<(u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, s.dur_ns() - covered_ns(kids, s.start_ns, s.end_ns))
        })
        .collect()
}

/// Per span name within one run: (count, total seconds, self seconds).
pub fn layer_totals(spans: &[SpanRecord], run: u64) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let own: Vec<SpanRecord> = spans.iter().filter(|s| s.run == run).cloned().collect();
    let selfs: BTreeMap<u64, u64> = self_times(&own).into_iter().collect();
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in &own {
        let entry = out.entry(s.name).or_insert((0, 0.0, 0.0));
        entry.0 += 1;
        entry.1 += s.dur_ns() as f64 * 1e-9;
        entry.2 += selfs[&s.id] as f64 * 1e-9;
    }
    out
}

/// Prints each span name's count, total and self time over all runs.
pub fn print_self_times(spans: &[SpanRecord]) {
    let selfs: BTreeMap<u64, u64> = self_times(spans).into_iter().collect();
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += selfs[&s.id];
    }
    for (name, (count, total, own)) in by_name {
        println!(
            "# span {name}: count {count}, total {:.6} s, self {:.6} s",
            total as f64 * 1e-9,
            own as f64 * 1e-9
        );
    }
}

/// The spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[SpanRecord], workload: &str, seed: u64) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"run\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.run, s.id, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            run: 1,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children 10..40 and 30..60 overlap (two
        // threads), child 80..120 overhangs the parent's end.
        let spans = vec![
            rec(1, None, 0, 100),
            rec(2, Some(1), 10, 40),
            rec(3, Some(1), 30, 60),
            rec(4, Some(1), 80, 120),
        ];
        let selfs: BTreeMap<u64, u64> = self_times(&spans).into_iter().collect();
        assert_eq!(selfs[&1], 100 - 50 - 20);
        assert_eq!(selfs[&2], 30);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_nesting_sets_parents() {
        let t = Tracer::new();
        drop(t.span("off"));
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let run = t.begin_run();
        {
            let outer = t.span("outer");
            let inner = t.span("inner");
            assert_ne!(outer.id(), inner.id());
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(spans.iter().all(|s| s.run == run));
    }
}
