//! Tracing for the per-layer run, done entirely from the benchmark's own code: spans
//! around the calls the benchmark makes into a layer's public functions, a
//! [`SegmentDevice`] wrapper for the device layer, and a recorder registered with
//! [`LogStore::set_gc_phase_hook`] for the cleaner's phases.
//!
//! Spans are kept in memory and read when the run ends. A span's parent is the
//! enclosing span of the same thread; [`check_nesting`] proves that every child lies
//! inside its parent, so self times are never negative.

use crate::measure::{self_time, Latencies};
use lss_core::device::{DeviceGeometry, SegmentDevice};
use lss_core::{GcPhase, LogStore, Result, SegmentId};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn thread_id() -> u64 {
    THREAD.with(|t| *t)
}

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub thread: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Span recorder shared by every traced component of one run.
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the tracer was made: the clock of every span and event.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Run `f`, recording a span named `name` around it while tracing is on.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.load(Ordering::Relaxed) {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.spans.lock().expect("span list poisoned").push(Span {
            name,
            thread: thread_id(),
            start,
            end,
        });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// [`Tracer::span`] when there is a tracer, else just `f()`.
pub fn maybe_span<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Spans named `name` that start inside `[from, to)`.
pub fn select<'a>(spans: &'a [Span], name: &str, from: u64, to: u64) -> Vec<&'a Span> {
    spans
        .iter()
        .filter(|s| s.name == name && s.start >= from && s.start < to)
        .collect()
}

pub fn latencies<'a>(spans: impl IntoIterator<Item = &'a Span>) -> Latencies {
    let mut l = Latencies::default();
    for s in spans {
        l.push(s.ns());
    }
    l
}

/// Check that spans of one thread are properly nested: any two either do not overlap
/// or one contains the other.
pub fn check_nesting(spans: &[Span]) -> std::result::Result<(), String> {
    let mut by_thread: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        if s.end < s.start {
            return Err(format!("span {} ends before it starts", s.name));
        }
        by_thread.entry(s.thread).or_default().push(s);
    }
    for list in by_thread.values_mut() {
        // Parents first: earlier start, then longer.
        list.sort_by_key(|s| (s.start, std::cmp::Reverse(s.end)));
        let mut open: Vec<&Span> = Vec::new();
        for s in list.iter() {
            while open.last().is_some_and(|p| p.end <= s.start) {
                open.pop();
            }
            if let Some(p) = open.last() {
                if s.end > p.end {
                    return Err(format!(
                        "span {} [{}, {}) overlaps but does not nest in {} [{}, {})",
                        s.name, s.start, s.end, p.name, p.start, p.end
                    ));
                }
            }
            open.push(s);
        }
    }
    Ok(())
}

/// Self times of the `parents` spans: each one's duration minus the spans of the same
/// thread (from `all`) that lie inside it and whose name starts with `child_prefix`.
pub fn self_times(
    parents: &[&Span],
    all: &[Span],
    child_prefix: &str,
) -> std::result::Result<Latencies, String> {
    let mut by_thread: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in all.iter().filter(|s| s.name.starts_with(child_prefix)) {
        by_thread
            .entry(s.thread)
            .or_default()
            .push((s.start, s.end));
    }
    for v in by_thread.values_mut() {
        v.sort_unstable();
    }
    let mut out = Latencies::default();
    for p in parents {
        let kids: Vec<(u64, u64)> = by_thread
            .get(&p.thread)
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&(s, e)| s < p.end && e > p.start)
                    .collect()
            })
            .unwrap_or_default();
        out.push(self_time((p.start, p.end), &kids)?);
    }
    Ok(out)
}

/// The device layer's tracer: times every call and counts segment writes itself, so
/// its count can be checked against the device's own.
pub struct TracedDevice {
    inner: Arc<dyn SegmentDevice>,
    tracer: Arc<Tracer>,
    writes: AtomicU64,
}

impl TracedDevice {
    pub fn new(inner: Arc<dyn SegmentDevice>, tracer: Arc<Tracer>) -> Self {
        TracedDevice {
            inner,
            tracer,
            writes: AtomicU64::new(0),
        }
    }

    /// Segment writes seen by the wrapper, traced or not.
    pub fn wrapper_writes(&self) -> u64 {
        self.writes.load(Ordering::SeqCst)
    }
}

impl SegmentDevice for TracedDevice {
    fn geometry(&self) -> DeviceGeometry {
        self.inner.geometry()
    }
    fn read_segment(&self, seg: SegmentId) -> Result<Vec<u8>> {
        self.tracer
            .span("device.read_segment", || self.inner.read_segment(seg))
    }
    fn read_range(&self, seg: SegmentId, offset: u32, len: u32) -> Result<Vec<u8>> {
        self.tracer.span("device.read_range", || {
            self.inner.read_range(seg, offset, len)
        })
    }
    fn write_segment(&self, seg: SegmentId, image: &[u8]) -> Result<()> {
        self.writes.fetch_add(1, Ordering::SeqCst);
        self.tracer.span("device.write_segment", || {
            self.inner.write_segment(seg, image)
        })
    }
    fn erase_segment(&self, seg: SegmentId) -> Result<()> {
        self.inner.erase_segment(seg)
    }
    fn sync(&self) -> Result<()> {
        self.tracer.span("device.sync", || self.inner.sync())
    }
    fn segment_writes(&self) -> u64 {
        self.inner.segment_writes()
    }
}

/// Device-layer metrics over the spans that start in `[from, to)`.
pub fn device_metrics(
    spans: &[Span],
    from: u64,
    to: u64,
    segment_bytes: usize,
    out: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
) {
    let window = (to - from) as f64;
    let mut busy = 0u64;
    for (name, count, p50, p99) in [
        (
            "device.write_segment",
            "device.write_segment_count",
            Some("device.write_segment_us_p50"),
            Some("device.write_segment_us_p99"),
        ),
        (
            "device.sync",
            "device.sync_count",
            Some("device.sync_us_p50"),
            Some("device.sync_us_p99"),
        ),
        (
            "device.read_range",
            "device.read_range_count",
            Some("device.read_range_us_p50"),
            None,
        ),
        (
            "device.read_segment",
            "device.read_segment_count",
            Some("device.read_segment_us_p50"),
            None,
        ),
    ] {
        let sel = select(spans, name, from, to);
        let lat = latencies(sel.iter().copied());
        busy += lat.sum_ns();
        out.insert(count, sel.len() as f64);
        if name == "device.write_segment" {
            out.insert("device.write_bytes", (sel.len() * segment_bytes) as f64);
        }
        for (metric, q) in [(p50, 0.5), (p99, 0.99)] {
            if let Some(metric) = metric {
                out.insert(metric, pct(&lat, q, metric, notes));
            }
        }
    }
    out.insert("device.busy_frac", busy as f64 / window);
}

/// Percentile in µs, or 0 with a note saying why it is not reported.
pub fn pct(l: &Latencies, q: f64, metric: &str, notes: &mut Vec<String>) -> f64 {
    match l.us(q) {
        Ok(v) => v,
        Err(why) => {
            notes.push(format!("{metric}: {why}; reported as 0"));
            0.0
        }
    }
}

/// One cleaner phase boundary as seen by the hook.
#[derive(Debug, Clone, Copy)]
pub struct GcEvent {
    pub token: u64,
    pub phase: GcPhase,
    pub victim: Option<SegmentId>,
    pub at: u64,
}

/// Records every phase boundary of every cleaning cycle of a store.
pub struct GcRecorder {
    events: Arc<Mutex<Vec<GcEvent>>>,
}

impl GcRecorder {
    pub fn install(store: &LogStore, tracer: Arc<Tracer>) -> Self {
        let events: Arc<Mutex<Vec<GcEvent>>> = Arc::default();
        let sink = Arc::clone(&events);
        store.set_gc_phase_hook(Some(Arc::new(move |token, phase, victim| {
            let at = tracer.now();
            sink.lock().expect("gc event list poisoned").push(GcEvent {
                token,
                phase,
                victim,
                at,
            });
        })));
        GcRecorder { events }
    }

    pub fn events(&self) -> Vec<GcEvent> {
        self.events.lock().expect("gc event list poisoned").clone()
    }
}

/// Cycles that claimed at least one victim, by token, with their events in order.
fn cycles(events: &[GcEvent]) -> BTreeMap<u64, Vec<GcEvent>> {
    let mut by_token: BTreeMap<u64, Vec<GcEvent>> = BTreeMap::new();
    for e in events {
        if e.phase != GcPhase::ControllerDecision {
            by_token.entry(e.token).or_default().push(*e);
        }
    }
    by_token
}

/// Number of cycles the hook saw over the store's whole life.
pub fn cycles_seen(events: &[GcEvent]) -> u64 {
    cycles(events).len() as u64
}

/// Cleaner timing metrics for the cycles that finished (`Synced`) in `[from, to)`.
pub fn gc_timings(
    events: &[GcEvent],
    from: u64,
    to: u64,
    out: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
) {
    let mut cycle = Latencies::default();
    let mut read = Latencies::default();
    let mut reloc = Latencies::default();
    let mut seal = Latencies::default();
    let mut sync = Latencies::default();
    let mut busy = 0u64;
    for evs in cycles(events).values() {
        let at = |p: GcPhase| evs.iter().filter(move |e| e.phase == p).map(|e| e.at);
        let Some(synced) = at(GcPhase::Synced).next() else {
            continue;
        };
        if synced < from || synced >= to {
            continue;
        }
        let (Some(first), Some(sealed), Some(last_reloc)) = (
            at(GcPhase::Claimed).min(),
            at(GcPhase::Sealed).next(),
            at(GcPhase::Relocated).max(),
        ) else {
            continue;
        };
        cycle.push(synced - first);
        busy += synced - first;
        seal.push(sealed.saturating_sub(last_reloc));
        sync.push(synced.saturating_sub(sealed));
        for e in evs.iter().filter(|e| e.phase == GcPhase::VictimRead) {
            let of_victim = |p: GcPhase| evs.iter().find(|x| x.phase == p && x.victim == e.victim);
            if let Some(claimed) = of_victim(GcPhase::Claimed) {
                read.push(e.at.saturating_sub(claimed.at));
            }
            if let Some(relocated) = of_victim(GcPhase::Relocated) {
                reloc.push(relocated.at.saturating_sub(e.at));
            }
        }
    }
    out.insert(
        "gc.cycle_us_p50",
        pct(&cycle, 0.5, "gc.cycle_us_p50", notes),
    );
    out.insert(
        "gc.cycle_us_p99",
        pct(&cycle, 0.99, "gc.cycle_us_p99", notes),
    );
    out.insert("gc.read_us_p50", pct(&read, 0.5, "gc.read_us_p50", notes));
    out.insert(
        "gc.relocate_us_p50",
        pct(&reloc, 0.5, "gc.relocate_us_p50", notes),
    );
    out.insert("gc.seal_us_p50", pct(&seal, 0.5, "gc.seal_us_p50", notes));
    out.insert("gc.sync_us_p50", pct(&sync, 0.5, "gc.sync_us_p50", notes));
    out.insert("gc.busy_frac", busy as f64 / (to - from) as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, thread: u64, start: u64, end: u64) -> Span {
        Span {
            name,
            thread,
            start,
            end,
        }
    }

    #[test]
    fn nesting_accepts_trees_and_rejects_overlaps() {
        let ok = [
            span("kv.flush", 1, 0, 100),
            span("device.write_segment", 1, 10, 20),
            span("device.sync", 1, 30, 100),
            span("device.sync", 2, 50, 150),
            span("kv.flush", 1, 100, 120),
        ];
        assert!(check_nesting(&ok).is_ok());
        let bad = [span("kv.flush", 1, 0, 100), span("device.sync", 1, 90, 110)];
        assert!(check_nesting(&bad).is_err());
    }

    #[test]
    fn self_times_subtract_same_thread_children_only() {
        let all = [
            span("kv.flush", 1, 0, 100),
            span("device.write_segment", 1, 10, 20),
            span("device.sync", 1, 30, 60),
            span("device.sync", 2, 0, 100),
        ];
        let parents: Vec<&Span> = all.iter().filter(|s| s.name == "kv.flush").collect();
        let st = self_times(&parents, &all, "device.").unwrap();
        assert_eq!(st.len(), 1);
        assert_eq!(st.sum_ns(), 60);
        assert!(st.us(0.5).is_err(), "one sample supports no percentile");
    }
}
