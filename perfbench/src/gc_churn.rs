//! `gc-churn`: the paper's own experiment on the real store.
//!
//! `LogStore` directly on a RAM device of 512 × 256 KiB segments, preloaded to fill
//! factor 0.8 with 1,000 B pages. Two writer threads overwrite Zipf-0.99 scrambled
//! pages and read one page per 4 writes (closed loop). Each writer owns the pages of
//! its parity, so it knows every page's last version; values encode page id and
//! version. A warm-up churn of twice the population runs before the window, so write
//! amplification has levelled off. After the window the store is flushed, crashed and
//! recovered, and every page must read back its last version.

use crate::common::{
    err, record_configs, repeat_setup, store_config, timed, Outcome, Run, StoreDelta, RECOVERIES,
};
use crate::device::{RamDevice, SharedDevice};
use crate::gen::{describe, tag_of, value, Rng, Zipf};
use crate::kvcommon::{check_cycles, check_device};
use crate::measure::{median, median_pct, peak_rss_mib, Cuts, Latencies};
use crate::trace::{check_nesting, device_metrics, gc_timings, GcRecorder, TracedDevice, Tracer};
use lss_core::device::SegmentDevice;
use lss_core::{LogStore, StoreConfig};
use std::sync::Arc;
use std::time::Instant;

const NUM_SEGMENTS: usize = 512;
const PAGE_VALUE: usize = 1000;
const WRITERS: u64 = 2;
const PUTS_PER_GET: u64 = 4;
const FILL_FACTOR: f64 = 0.8;
/// Warm-up puts, as a multiple of the page population.
const WARMUP_FACTOR: u64 = 2;

/// One writer's pages (`page = WRITERS · i + part`), their versions and its op stream.
struct Writer {
    part: u64,
    versions: Vec<u64>,
    zipf: Zipf,
    rng: Rng,
}

impl Writer {
    fn page(&self, i: u64) -> u64 {
        WRITERS * i + self.part
    }

    fn check(&self, store: &LogStore, i: u64) -> Result<(), String> {
        let page = self.page(i);
        let got = store.get(page).map_err(err("get"))?;
        match got.as_deref().and_then(|v| tag_of(v, page)) {
            Some(t) if t == self.versions[i as usize] => Ok(()),
            _ => Err(format!(
                "page {page}: read {}, last written version {}",
                describe(got.as_deref()),
                self.versions[i as usize]
            )),
        }
    }
}

/// Latencies and completed ops of one sub-window.
#[derive(Default, Clone)]
struct Piece {
    puts: Latencies,
    gets: Latencies,
    ops: u64,
}

/// What the writers did: per sub-window latencies, and ops over the whole window.
#[derive(Default)]
struct Tally {
    pieces: Vec<Piece>,
    ops: u64,
}

impl Tally {
    fn merge(&mut self, o: &Tally) {
        self.pieces
            .resize(self.pieces.len().max(o.pieces.len()), Piece::default());
        for (p, q) in self.pieces.iter_mut().zip(&o.pieces) {
            p.puts.extend(&q.puts);
            p.gets.extend(&q.gets);
            p.ops += q.ops;
        }
        self.ops += o.ops;
    }

    fn rounds(&self, kind: fn(&Piece) -> &Latencies) -> Vec<Latencies> {
        self.pieces.iter().map(|p| kind(p).clone()).collect()
    }
}

enum Stop {
    AfterPuts(u64),
    At(Instant),
}

/// The writer's closed loop: `PUTS_PER_GET` overwrites, then one checked read. With
/// `timing`, each call is timed into the sub-window of `cuts` it ends in, counted
/// from `start`.
fn churn(
    store: &LogStore,
    w: &mut Writer,
    stop: Stop,
    timing: Option<(Cuts, Instant)>,
) -> Result<Tally, String> {
    let mut t = Tally {
        pieces: vec![Piece::default(); timing.map_or(0, |(c, _)| c.n)],
        ops: 0,
    };
    let mut puts = 0u64;
    let mut spare = Piece::default();
    loop {
        match stop {
            Stop::AfterPuts(n) if puts >= n => return Ok(t),
            Stop::At(deadline) if Instant::now() >= deadline => return Ok(t),
            _ => {}
        }
        let mut timed_call = |t: &mut Tally, begin: Instant, put: bool| {
            let Some((cuts, start)) = timing else { return };
            let piece = match cuts.index(start.elapsed().as_nanos() as u64) {
                Some(i) => &mut t.pieces[i],
                None => &mut spare,
            };
            let ns = begin.elapsed().as_nanos() as u64;
            if put {
                piece.puts.push(ns)
            } else {
                piece.gets.push(ns)
            }
            piece.ops += 1;
        };
        for _ in 0..PUTS_PER_GET {
            let i = w.zipf.sample(&mut w.rng);
            let version = w.versions[i as usize] + 1;
            let page = w.page(i);
            let v = value(PAGE_VALUE, page, version);
            let begin = Instant::now();
            store.put(page, &v).map_err(err("put"))?;
            timed_call(&mut t, begin, true);
            w.versions[i as usize] = version;
        }
        puts += PUTS_PER_GET;
        let i = w.zipf.sample(&mut w.rng);
        let begin = Instant::now();
        w.check(store, i)?;
        timed_call(&mut t, begin, false);
        t.ops += PUTS_PER_GET + 1;
    }
}

/// Run `f` on every writer, one thread each.
fn on_writers(
    writers: &mut [Writer],
    f: impl Fn(&mut Writer) -> Result<Tally, String> + Sync,
) -> Result<Tally, String> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = writers.iter_mut().map(|w| s.spawn(move || f(w))).collect();
        let mut all = Tally::default();
        for h in handles {
            all.merge(
                &h.join()
                    .map_err(|_| "writer thread panicked".to_string())??,
            );
        }
        Ok(all)
    })
}

/// A store, the device it writes (to read its segment-write count) and the tracing.
struct Rig {
    store: LogStore,
    device: Arc<dyn SegmentDevice>,
    traced: Option<Arc<TracedDevice>>,
    gc: Option<GcRecorder>,
}

/// Open a store on `mem`, preload every page at version 0, flush, and warm up.
fn setup(
    run: &Run,
    config: &StoreConfig,
    mem: Arc<dyn SegmentDevice>,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(Rig, Vec<Writer>), String> {
    let (device, traced): (Arc<dyn SegmentDevice>, _) = match tracer {
        None => (mem, None),
        Some(t) => {
            let d = Arc::new(TracedDevice::new(mem, Arc::clone(t)));
            (d.clone() as Arc<dyn SegmentDevice>, Some(d))
        }
    };
    let store =
        LogStore::open_with_device(config.clone(), Box::new(SharedDevice(Arc::clone(&device))))
            .map_err(err("open store"))?;
    let gc = tracer.map(|t| GcRecorder::install(&store, Arc::clone(t)));
    let per_writer = config.logical_pages_for_fill_factor(FILL_FACTOR) as u64 / WRITERS;
    let mut writers: Vec<Writer> = (0..WRITERS)
        .map(|part| Writer {
            part,
            versions: vec![0; per_writer as usize],
            zipf: Zipf::scrambled(per_writer, 0.99),
            rng: Rng::new(run.seed, 200 + part),
        })
        .collect();
    on_writers(&mut writers, |w| {
        for i in 0..per_writer {
            let page = w.page(i);
            store
                .put(page, &value(PAGE_VALUE, page, 0))
                .map_err(err("preload put"))?;
        }
        Ok(Tally::default())
    })?;
    store.flush().map_err(err("preload flush"))?;
    on_writers(&mut writers, |w| {
        churn(
            &store,
            w,
            Stop::AfterPuts(WARMUP_FACTOR * per_writer * WRITERS),
            None,
        )
    })?;
    Ok((
        Rig {
            store,
            device,
            traced,
            gc,
        },
        writers,
    ))
}

/// Metrics of the layers `gc-churn` does not reach: it drives `LogStore` directly.
pub const NOT_EXERCISED: &[&str] = &["client.", "server.", "kv.", "tree.", "recovery.kv_open_s"];

pub fn run(run: &mut Run) -> Result<Outcome, String> {
    let config = store_config(NUM_SEGMENTS);
    record_configs(run, &config, None);
    // The RAM device in both modes: this workload measures the cleaner, and disk
    // writeback would only add noise to its figures.
    run.note("device", "RamDevice");
    run.note(
        "population_pages",
        config.logical_pages_for_fill_factor(FILL_FACTOR) as u64 / WRITERS * WRITERS,
    );
    if run.trace {
        traced(run, &config)
    } else {
        plain(run, &config)
    }
}

/// A measured window of `seconds`: the tally, its length in seconds, the store's
/// counters and the device's segment writes.
fn window(
    rig: &Rig,
    writers: &mut [Writer],
    seconds: f64,
    cuts: Cuts,
) -> Result<(Tally, f64, StoreDelta, u64), String> {
    let before = rig.store.stats();
    let writes_before = rig.device.segment_writes();
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let tally = on_writers(writers, |w| {
        churn(&rig.store, w, Stop::At(deadline), Some((cuts, start)))
    })?;
    let elapsed = start.elapsed().as_secs_f64();
    let delta = StoreDelta {
        before,
        after: rig.store.stats(),
    };
    Ok((
        tally,
        elapsed,
        delta,
        rig.device.segment_writes() - writes_before,
    ))
}

/// Flush and crash, then recover as often as [`RECOVERIES`] asks (each recovered store
/// crashed again) and check every page's last version. Returns the median recovery
/// time and the live pages.
fn crash_and_verify(
    rig: Rig,
    config: &StoreConfig,
    writers: &[Writer],
) -> Result<(f64, usize), String> {
    rig.store.flush().map_err(err("final flush"))?;
    drop(rig.store.into_device());
    let mut secs = Vec::new();
    loop {
        let device = Box::new(SharedDevice(Arc::clone(&rig.device)));
        let (store, s) = timed(|| LogStore::recover_with_device(config.clone(), device));
        let store = store.map_err(err("recover"))?;
        secs.push(s);
        if !RECOVERIES.done(&secs) {
            continue;
        }
        for w in writers {
            for i in 0..w.versions.len() as u64 {
                w.check(&store, i)
                    .map_err(|e| format!("after recovery: {e}"))?;
            }
        }
        return Ok((median(&secs), store.live_pages()));
    }
}

fn plain(run: &mut Run, config: &StoreConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ram = RamDevice::for_config(config);
    let (made, first) = timed(|| setup(run, config, ram.clone(), None));
    let (rig, mut writers) = made?;
    let cuts = Cuts::new(run.seconds);
    let (tally, _, delta, seg_writes) = window(&rig, &mut writers, run.seconds, cuts)?;
    // Peak memory of one setup and the churn, before the repeated recoveries and
    // setups add theirs.
    let peak_rss = peak_rss_mib()? - RamDevice::resident_mib(config);
    let (recovery_s, _) = crash_and_verify(rig, config, &writers)?;
    let mut setups = vec![first];
    repeat_setup(&ram, &mut setups, || setup(run, config, ram.clone(), None))?;

    let (puts, gets) = (tally.rounds(|p| &p.puts), tally.rounds(|p| &p.gets));
    let put_count: usize = puts.iter().map(Latencies::len).sum();
    out.attempted = tally.ops;
    out.notes
        .push(format!("{put_count} puts over {} sub-windows", cuts.n));
    let put_p50 = median_pct(&puts, 0.5).map_err(|e| e.to_string())?;
    out.set("setup_s", median(&setups));
    out.set(
        "ops_per_s",
        cuts.median_rate(&tally.pieces.iter().map(|p| p.ops).collect::<Vec<_>>()),
    );
    out.set("latency_p50_us", put_p50);
    out.set("write_amp", delta.write_amp());
    out.set(
        "device_bytes_per_user_byte",
        (seg_writes * config.segment_bytes as u64) as f64 / (put_count * PAGE_VALUE) as f64,
    );
    out.also("recovery_s", Ok::<f64, String>(recovery_s), "s");
    out.set("peak_rss_mib", peak_rss);
    out.also("put_p50_us", Ok::<f64, String>(put_p50), "us");
    out.also("put_p99_us", median_pct(&puts, 0.99), "us");
    out.also("get_p50_us", median_pct(&gets, 0.5), "us");
    out.also("get_p99_us", median_pct(&gets, 0.99), "us");
    Ok(out)
}

fn traced(run: &mut Run, config: &StoreConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let half = run.seconds / 2.0;

    let (rig, mut writers) = setup(run, config, RamDevice::for_config(config), None)?;
    let (reference, ref_elapsed, _, _) = window(&rig, &mut writers, half, Cuts::whole())?;
    drop(rig);

    let tracer = Tracer::new();
    let device = RamDevice::for_config(config);
    let (rig, mut writers) = setup(run, config, device, Some(&tracer))?;
    let from = tracer.now();
    tracer.set_enabled(true);
    let (tally, elapsed, delta, _) = window(&rig, &mut writers, half, Cuts::whole())?;
    tracer.set_enabled(false);
    let to = tracer.now();
    if let Some(d) = &rig.traced {
        check_device(d)?;
    }
    let events = match &rig.gc {
        Some(gc) => {
            check_cycles(gc, rig.store.stats().cleaning_cycles)?;
            gc.events()
        }
        None => Vec::new(),
    };
    let spans = tracer.spans();
    check_nesting(&spans).map_err(|e| format!("trace self-check: {e}"))?;

    let mut m = std::collections::BTreeMap::new();
    device_metrics(
        &spans,
        from,
        to,
        config.segment_bytes,
        &mut m,
        &mut out.notes,
    );
    gc_timings(&events, from, to, &mut m, &mut out.notes);
    m.insert(
        "trace.overhead_frac",
        1.0 - (tally.ops as f64 / elapsed) / (reference.ops as f64 / ref_elapsed),
    );
    out.metrics.extend(m);
    delta.layer_metrics(tally.ops as f64, &mut out);
    let (lss_s, live) = crash_and_verify(rig, config, &writers)?;
    out.set("recovery.lss_s", lss_s);
    out.set("recovery.live_pages", live as f64);
    out.attempted = tally.ops + reference.ops;
    Ok(out)
}
