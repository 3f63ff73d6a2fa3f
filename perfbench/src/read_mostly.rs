//! `read-mostly`: the front end and index under reads, with a working set many times
//! the index pool.
//!
//! 200,000 keys with 128 B values are preloaded in-process, then served. Two
//! connections at depth 1 (closed loop) run 90% GET on Zipf-0.99 scrambled keys, 8%
//! buffered PUT and 2% SCAN of 20 keys, and each sends one FLUSH per 1,000 ops. Each
//! connection reads and writes only its own half of the keys and keeps a model of it,
//! so every GET and SCAN reply is checked. After the window each connection flushes,
//! the store is crashed and recovered, and every key must hold its last written value.

use crate::common::{
    err, kv_options, record_configs, repeat_setup, store_config, timed, warmup, Outcome, Run,
    StoreDelta,
};
use crate::device::{file_device, RamDevice};
use crate::gen::{describe, tag_of, value, Rng, Zipf};
use crate::kvcommon::{counter_metrics, recover, server_counters, KvRig};
use crate::measure::{median, median_pct, peak_rss_mib, process_write_bytes, Cuts, Latencies};
use crate::trace::{
    check_nesting, device_metrics, gc_timings, latencies, maybe_span, pct, select, self_times,
    Tracer,
};
use lss_btree::kv::KvStore;
use lss_client::Client;
use lss_core::device::SegmentDevice;
use lss_core::StoreConfig;
use lss_server::protocol::{Request, Response};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PARTS: u64 = 2;
const PER_PART: u64 = 100_000;
const VALUE_BYTES: usize = 128;
const FLUSH_EVERY: u64 = 1000;
const SCAN_LEN: u64 = 20;
/// Puts of the preload between flushes.
const PRELOAD_FLUSH_EVERY: u64 = 1000;
const NUM_SEGMENTS: usize = 512;
/// Tag bases: preload values carry tag 1; later writes count up from a base per phase
/// and connection, so no two writes share a tag.
const PRELOAD_TAG: u64 = 1;

/// `read-mostly` sends every kind of request and reaches every layer.
pub const NOT_EXERCISED: &[&str] = &[];

fn key(part: u64, i: u64) -> Vec<u8> {
    format!("r{part}/{i:07}").into_bytes()
}

fn key_id(part: u64, i: u64) -> u64 {
    part * PER_PART + i
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Get(u64),
    Put(u64),
    Scan(u64),
    Flush,
}

/// One connection's op stream.
struct Ops {
    rng: Rng,
    zipf: Zipf,
    n: u64,
}

impl Ops {
    /// The op stream of one partition; `warmup` draws a stream of its own.
    fn new(seed: u64, part: u64, warmup: bool) -> Self {
        Ops {
            rng: Rng::new(seed, 100 + part + if warmup { 10 } else { 0 }),
            zipf: Zipf::scrambled(PER_PART, 0.99),
            n: 0,
        }
    }

    fn next(&mut self) -> Op {
        self.n += 1;
        if self.n.is_multiple_of(FLUSH_EVERY) {
            return Op::Flush;
        }
        let i = self.zipf.sample(&mut self.rng);
        match self.rng.below(100) {
            0..=89 => Op::Get(i),
            90..=97 => Op::Put(i),
            _ => Op::Scan(i.min(PER_PART - SCAN_LEN)),
        }
    }
}

/// A connection's model of its partition: the tag each key holds.
struct Model {
    part: u64,
    tags: Vec<u64>,
    next_tag: u64,
}

impl Model {
    fn check(&self, i: u64, v: &[u8]) -> Result<(), String> {
        match tag_of(v, key_id(self.part, i)) {
            Some(t) if t == self.tags[i as usize] => Ok(()),
            _ => Err(format!(
                "key {}: read {}, last written tag {:#x}",
                key_id(self.part, i),
                describe(Some(v)),
                self.tags[i as usize]
            )),
        }
    }

    fn check_scan(&self, start: u64, items: &[(Vec<u8>, impl AsRef<[u8]>)]) -> Result<(), String> {
        if items.len() as u64 != SCAN_LEN {
            return Err(format!(
                "scan from {start}: {} items, expected {SCAN_LEN}",
                items.len()
            ));
        }
        for (j, (k, v)) in items.iter().enumerate() {
            let i = start + j as u64;
            if *k != key(self.part, i) {
                return Err(format!("scan from {start}: item {j} has the wrong key"));
            }
            self.check(i, v.as_ref())?;
        }
        Ok(())
    }
}

/// Latencies and completed ops of one sub-window.
#[derive(Default, Clone)]
struct Piece {
    gets: Latencies,
    puts: Latencies,
    scans: Latencies,
    ops: u64,
}

/// What a window did: per sub-window latencies, and totals over the whole window.
struct Tally {
    pieces: Vec<Piece>,
    ops: u64,
    failed: u64,
    put_bytes: u64,
}

impl Tally {
    fn new(cuts: &Cuts) -> Self {
        Tally {
            pieces: vec![Piece::default(); cuts.n],
            ops: 0,
            failed: 0,
            put_bytes: 0,
        }
    }

    fn merge(&mut self, o: &Tally) {
        for (p, q) in self.pieces.iter_mut().zip(&o.pieces) {
            p.gets.extend(&q.gets);
            p.puts.extend(&q.puts);
            p.scans.extend(&q.scans);
            p.ops += q.ops;
        }
        self.ops += o.ops;
        self.failed += o.failed;
        self.put_bytes += o.put_bytes;
    }

    fn rounds(&self, kind: fn(&Piece) -> &Latencies) -> Vec<Latencies> {
        self.pieces.iter().map(|p| kind(p).clone()).collect()
    }
}

pub fn run(run: &mut Run) -> Result<Outcome, String> {
    let config = store_config(NUM_SEGMENTS);
    record_configs(run, &config, Some(&kv_options()));
    if run.trace {
        traced(run, &config)
    } else {
        plain(run, &config)
    }
}

/// A store on `device`, preloaded with every key at [`PRELOAD_TAG`] (one thread per
/// partition) and served.
fn setup(
    config: &StoreConfig,
    device: Arc<dyn SegmentDevice>,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(KvRig, String, Vec<Model>), String> {
    let mut rig = KvRig::open(device, config, tracer)?;
    let kv = &rig.kv;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..PARTS)
            .map(|part| {
                s.spawn(move || {
                    for i in 0..PER_PART {
                        let v = value(VALUE_BYTES, key_id(part, i), PRELOAD_TAG);
                        kv.put(&key(part, i), &v).map_err(err("preload put"))?;
                        if (i + 1) % PRELOAD_FLUSH_EVERY == 0 {
                            kv.flush().map_err(err("preload flush"))?;
                        }
                    }
                    kv.flush().map_err(err("preload flush"))
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| {
            h.join()
                .map_err(|_| "preload thread panicked".to_string())?
        })
    })?;
    let models = (0..PARTS)
        .map(|part| Model {
            part,
            tags: vec![PRELOAD_TAG; PER_PART as usize],
            next_tag: (part + 2) << 40,
        })
        .collect();
    let addr = rig.serve()?;
    Ok((rig, addr, models))
}

fn plain(run: &mut Run, config: &StoreConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ram = RamDevice::for_config(config);
    let (made, first) = timed(|| setup(config, ram.clone(), None));
    let (rig, addr, mut models) = made?;
    let warm = remote_window(
        &addr,
        run.seed,
        true,
        warmup(),
        Cuts::whole(),
        &mut models,
        None,
    )?;
    let store_before = rig.kv.store().stats();
    let bytes_before = rig.device_bytes();
    let cuts = Cuts::new(run.seconds);
    let tally = remote_window(
        &addr,
        run.seed,
        false,
        run.window(),
        cuts,
        &mut models,
        None,
    )?;
    let bytes_after = rig.device_bytes();
    let delta = StoreDelta {
        before: store_before,
        after: rig.kv.store().stats(),
    };
    // Peak memory of one setup and the serving, before the repeated recoveries and
    // setups add theirs.
    let peak_rss = peak_rss_mib()? - RamDevice::resident_mib(config);
    let device = rig.crash()?;
    let recovered = recover(config, device)?;
    verify(&recovered.kv, &models)?;
    let recovery_s = recovered.total_s;
    recovered.close()?;
    let mut setups = vec![first];
    repeat_setup(&ram, &mut setups, || setup(config, ram.clone(), None))?;

    out.attempted = tally.ops + warm.ops;
    out.failed = tally.failed + warm.failed;
    let (gets, puts, scans) = (
        tally.rounds(|p| &p.gets),
        tally.rounds(|p| &p.puts),
        tally.rounds(|p| &p.scans),
    );
    let count = |r: &[Latencies]| r.iter().map(Latencies::len).sum::<usize>();
    out.notes.push(format!(
        "samples over {} sub-windows: get {}, put {}, scan {}",
        cuts.n,
        count(&gets),
        count(&puts),
        count(&scans)
    ));
    let get_p50 = median_pct(&gets, 0.5).map_err(|e| e.to_string())?;
    out.set("setup_s", median(&setups));
    out.set(
        "ops_per_s",
        cuts.median_rate(&tally.pieces.iter().map(|p| p.ops).collect::<Vec<_>>()),
    );
    out.set("latency_p50_us", get_p50);
    out.also("get_p50_us", Ok::<f64, String>(get_p50), "us");
    out.also("get_p99_us", median_pct(&gets, 0.99), "us");
    out.also("put_p50_us", median_pct(&puts, 0.5), "us");
    out.also("put_p99_us", median_pct(&puts, 0.99), "us");
    out.also("scan_p50_us", median_pct(&scans, 0.5), "us");
    out.also("scan_p99_us", median_pct(&scans, 0.99), "us");
    out.set("write_amp", delta.write_amp());
    out.set(
        "device_bytes_per_user_byte",
        (bytes_after - bytes_before) as f64 / tally.put_bytes as f64,
    );
    out.also("recovery_s", Ok::<f64, String>(recovery_s), "s");
    out.set("peak_rss_mib", peak_rss);
    Ok(out)
}

fn traced(run: &mut Run, config: &StoreConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Untraced reference window for the tracing overhead.
    let (rig, addr, mut models) = setup(config, file_device(run, "read-mostly", config)?, None)?;
    let start = Instant::now();
    let reference = remote_window(
        &addr,
        run.seed,
        false,
        run.half_window(),
        Cuts::whole(),
        &mut models,
        None,
    )?;
    let reference_ops = reference.ops as f64 / start.elapsed().as_secs_f64();
    drop(rig);

    let tracer = Tracer::new();
    let device = file_device(run, "read-mostly", config)?;
    let (mut rig, addr, mut models) = setup(config, device, Some(&tracer))?;
    let server_before = server_counters(&addr)?;
    let kv_before = rig.kv.stats();
    let store_before = rig.kv.store().stats();
    let io_before = process_write_bytes()?;
    let from = tracer.now();
    tracer.set_enabled(true);
    let start = Instant::now();
    let mut remote = remote_window(
        &addr,
        run.seed,
        false,
        run.half_window(),
        Cuts::whole(),
        &mut models,
        Some(&tracer),
    )?;
    let elapsed = start.elapsed().as_secs_f64();
    tracer.set_enabled(false);
    let to = tracer.now();
    let io_after = process_write_bytes()?;
    let server_after = server_counters(&addr)?;
    let kv_after = rig.kv.stats();
    let delta = StoreDelta {
        before: store_before,
        after: rig.kv.store().stats(),
    };
    out.also(
        "file_device_bytes_per_user_byte",
        Ok::<f64, String>((io_after - io_before) as f64 / remote.put_bytes as f64),
        "B/B",
    );

    rig.stop_server();
    let rfrom = tracer.now();
    tracer.set_enabled(true);
    let replayed = replay(
        &rig.kv,
        run.seed,
        Instant::now() + run.half_window(),
        &mut models,
        &tracer,
    )?;
    tracer.set_enabled(false);
    let rto = tracer.now();
    rig.self_check()?;
    let events = rig.gc.as_ref().map(|g| g.events()).unwrap_or_default();
    let spans = tracer.spans();
    check_nesting(&spans).map_err(|e| format!("trace self-check: {e}"))?;

    let n = &mut out.notes;
    let mut m = std::collections::BTreeMap::new();
    let mut span_pct = |name: &'static str,
                        metric: &'static str,
                        q: f64,
                        from: u64,
                        to: u64,
                        n: &mut Vec<String>| {
        m.insert(
            metric,
            pct(&latencies(select(&spans, name, from, to)), q, metric, n),
        );
    };
    span_pct("client.send", "client.send_us_p50", 0.5, from, to, n);
    span_pct("client.recv", "client.recv_us_p50", 0.5, from, to, n);
    span_pct("kv.get", "kv.get_us_p50", 0.5, rfrom, rto, n);
    span_pct("kv.get", "kv.get_us_p99", 0.99, rfrom, rto, n);
    span_pct("kv.put", "kv.put_us_p50", 0.5, rfrom, rto, n);
    span_pct("kv.range", "kv.range_us_p50", 0.5, rfrom, rto, n);
    span_pct("kv.flush", "kv.flush_us_p50", 0.5, rfrom, rto, n);
    span_pct("kv.flush", "kv.flush_us_p99", 0.99, rfrom, rto, n);
    let flushes = select(&spans, "kv.flush", rfrom, rto);
    let flush_self =
        self_times(&flushes, &spans, "device.").map_err(|e| format!("trace self-check: {e}"))?;
    m.insert(
        "kv.flush_self_us_p50",
        pct(&flush_self, 0.5, "kv.flush_self_us_p50", n),
    );
    let all = &remote.pieces[0];
    let remote_get = pct(&all.gets, 0.5, "remote get p50", n);
    let remote_put = pct(&all.puts, 0.5, "remote put p50", n);
    m.insert(
        "client.get_us_p99",
        pct(&all.gets, 0.99, "client.get_us_p99", n),
    );
    m.insert(
        "client.put_us_p99",
        pct(&all.puts, 0.99, "client.put_us_p99", n),
    );
    m.insert(
        "client.scan_us_p50",
        pct(&all.scans, 0.5, "client.scan_us_p50", n),
    );
    m.insert(
        "client.scan_us_p99",
        pct(&all.scans, 0.99, "client.scan_us_p99", n),
    );
    let replay_gets = latencies(select(&spans, "kv.get", rfrom, rto));
    let replay_puts = latencies(select(&spans, "kv.put", rfrom, rto));
    m.insert(
        "server.get_overhead_us",
        remote_get - pct(&replay_gets, 0.5, "replay get p50", n),
    );
    m.insert(
        "server.put_overhead_us",
        remote_put - pct(&replay_puts, 0.5, "replay put p50", n),
    );
    device_metrics(&spans, from, to, config.segment_bytes, &mut m, n);
    gc_timings(&events, from, to, &mut m, n);
    m.insert(
        "trace.overhead_frac",
        1.0 - (remote.ops as f64 / elapsed) / reference_ops,
    );
    out.metrics.extend(m);
    counter_metrics(
        (&kv_before, &kv_after),
        &delta,
        (server_before, server_after),
        remote.ops as f64,
        &mut out,
    );

    let device = rig.crash()?;
    let recovered = recover(config, device)?;
    recovered.record(&mut out);
    verify(&recovered.kv, &models)?;
    remote.merge(&replayed);
    remote.merge(&reference);
    out.attempted = remote.ops;
    out.failed = remote.failed;
    Ok(out)
}

/// One connection's closed loop at depth 1, checking every reply against `model`.
fn connection(
    addr: &str,
    seed: u64,
    warmup: bool,
    window: Duration,
    cuts: Cuts,
    model: &mut Model,
    tracer: Option<&Tracer>,
) -> Result<Tally, String> {
    let part = model.part;
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut ops = Ops::new(seed, part, warmup);
    let mut t = Tally::new(&cuts);
    let start = Instant::now();
    let mut last = false;
    loop {
        let op = if last { Op::Flush } else { ops.next() };
        let mut put_tag = 0;
        let req = match op {
            Op::Get(i) => Request::Get { key: key(part, i) },
            Op::Put(i) => {
                put_tag = model.next_tag;
                model.next_tag += 1;
                Request::Put {
                    key: key(part, i),
                    value: value(VALUE_BYTES, key_id(part, i), put_tag),
                    durable: false,
                }
            }
            Op::Scan(i) => Request::Scan {
                start: key(part, i),
                end: key(part, i + SCAN_LEN),
                max_items: SCAN_LEN as u32,
            },
            Op::Flush => Request::Flush,
        };
        let begin = Instant::now();
        maybe_span(tracer, "client.send", || client.send(&req))
            .map_err(|e| format!("send: {e}"))?;
        let (_, resp) = maybe_span(tracer, "client.recv", || client.recv())
            .map_err(|e| format!("recv: {e}"))?;
        let ns = begin.elapsed().as_nanos() as u64;
        let mut spare = Piece::default();
        let piece = match cuts.index(start.elapsed().as_nanos() as u64) {
            Some(i) => &mut t.pieces[i],
            None => &mut spare,
        };
        piece.ops += 1;
        t.ops += 1;
        match (op, resp) {
            (_, Response::Err { .. }) => t.failed += 1,
            (Op::Get(i), Response::Get(Some(v))) => {
                model.check(i, &v)?;
                piece.gets.push(ns);
            }
            (Op::Put(i), Response::Put) => {
                model.tags[i as usize] = put_tag;
                piece.puts.push(ns);
                t.put_bytes += (key(part, i).len() + VALUE_BYTES) as u64;
            }
            (Op::Scan(i), Response::Scan { items, .. }) => {
                model.check_scan(i, &items)?;
                piece.scans.push(ns);
            }
            (Op::Flush, Response::Flush) => {}
            (op, resp) => return Err(format!("{op:?}: unexpected reply {resp:?}")),
        }
        if last {
            return Ok(t);
        }
        last = start.elapsed() >= window;
    }
}

fn remote_window(
    addr: &str,
    seed: u64,
    warmup: bool,
    window: Duration,
    cuts: Cuts,
    models: &mut [Model],
    tracer: Option<&Tracer>,
) -> Result<Tally, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = models
            .iter_mut()
            .map(|m| s.spawn(move || connection(addr, seed, warmup, window, cuts, m, tracer)))
            .collect();
        let mut all = Tally::new(&cuts);
        for h in handles {
            all.merge(
                &h.join()
                    .map_err(|_| "connection thread panicked".to_string())??,
            );
        }
        Ok(all)
    })
}

/// The same op streams, one thread per connection, as calls straight into the KV
/// layer, checked against the same models.
fn replay(
    kv: &KvStore,
    seed: u64,
    deadline: Instant,
    models: &mut [Model],
    tracer: &Tracer,
) -> Result<Tally, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = models
            .iter_mut()
            .map(|model| {
                s.spawn(move || {
                    let part = model.part;
                    let mut ops = Ops::new(seed, part, false);
                    let mut t = Tally::new(&Cuts::whole());
                    while Instant::now() < deadline {
                        t.ops += 1;
                        match ops.next() {
                            Op::Get(i) => {
                                let v = tracer.span("kv.get", || kv.get(&key(part, i)));
                                let v = v.map_err(err("kv get"))?.ok_or("kv get: key missing")?;
                                model.check(i, &v)?;
                            }
                            Op::Put(i) => {
                                let tag = model.next_tag;
                                model.next_tag += 1;
                                let v = value(VALUE_BYTES, key_id(part, i), tag);
                                tracer
                                    .span("kv.put", || kv.put(&key(part, i), &v))
                                    .map_err(err("kv put"))?;
                                model.tags[i as usize] = tag;
                            }
                            Op::Scan(i) => {
                                let items = tracer
                                    .span("kv.range", || {
                                        kv.range(&key(part, i), &key(part, i + SCAN_LEN))
                                    })
                                    .map_err(err("kv range"))?;
                                model.check_scan(i, &items)?;
                            }
                            Op::Flush => tracer
                                .span("kv.flush", || kv.flush())
                                .map_err(err("kv flush"))?,
                        }
                    }
                    tracer
                        .span("kv.flush", || kv.flush())
                        .map_err(err("kv flush"))?;
                    Ok::<Tally, String>(t)
                })
            })
            .collect();
        let mut all = Tally::new(&Cuts::whole());
        for h in handles {
            all.merge(
                &h.join()
                    .map_err(|_| "replay thread panicked".to_string())??,
            );
        }
        Ok(all)
    })
}

/// Every key of every partition holds its last written value after recovery.
fn verify(kv: &KvStore, models: &[Model]) -> Result<(), String> {
    const CHUNK: u64 = 10_000;
    for model in models {
        for lo in (0..PER_PART).step_by(CHUNK as usize) {
            let hi = (lo + CHUNK).min(PER_PART);
            let items = kv
                .range(&key(model.part, lo), &key(model.part, hi))
                .map_err(err("verify range"))?;
            if items.len() as u64 != hi - lo {
                return Err(format!(
                    "after recovery: {} of {} keys from {lo} in partition {}",
                    items.len(),
                    hi - lo,
                    model.part
                ));
            }
            for (j, (k, v)) in items.iter().enumerate() {
                let i = lo + j as u64;
                if *k != key(model.part, i) {
                    return Err(format!("after recovery: unexpected key at {i}"));
                }
                model
                    .check(i, v)
                    .map_err(|e| format!("after recovery: {e}"))?;
            }
        }
    }
    Ok(())
}
