//! `durable-write`: every write must survive a crash.
//!
//! Two connections to an in-process `lss-server` each keep 4 durable PUTs in flight
//! (closed loop). Values are 128 B; keys are drawn Zipf-0.99 from 4,096 keys, so the
//! index fits the 256-page pool. After the window every reply is drained, the server is
//! shut down and the store is crashed without a flush; the store is then recovered,
//! served again, and every key is read back over the wire: it must hold a value that
//! the last acknowledged PUT to it could have left.

use crate::common::warmup;
use crate::common::{
    err, kv_options, record_configs, repeat_setup, server_config, since, store_config, timed,
    Outcome, Run, StoreDelta,
};
use crate::device::{file_device, RamDevice};
use crate::gen::{tag_of, value, Rng, Zipf};
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
use lss_server::Server;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

const KEYS: u64 = 4096;
const VALUE_BYTES: usize = 128;
const CONNS: u64 = 2;
const DEPTH: usize = 4;
/// Op-stream phases. Warm-up draws from its own generator stream; the measured, traced
/// and replayed windows all draw the same stream. Each phase tags its values apart.
const WARMUP: u64 = 1;
const MEASURED: u64 = 2;
const REPLAY: u64 = 3;
/// 512 × 256 KiB = 128 MiB of device; the ~4 MiB of live data leaves the cleaner
/// plenty of room but every flush's partial seals keep it busy.
const NUM_SEGMENTS: usize = 512;

/// Per-layer metrics of what `durable-write` does not send: GETs and SCANs.
pub const NOT_EXERCISED: &[&str] = &[
    "client.get_us_p99",
    "client.scan_us_p50",
    "client.scan_us_p99",
    "server.get_overhead_us",
    "kv.get_us_p50",
    "kv.get_us_p99",
    "kv.range_us_p50",
];

fn key(k: u64) -> Vec<u8> {
    format!("dw{k:06}").into_bytes()
}

/// What the recovered store may hold in one key, as far as one connection (or replay
/// thread) can tell: the send time of its latest PUT to the key, and the PUTs that may
/// have run after it: those not yet answered when it was sent. Any older PUT was
/// answered before a newer one was sent, so it ran first. Kept per key rather than per
/// PUT, so that the benchmark's memory does not grow with the number of PUTs it sends.
#[derive(Debug, Default, Clone)]
struct KeyLog {
    last_sent: u64,
    /// `(tag, reply time)`; the reply time is `u64::MAX` while the PUT is in flight.
    open: Vec<(u64, u64)>,
}

impl KeyLog {
    fn sent(&mut self, tag: u64, at: u64) {
        self.open.retain(|&(_, replied)| replied >= at);
        self.open.push((tag, u64::MAX));
        self.last_sent = at;
    }

    fn replied(&mut self, tag: u64, at: u64) {
        if let Some(e) = self.open.iter_mut().find(|e| e.0 == tag) {
            e.1 = at;
        }
    }
}

/// One connection's logs, one per key.
fn new_log() -> Vec<KeyLog> {
    vec![KeyLog::default(); KEYS as usize]
}

fn new_logs() -> Vec<Vec<KeyLog>> {
    vec![new_log(); CONNS as usize]
}

/// What the PUTs of one window did.
#[derive(Default)]
struct Puts {
    /// Latencies and count of acknowledged PUTs per sub-window, by reply time.
    pieces: Vec<(Latencies, u64)>,
    sent: u64,
    acked: u64,
    failed: u64,
}

impl Puts {
    fn new(cuts: &Cuts) -> Self {
        Puts {
            pieces: vec![Default::default(); cuts.n],
            ..Puts::default()
        }
    }

    /// Record a reply `ns` after its send, `at` ns into the window.
    fn reply(&mut self, ok: bool, ns: u64, at: u64, cuts: &Cuts) {
        if !ok {
            self.failed += 1;
            return;
        }
        self.acked += 1;
        if let Some(i) = cuts.index(at) {
            self.pieces[i].0.push(ns);
            self.pieces[i].1 += 1;
        }
    }

    fn merge(&mut self, o: Puts) {
        for (p, q) in self.pieces.iter_mut().zip(&o.pieces) {
            p.0.extend(&q.0);
            p.1 += q.1;
        }
        self.sent += o.sent;
        self.acked += o.acked;
        self.failed += o.failed;
    }

    /// Latencies over the whole window.
    fn all(&self) -> Latencies {
        let mut l = Latencies::default();
        self.pieces.iter().for_each(|p| l.extend(&p.0));
        l
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

/// A store on `device`, preloaded with every key at tag 0, flushed and served.
fn setup(
    config: &StoreConfig,
    device: Arc<dyn SegmentDevice>,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(KvRig, String), String> {
    let mut rig = KvRig::open(device, config, tracer)?;
    for k in 0..KEYS {
        rig.kv
            .put(&key(k), &value(VALUE_BYTES, k, 0))
            .map_err(err("preload put"))?;
    }
    rig.kv.flush().map_err(err("preload flush"))?;
    let addr = rig.serve()?;
    Ok((rig, addr))
}

fn plain(run: &mut Run, config: &StoreConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ram = RamDevice::for_config(config);
    let (made, first) = timed(|| setup(config, ram.clone(), None));
    let (rig, addr) = made?;
    let mut logs = new_logs();
    let epoch = Instant::now();
    let warm = remote_window(
        &addr,
        run.seed,
        WARMUP,
        Instant::now() + warmup(),
        (epoch, Cuts::whole()),
        &mut logs,
        None,
    )?;
    let store_before = rig.kv.store().stats();
    let bytes_before = rig.device_bytes();
    let cuts = Cuts::new(run.seconds);
    let measured = remote_window(
        &addr,
        run.seed,
        MEASURED,
        Instant::now() + run.window(),
        (epoch, cuts),
        &mut logs,
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
    verify(&recovered.kv, &logs)?;
    let recovery_s = recovered.total_s;
    recovered.close()?;
    let mut setups = vec![first];
    repeat_setup(&ram, &mut setups, || setup(config, ram.clone(), None))?;

    out.attempted = warm.sent + measured.sent + KEYS;
    out.failed = warm.failed + measured.failed;
    let (puts, done): (Vec<Latencies>, Vec<u64>) = measured.pieces.into_iter().unzip();
    out.notes.push(format!(
        "{} acked PUTs over {} sub-windows: {done:?}",
        done.iter().sum::<u64>(),
        cuts.n
    ));
    let put_p50 = median_pct(&puts, 0.5).map_err(|e| e.to_string())?;
    out.set("setup_s", median(&setups));
    out.set("ops_per_s", cuts.median_rate(&done));
    out.set("latency_p50_us", put_p50);
    out.set("write_amp", delta.write_amp());
    out.set(
        "device_bytes_per_user_byte",
        (bytes_after - bytes_before) as f64 / user_bytes(measured.acked),
    );
    out.also("recovery_s", Ok::<f64, String>(recovery_s), "s");
    out.set("peak_rss_mib", peak_rss);
    out.also("put_p50_us", Ok::<f64, String>(put_p50), "us");
    out.also("put_p99_us", median_pct(&puts, 0.99), "us");
    Ok(out)
}

/// Key and value bytes of `acked` PUTs.
fn user_bytes(acked: u64) -> f64 {
    (acked * (key(0).len() + VALUE_BYTES) as u64) as f64
}

fn traced(run: &mut Run, config: &StoreConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let whole = (epoch, Cuts::whole());

    // Untraced reference window for the tracing overhead.
    let (rig, addr) = setup(config, file_device(run, "durable-write", config)?, None)?;
    let start = Instant::now();
    let reference = remote_window(
        &addr,
        run.seed,
        MEASURED,
        start + run.half_window(),
        whole,
        &mut new_logs(),
        None,
    )?;
    let reference_ops = reference.acked as f64 / start.elapsed().as_secs_f64();
    drop(rig);

    // Traced remote window.
    let tracer = Tracer::new();
    let device = file_device(run, "durable-write", config)?;
    let (mut rig, addr) = setup(config, device, Some(&tracer))?;
    let server_before = server_counters(&addr)?;
    let kv_before = rig.kv.stats();
    let store_before = rig.kv.store().stats();
    let io_before = process_write_bytes()?;
    let mut logs = new_logs();
    let from = tracer.now();
    tracer.set_enabled(true);
    let start = Instant::now();
    let remote = remote_window(
        &addr,
        run.seed,
        MEASURED,
        start + run.half_window(),
        whole,
        &mut logs,
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
    let acked = remote.acked as f64;
    out.also(
        "file_device_bytes_per_user_byte",
        Ok::<f64, String>((io_after - io_before) as f64 / user_bytes(remote.acked)),
        "B/B",
    );

    // The same op stream driven straight into the KV layer.
    rig.stop_server();
    let rfrom = tracer.now();
    tracer.set_enabled(true);
    let replayed = replay(
        &rig.kv,
        run.seed,
        Instant::now() + run.half_window(),
        epoch,
        &mut logs,
        &tracer,
    )?;
    tracer.set_enabled(false);
    let rto = tracer.now();
    rig.self_check()?;
    let events = rig.gc.as_ref().map(|g| g.events()).unwrap_or_default();
    let spans = tracer.spans();
    check_nesting(&spans).map_err(|e| format!("trace self-check: {e}"))?;

    let n = &mut out.notes;
    let remote_puts = remote.all();
    let remote_p50 = pct(&remote_puts, 0.5, "remote put p50", n);
    let remote_p99 = pct(&remote_puts, 0.99, "client.put_us_p99", n);
    let replay_p50 = pct(&replayed.all(), 0.5, "replay put+flush p50", n);
    let mut m = std::collections::BTreeMap::new();
    let mut span_pct = |name: &str, metric: &'static str, q: f64, from: u64, to: u64| {
        let l = latencies(select(&spans, name, from, to));
        m.insert(metric, pct(&l, q, metric, n));
    };
    span_pct("client.send", "client.send_us_p50", 0.5, from, to);
    span_pct("client.recv", "client.recv_us_p50", 0.5, from, to);
    span_pct("kv.put", "kv.put_us_p50", 0.5, rfrom, rto);
    span_pct("kv.flush", "kv.flush_us_p50", 0.5, rfrom, rto);
    span_pct("kv.flush", "kv.flush_us_p99", 0.99, rfrom, rto);
    m.insert("client.put_us_p99", remote_p99);
    m.insert("server.put_overhead_us", remote_p50 - replay_p50);
    let flushes = select(&spans, "kv.flush", rfrom, rto);
    let flush_self =
        self_times(&flushes, &spans, "device.").map_err(|e| format!("trace self-check: {e}"))?;
    m.insert(
        "kv.flush_self_us_p50",
        pct(&flush_self, 0.5, "kv.flush_self_us_p50", n),
    );
    device_metrics(&spans, from, to, config.segment_bytes, &mut m, n);
    gc_timings(&events, from, to, &mut m, n);
    m.insert(
        "trace.overhead_frac",
        1.0 - (acked / elapsed) / reference_ops,
    );
    out.metrics.extend(m);
    counter_metrics(
        (&kv_before, &kv_after),
        &delta,
        (server_before, server_after),
        acked,
        &mut out,
    );

    let device = rig.crash()?;
    let recovered = recover(config, device)?;
    recovered.record(&mut out);
    verify(&recovered.kv, &logs)?;
    out.attempted = reference.sent + remote.sent + replayed.sent + KEYS;
    out.failed = reference.failed + remote.failed + replayed.failed;
    Ok(out)
}

/// One connection's closed loop: keep `DEPTH` durable PUTs in flight until
/// `deadline`, then drain. `clock` is the run's epoch and the window's sub-windows,
/// which start at the call.
#[allow(clippy::too_many_arguments)]
fn connection(
    addr: &str,
    seed: u64,
    conn: u64,
    phase: u64,
    deadline: Instant,
    (epoch, cuts): (Instant, Cuts),
    log: &mut [KeyLog],
    tracer: Option<&Tracer>,
) -> Result<Puts, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let zipf = Zipf::scrambled(KEYS, 0.99);
    let mut rng = stream(seed, conn, phase);
    let mut puts = Puts::new(&cuts);
    let start = since(epoch);
    // In flight, by correlation id: key, tag and send time.
    let mut pending: HashMap<u64, (u64, u64, u64)> = HashMap::new();
    let mut send = |client: &mut Client,
                    puts: &mut Puts,
                    log: &mut [KeyLog],
                    pending: &mut HashMap<u64, (u64, u64, u64)>| {
        let k = zipf.sample(&mut rng);
        puts.sent += 1;
        let tag = tag(phase, conn, puts.sent);
        let req = Request::Put {
            key: key(k),
            value: value(VALUE_BYTES, k, tag),
            durable: true,
        };
        let sent = since(epoch);
        log[k as usize].sent(tag, sent);
        let corr = maybe_span(tracer, "client.send", || client.send(&req))
            .map_err(|e| format!("send: {e}"))?;
        pending.insert(corr, (k, tag, sent));
        Ok::<(), String>(())
    };
    for _ in 0..DEPTH {
        send(&mut client, &mut puts, log, &mut pending)?;
    }
    while !pending.is_empty() {
        let (corr, resp) = maybe_span(tracer, "client.recv", || client.recv())
            .map_err(|e| format!("recv: {e}"))?;
        let at = since(epoch);
        let (k, tag, sent) = pending
            .remove(&corr)
            .ok_or_else(|| format!("reply for unknown request {corr}"))?;
        log[k as usize].replied(tag, at);
        puts.reply(matches!(resp, Response::Put), at - sent, at - start, &cuts);
        if Instant::now() < deadline {
            send(&mut client, &mut puts, log, &mut pending)?;
        }
    }
    Ok(puts)
}

/// The generator of one connection in one phase.
fn stream(seed: u64, conn: u64, phase: u64) -> Rng {
    Rng::new(seed, if phase == WARMUP { 100 + conn } else { conn })
}

/// A value tag unique to its phase, connection and sequence number (0 is the preload).
fn tag(phase: u64, conn: u64, seq: u64) -> u64 {
    (phase << 48) | ((conn + 1) << 40) | seq
}

fn remote_window(
    addr: &str,
    seed: u64,
    phase: u64,
    deadline: Instant,
    clock: (Instant, Cuts),
    logs: &mut [Vec<KeyLog>],
    tracer: Option<&Tracer>,
) -> Result<Puts, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .zip(logs.iter_mut())
            .map(|(c, log)| {
                s.spawn(move || connection(addr, seed, c, phase, deadline, clock, log, tracer))
            })
            .collect();
        let mut all = Puts::new(&clock.1);
        for h in handles {
            all.merge(
                h.join()
                    .map_err(|_| "connection thread panicked".to_string())??,
            );
        }
        Ok(all)
    })
}

/// The same generated op stream, one thread per connection, as `put` + `flush` calls
/// straight into the KV layer (what a server worker does for a durable PUT).
fn replay(
    kv: &KvStore,
    seed: u64,
    deadline: Instant,
    epoch: Instant,
    logs: &mut [Vec<KeyLog>],
    tracer: &Tracer,
) -> Result<Puts, String> {
    let whole = Cuts::whole();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .zip(logs.iter_mut())
            .map(|(c, log)| {
                s.spawn(move || {
                    let zipf = Zipf::scrambled(KEYS, 0.99);
                    let mut rng = stream(seed, c, MEASURED);
                    let mut puts = Puts::new(&whole);
                    while Instant::now() < deadline {
                        let k = zipf.sample(&mut rng);
                        puts.sent += 1;
                        let tag = tag(REPLAY, c, puts.sent);
                        let v = value(VALUE_BYTES, k, tag);
                        let sent = since(epoch);
                        log[k as usize].sent(tag, sent);
                        let res = tracer
                            .span("kv.put", || kv.put(&key(k), &v))
                            .and_then(|()| tracer.span("kv.flush", || kv.flush()));
                        let at = since(epoch);
                        log[k as usize].replied(tag, at);
                        puts.reply(res.is_ok(), at - sent, 0, &whole);
                    }
                    puts
                })
            })
            .collect();
        let mut all = Puts::new(&whole);
        for h in handles {
            all.merge(h.join().map_err(|_| "replay thread panicked".to_string())?);
        }
        Ok(all)
    })
}

/// Serve the recovered store and read every key back over the wire, one connection
/// per half of the keys. A key must hold a value some PUT to it could have left last:
/// one whose reply came no earlier than the send of the key's last PUT on any
/// connection (a PUT sent after another's reply ran after it). A key no PUT reached
/// must hold its preload.
fn verify(kv: &Arc<KvStore>, logs: &[Vec<KeyLog>]) -> Result<(), String> {
    let allowed: Vec<Option<Vec<u64>>> = (0..KEYS as usize)
        .map(|k| {
            let last_sent = logs.iter().map(|l| l[k].last_sent).max().unwrap_or(0);
            let open = logs.iter().flat_map(|l| &l[k].open);
            let mut tags = open.clone().peekable();
            tags.peek()?;
            Some(
                open.filter(|&&(_, replied)| replied >= last_sent)
                    .map(|&(tag, _)| tag)
                    .collect(),
            )
        })
        .collect();
    let server = Server::start(Arc::clone(kv), "127.0.0.1:0", server_config())
        .map_err(err("start server"))?;
    let addr = server.local_addr().to_string();
    let allowed = &allowed;
    let result = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                let addr = addr.as_str();
                s.spawn(move || read_back(addr, (c..KEYS).step_by(CONNS as usize), allowed))
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().map_err(|_| "verify thread panicked".to_string())?)
    });
    server.shutdown();
    result
}

/// Read `keys` over one connection, checking each against the values allowed for it
/// (`None`: only the preload).
fn read_back(
    addr: &str,
    keys: impl Iterator<Item = u64>,
    allowed: &[Option<Vec<u64>>],
) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    for k in keys {
        let got = client
            .get(&key(k))
            .map_err(|e| format!("verify get: {e}"))?;
        let tag = got
            .as_deref()
            .and_then(|v| tag_of(v, k))
            .ok_or_else(|| format!("key {k}: missing or corrupt after recovery"))?;
        let ok = match &allowed[k as usize] {
            Some(tags) => tags.contains(&tag),
            None => tag == 0,
        };
        if !ok {
            return Err(format!(
                "key {k}: recovered tag {tag:#x} is not the last acknowledged write"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_key_log_keeps_only_puts_that_may_have_run_last() {
        let mut log = KeyLog::default();
        log.sent(1, 10);
        log.replied(1, 20);
        // Sent after 1's reply: 1 ran first and is forgotten.
        log.sent(2, 30);
        log.sent(3, 40);
        assert_eq!(log.open, vec![(2, u64::MAX), (3, u64::MAX)]);
        log.replied(3, 50);
        log.replied(2, 60);
        // 2 was still in flight when 3 was sent, so either may be last.
        assert_eq!(
            (log.last_sent, log.open.clone()),
            (40, vec![(2, 60), (3, 50)])
        );
    }
}
