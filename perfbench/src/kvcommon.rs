//! The KV workloads' shared rig: a `KvStore` on a RAM or file device, served
//! by an in-process `lss-server` and optionally traced; crash and recovery; and the `kv.*`, `tree.*` and
//! `server.*` counter metrics.

use crate::common::{
    err, kv_options, ratio, server_config, timed, Outcome, StoreDelta, RECOVERIES,
};
use crate::device::SharedDevice;
use crate::measure::median;
use crate::trace::{GcRecorder, TracedDevice, Tracer};
use lss_btree::kv::{KvStats, KvStore};
use lss_client::Client;
use lss_core::device::SegmentDevice;
use lss_core::{LogStore, StoreConfig};
use lss_server::Server;
use serde::Value;
use std::sync::Arc;

/// A served store. Dropping it stops the server.
pub struct KvRig {
    pub kv: Arc<KvStore>,
    pub server: Option<Server>,
    pub traced: Option<Arc<TracedDevice>>,
    pub gc: Option<GcRecorder>,
    /// The device under the store, for its segment-write count.
    device: Arc<dyn SegmentDevice>,
    segment_bytes: u64,
}

impl KvRig {
    /// A fresh store on `base`, a device whose old contents are ignored; traced when
    /// `tracer` is given.
    pub fn open(
        base: Arc<dyn SegmentDevice>,
        config: &StoreConfig,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<KvRig, String> {
        let (device, traced): (Arc<dyn SegmentDevice>, _) = match tracer {
            None => (base, None),
            Some(t) => {
                let d = Arc::new(TracedDevice::new(base, Arc::clone(t)));
                (d.clone() as Arc<dyn SegmentDevice>, Some(d))
            }
        };
        let store =
            LogStore::open_with_device(config.clone(), Box::new(SharedDevice(device.clone())))
                .map_err(err("open store"))?;
        let gc = tracer.map(|t| GcRecorder::install(&store, Arc::clone(t)));
        let kv = KvStore::open_with(store, kv_options()).map_err(err("open kv"))?;
        Ok(KvRig {
            kv: Arc::new(kv),
            server: None,
            traced,
            gc,
            device,
            segment_bytes: config.segment_bytes as u64,
        })
    }

    /// Bytes of segment images written to the device so far.
    pub fn device_bytes(&self) -> u64 {
        self.device.segment_writes() * self.segment_bytes
    }

    /// Start serving on an ephemeral localhost port; returns its address.
    pub fn serve(&mut self) -> Result<String, String> {
        let server = Server::start(Arc::clone(&self.kv), "127.0.0.1:0", server_config())
            .map_err(err("start server"))?;
        let addr = server.local_addr().to_string();
        self.server = Some(server);
        Ok(addr)
    }

    pub fn stop_server(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }

    /// Stop serving and hand back the device without flushing: whatever the store
    /// had not made durable is lost, as in a crash.
    pub fn crash(mut self) -> Result<Arc<dyn SegmentDevice>, String> {
        self.stop_server();
        let kv = Arc::try_unwrap(self.kv)
            .map_err(|_| "kv store still shared after server shutdown".to_string())?;
        drop(kv.into_inner().into_device());
        Ok(self.device)
    }

    /// Check the traced run against the store's own counters: the wrapper saw every
    /// segment write the device made, and the hook saw every cleaning cycle.
    pub fn self_check(&self) -> Result<(), String> {
        if let Some(d) = &self.traced {
            check_device(d)?;
        }
        if let Some(gc) = &self.gc {
            check_cycles(gc, self.kv.store().stats().cleaning_cycles)?;
        }
        Ok(())
    }
}

pub fn check_device(d: &TracedDevice) -> Result<(), String> {
    let (seen, done) = (d.wrapper_writes(), d.segment_writes());
    if seen != done {
        return Err(format!(
            "trace self-check: device wrapper counted {seen} segment writes, device reports {done}"
        ));
    }
    Ok(())
}

pub fn check_cycles(gc: &GcRecorder, cleaning_cycles: u64) -> Result<(), String> {
    let seen = crate::trace::cycles_seen(&gc.events());
    if seen != cleaning_cycles {
        return Err(format!(
            "trace self-check: gc hook saw {seen} cycles, store counted {cleaning_cycles}"
        ));
    }
    Ok(())
}

/// A store reopened after a crash, with the median time of each recovery phase.
pub struct Recovered {
    pub kv: Arc<KvStore>,
    pub lss_s: f64,
    pub kv_open_s: f64,
    /// Crash to reopened store: device scan plus KV open.
    pub total_s: f64,
}

impl Recovered {
    /// Drop the store, first making sure nothing else holds it, so that its device can
    /// be zeroed and reused.
    pub fn close(self) -> Result<(), String> {
        Arc::try_unwrap(self.kv)
            .map(drop)
            .map_err(|_| "recovered store still shared".to_string())
    }

    pub fn record(&self, out: &mut Outcome) {
        out.set("recovery.lss_s", self.lss_s);
        out.set("recovery.kv_open_s", self.kv_open_s);
        out.set("recovery.live_pages", self.kv.store().live_pages() as f64);
    }
}

/// Rebuild the store from the crashed device — a full device scan, then the KV open
/// (superblock, index, reachability sweep) — as often as [`RECOVERIES`] asks, each
/// recovered store crashed again before the next.
pub fn recover(config: &StoreConfig, device: Arc<dyn SegmentDevice>) -> Result<Recovered, String> {
    let (mut lss, mut open, mut total) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let shared = Box::new(SharedDevice(Arc::clone(&device)));
        let (store, lss_s) = timed(|| LogStore::recover_with_device(config.clone(), shared));
        let store = store.map_err(err("recover store"))?;
        let (kv, kv_open_s) = timed(|| KvStore::open_with(store, kv_options()));
        let kv = kv.map_err(err("reopen kv after recovery"))?;
        lss.push(lss_s);
        open.push(kv_open_s);
        total.push(lss_s + kv_open_s);
        if RECOVERIES.done(&total) {
            return Ok(Recovered {
                kv: Arc::new(kv),
                lss_s: median(&lss),
                kv_open_s: median(&open),
                total_s: median(&total),
            });
        }
    }
}

/// Counters from the server's STATS reply.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCounters {
    pub replies: f64,
    pub socket_flushes: f64,
    pub errors: f64,
}

pub fn server_counters(addr: &str) -> Result<ServerCounters, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect for STATS: {e}"))?;
    let json = client.stats().map_err(|e| format!("STATS: {e}"))?;
    let doc = serde_json::parse(&json).map_err(|e| format!("STATS is not JSON: {e}"))?;
    let server = doc
        .get_field("server")
        .ok_or("STATS has no server section")?;
    let n = |name: &str| match server.get_field(name) {
        Some(Value::UInt(u)) => Ok(*u as f64),
        Some(Value::Int(i)) => Ok(*i as f64),
        Some(Value::Float(f)) => Ok(*f),
        _ => Err(format!("STATS server.{name} missing")),
    };
    Ok(ServerCounters {
        replies: n("replies")?,
        socket_flushes: n("socket_flushes")?,
        errors: n("frame_errors")?
            + n("protocol_errors")?
            + n("store_errors")?
            + n("write_errors")?,
    })
}

/// `kv.*` counter metrics, `tree.*` and `server.*` counters, and `store.*`/`gc.*`
/// counters over one remote window.
pub fn counter_metrics(
    kv: (&KvStats, &KvStats),
    store: &StoreDelta,
    server: (ServerCounters, ServerCounters),
    ops: f64,
    out: &mut Outcome,
) {
    let (b, a) = kv;
    let d = |f: fn(&KvStats) -> u64| (f(a) - f(b)) as f64;
    out.set(
        "kv.ops_per_flip",
        ratio(d(|s| s.puts), d(|s| s.superblock_commits)),
    );
    out.set(
        "kv.rider_frac",
        ratio(d(|s| s.group_commit_riders), d(|s| s.flush_calls)),
    );
    out.set(
        "kv.index_bytes_per_value_byte",
        ratio(d(|s| s.index_bytes_written), d(|s| s.value_bytes_written)),
    );
    out.set(
        "kv.lss_pages_per_durable_put",
        ratio(store.user_pages(), d(|s| s.puts)),
    );
    let hits = d(|s| s.pool.hits);
    out.set(
        "tree.pool_hit_ratio",
        ratio(hits, hits + d(|s| s.pool.misses)),
    );
    out.set(
        "tree.pool_evictions_per_op",
        ratio(d(|s| s.pool.dirty_evictions + s.pool.clean_evictions), ops),
    );
    out.set(
        "tree.read_restarts_per_op",
        ratio(d(|s| s.tree.read_restarts), ops),
    );
    out.set(
        "tree.write_restarts_per_op",
        ratio(d(|s| s.tree.write_restarts), ops),
    );
    out.set(
        "tree.fallbacks",
        d(|s| s.tree.read_fallbacks + s.tree.write_fallbacks),
    );
    out.set(
        "tree.crab_depth",
        ratio(d(|s| s.tree.writer_locks), d(|s| s.tree.writer_ops)),
    );
    let (sb, sa) = server;
    out.set(
        "server.reply_batching",
        ratio(
            sa.replies - sb.replies,
            sa.socket_flushes - sb.socket_flushes,
        ),
    );
    out.set("server.errors", sa.errors - sb.errors);
    store.layer_metrics(ops, out);
}
