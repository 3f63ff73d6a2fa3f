//! What every workload shares: the pinned configurations, the run's work directory,
//! the run context record, and the result of one run.

use crate::device::RamDevice;
use lss_btree::kv::KvOptions;
use lss_core::policy::PolicyKind;
use lss_core::{CheckpointConfig, CleanerMode, CleaningConfig, SeparationConfig, StoreConfig};
use lss_core::{StoreStats, Up2Mode};
use lss_server::ServerConfig;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Traffic run before a measured window, so it starts from a busy store.
pub fn warmup() -> Duration {
    Duration::from_secs(2)
}

/// How often a short, noisy step is repeated: until both a minimum count and a minimum
/// total time are reached. Its time is reported as the median.
pub struct Repeat {
    pub min_count: usize,
    pub min_seconds: f64,
}

impl Repeat {
    pub fn done(&self, times: &[f64]) -> bool {
        (times.len() >= self.min_count && times.iter().sum::<f64>() >= self.min_seconds)
            || times.len() >= 500
    }
}

/// Setups per run, each on a zeroed device; `setup_s` is their median. The first one
/// is measured; the rest run after the run's checks (see [`repeat_setup`]).
pub const SETUPS: Repeat = Repeat {
    min_count: 5,
    min_seconds: 6.0,
};

/// Repeat `setup` on `ram`, zeroed each time, until [`SETUPS`] is satisfied; `times`
/// holds the timings so far and gets the new ones. What a setup makes is dropped
/// untimed. Runs call this after `peak_rss_mib` is read, so the memory these setups
/// leave behind in the allocator does not count as the program's.
pub fn repeat_setup<T>(
    ram: &RamDevice,
    times: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(), String> {
    while !SETUPS.done(times) {
        ram.reset();
        let (made, s) = timed(&mut setup);
        drop(made?);
        times.push(s);
    }
    Ok(())
}

/// Recoveries per run; the recovery times are their medians.
pub const RECOVERIES: Repeat = Repeat {
    min_count: 9,
    min_seconds: 1.0,
};

/// The arguments of one run.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced KV workloads keep their `FileDevice` files: inside the
    /// checkout, on the disk that holds it.
    pub dir: PathBuf,
    /// Context lines printed before the result.
    pub context: Vec<String>,
}

impl Run {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// The measured window of each phase of a traced run: half the run's seconds.
    pub fn half_window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 2.0)
    }

    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.context.push(format!("context {key}: {value}"));
    }
}

/// The outcome of one run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Figures printed with the metrics but left out of the result line.
    pub also: Vec<String>,
    /// Sample counts and unreported percentiles, printed with the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Print `name` with the metrics, or why it has no value.
    pub fn also(&mut self, name: &str, value: Result<f64, impl std::fmt::Display>, unit: &str) {
        self.also.push(match value {
            Ok(v) => format!("also {name} = {v} {unit}"),
            Err(why) => format!("also {name}: {why}"),
        });
    }
}

/// The store geometry of every workload (ROADMAP's baseline table): `paper_default`
/// with MDC, 4 write streams, 256 KiB segments and 1 KiB pages. Every field is set
/// here, so nothing in the environment or a changed default can alter a run unseen.
pub fn store_config(num_segments: usize) -> StoreConfig {
    StoreConfig {
        segment_bytes: 256 * 1024,
        num_segments,
        page_bytes: 1024,
        policy: PolicyKind::Mdc,
        cleaning: CleaningConfig {
            trigger_free_segments: 32,
            segments_per_cycle: 64,
            reserved_free_segments: 4,
            cold_victim_min_emptiness: 0.75,
        },
        separation: SeparationConfig::full(),
        sort_buffer_segments: 16,
        up2_mode: Up2Mode::default(),
        write_streams: 4,
        cleaner_threads: 2,
        cleaner_mode: CleanerMode::Fixed,
        gc_read_pool: 4,
        gc_temperature_classes: 1,
        absorb_updates_in_buffer: true,
        verify_checksums_on_read: true,
        checkpoint: CheckpointConfig {
            incremental: true,
            cadence_updates: 0,
        },
    }
}

/// KV options: the default 256-page index pool and the server's shipped
/// group-commit window of 200 µs.
pub fn kv_options() -> KvOptions {
    KvOptions {
        pool_pages: 256,
        tree_page_bytes: None,
        group_commit_window_us: 200,
    }
}

/// `ServerConfig::default()`, spelled out.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        server_threads: 0,
        max_frame_bytes: lss_server::protocol::MAX_FRAME_BYTES,
        max_scan_items: 65_536,
        write_timeout: Some(Duration::from_secs(30)),
    }
}

/// Record the resolved configuration of a run.
pub fn record_configs(run: &mut Run, store: &StoreConfig, kv: Option<&KvOptions>) {
    run.note(
        "store_config",
        serde_json::to_string(store).unwrap_or_else(|e| format!("<unprintable: {e}>")),
    );
    if let Some(kv) = kv {
        let server = server_config();
        // `device::file_device` says why the mode picks the device.
        let device = if run.trace { "FileDevice" } else { "RamDevice" };
        run.note("device", device);
        run.note("kv_options", format!("{kv:?}"));
        run.note("server_config", format!("{server:?}"));
        run.note("server_effective_threads", server.effective_threads());
    }
}

/// The filesystem type holding `path`, from the longest matching mount point.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let mount = *fields.get(4)?;
            let dash = fields.iter().position(|f| *f == "-")?;
            let fstype = *fields.get(dash + 1)?;
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Counters of the store that a window's metrics are deltas of.
pub struct StoreDelta {
    pub before: StoreStats,
    pub after: StoreStats,
}

impl StoreDelta {
    pub fn user_pages(&self) -> f64 {
        (self.after.user_pages_written - self.before.user_pages_written) as f64
    }
    pub fn gc_pages(&self) -> f64 {
        (self.after.gc_pages_written - self.before.gc_pages_written) as f64
    }

    /// Δ`gc_pages_written` / Δ`user_pages_written`: the paper's W_amp.
    pub fn write_amp(&self) -> f64 {
        ratio(self.gc_pages(), self.user_pages())
    }

    /// The `store.*` and `gc.*` counter metrics over the window.
    pub fn layer_metrics(&self, ops: f64, out: &mut Outcome) {
        let (b, a) = (&self.before, &self.after);
        let d = |f: fn(&StoreStats) -> u64| (f(a) - f(b)) as f64;
        let cycles = d(|s| s.cleaning_cycles);
        out.set(
            "store.segments_sealed_per_op",
            ratio(d(|s| s.segments_sealed), ops),
        );
        out.set(
            "store.absorbed_frac",
            ratio(d(|s| s.absorbed_in_buffer), self.user_pages()),
        );
        out.set(
            "store.device_read_frac",
            ratio(d(|s| s.device_page_reads), d(|s| s.pages_read)),
        );
        out.set("gc.cycles", cycles);
        out.set(
            "gc.mean_emptiness",
            ratio(
                a.emptiness_sum_at_clean - b.emptiness_sum_at_clean,
                d(|s| s.segments_cleaned),
            ),
        );
        out.set("gc.pages_moved_per_cycle", ratio(self.gc_pages(), cycles));
        out.set("gc.writer_stalls", d(|s| s.writer_stall_events));
        out.set("gc.straggler_reclaims", d(|s| s.straggler_reclaims));
    }
}

/// `num / den`, or 0 when nothing happened.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Time `f` and return its result with the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Nanoseconds since `epoch`.
pub fn since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Turn any displayable error into the run's error string.
pub fn err(context: &str) -> impl Fn(lss_core::Error) -> String + '_ {
    move |e| format!("{context}: {e}")
}
