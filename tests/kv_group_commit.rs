//! Group-commit semantics for the paged KV layer ([`lss::btree::kv::KvStore`]):
//!
//! * `group_commit_window_us = 0` (the default) must be behaviour-identical to the
//!   pre-group-commit per-call flip — proven by an A/B run of the same deterministic
//!   trace against both configurations, comparing contents *and* commit statistics;
//! * with a wide window, concurrent `flush` calls must batch into fewer superblock
//!   flips than calls, every caller's mutations must be durable once its call
//!   returns `Ok`, and a failed flip must surface the error to *every* caller of the
//!   batched generation — a rider must never report durability its leader failed to
//!   deliver;
//! * riders that join with a callback ([`KvStore::flush_then`]) get exactly one
//!   outcome each, even when the flip fails or the leader unwinds mid-flip, and no
//!   rider of either kind hangs.

mod common;

use common::{apply_env_concurrency, CrashPointDevice};
use lss::btree::kv::{KvOptions, KvStore};
use lss::core::device::{DeviceGeometry, MemDevice, SegmentDevice};
use lss::core::policy::PolicyKind;
use lss::core::{Error, LogStore, Result, SegmentId, StoreConfig};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

fn config() -> StoreConfig {
    let mut c = apply_env_concurrency(StoreConfig::small_for_tests().with_policy(PolicyKind::Mdc));
    c.num_segments = 192;
    c
}

fn open_with_window(window_us: u64) -> KvStore {
    KvStore::open_with(
        LogStore::open_in_memory(config()).unwrap(),
        KvOptions {
            group_commit_window_us: window_us,
            ..Default::default()
        },
    )
    .unwrap()
}

/// A deterministic single-threaded trace: puts, overwrites, deletes, periodic
/// flushes — the shape whose per-call commit behaviour window 0 must reproduce.
fn run_trace(kv: &KvStore) {
    for round in 0..4u32 {
        for i in 0..120u32 {
            kv.put(
                format!("k{i:04}").as_bytes(),
                format!("r{round}-v{i}").as_bytes(),
            )
            .unwrap();
        }
        for i in (0..120u32).step_by(9) {
            kv.delete(format!("k{i:04}").as_bytes()).unwrap();
        }
        kv.flush().unwrap();
    }
}

/// Acceptance gate: `group_commit_window_us = 0` is the per-call commit, bit for bit
/// in everything observable — same contents, one flip per flush call, zero riders,
/// identical index/value write accounting and epoch sequence as the default open.
#[test]
fn window_zero_is_identical_to_per_call_commit() {
    let default_kv = KvStore::open(LogStore::open_in_memory(config()).unwrap()).unwrap();
    let zero_kv = open_with_window(0);
    run_trace(&default_kv);
    run_trace(&zero_kv);

    let a = default_kv.stats();
    let b = zero_kv.stats();
    assert_eq!(a.epoch, b.epoch, "epoch sequences diverged");
    assert_eq!(
        a.superblock_commits, b.superblock_commits,
        "flip counts diverged"
    );
    assert_eq!(a.flush_calls, b.flush_calls);
    assert_eq!(
        b.flush_calls, b.superblock_commits,
        "window 0 must flip once per flush call"
    );
    assert_eq!(b.group_commit_riders, 0, "window 0 must never batch");
    assert_eq!(a.group_commit_riders, 0);
    assert_eq!(a.puts, b.puts);
    assert_eq!(a.deletes, b.deletes);
    assert_eq!(a.keys, b.keys);
    assert_eq!(
        a.index_pages_written, b.index_pages_written,
        "index write traces diverged"
    );
    assert_eq!(a.index_bytes_written, b.index_bytes_written);
    assert_eq!(a.value_bytes_written, b.value_bytes_written);

    let scan_a = default_kv.range(b"", b"~~~~~~").unwrap();
    let scan_b = zero_kv.range(b"", b"~~~~~~").unwrap();
    assert_eq!(scan_a, scan_b, "contents diverged");
}

/// Concurrent flush calls with a wide window batch into fewer flips than calls, and
/// every caller's data is durable (restart-proof) once its call returned `Ok`.
#[test]
fn concurrent_flushes_batch_and_stay_durable() {
    const FLUSHERS: u32 = 4;
    let kv = Arc::new(open_with_window(100_000));
    for i in 0..200u32 {
        kv.put(format!("seed{i:04}").as_bytes(), b"base").unwrap();
    }
    kv.flush().unwrap();
    let base = kv.stats();

    // Each thread writes its marker and then demands durability; the window gives
    // every call time to join the leader's generation.
    std::thread::scope(|scope| {
        for t in 0..FLUSHERS {
            let kv = kv.clone();
            scope.spawn(move || {
                kv.put(
                    format!("marker{t}").as_bytes(),
                    format!("from-t{t}").as_bytes(),
                )
                .unwrap();
                kv.flush().unwrap();
            });
        }
    });

    let stats = kv.stats();
    let calls = stats.flush_calls - base.flush_calls;
    let flips = stats.superblock_commits - base.superblock_commits;
    let riders = stats.group_commit_riders - base.group_commit_riders;
    assert_eq!(calls, FLUSHERS as u64);
    assert!(
        flips < calls,
        "{calls} concurrent flush calls took {flips} flips — nothing batched"
    );
    assert!(riders >= 1, "no call rode a generation");
    assert_eq!(flips + riders, calls, "every call either leads or rides");
    assert!(stats.avg_commit_batch() > 1.0);

    // Durability: every marker survives a restart (each flush returned Ok only
    // after a superblock covering its put was committed).
    let kv = Arc::try_unwrap(kv).unwrap_or_else(|_| unreachable!("all clones joined"));
    let store = kv.into_inner();
    let cfg = store.config().clone();
    let reopened =
        KvStore::open(LogStore::recover_with_device(cfg, store.into_device()).unwrap()).unwrap();
    for t in 0..FLUSHERS {
        assert_eq!(
            reopened
                .get(format!("marker{t}").as_bytes())
                .unwrap()
                .expect("marker lost after restart")
                .as_ref(),
            format!("from-t{t}").as_bytes()
        );
    }
}

/// A failed flip must fail *every* caller of the batched generation: a rider
/// returning `Ok` while the leader's barriers never reached the device would be a
/// silent durability lie.
#[test]
fn riders_observe_the_leaders_failure() {
    let cfg = config();
    let device = CrashPointDevice::new(cfg.segment_bytes, cfg.num_segments);
    let store = LogStore::open_with_device(cfg.clone(), Box::new(device.clone())).unwrap();
    let kv = Arc::new(
        KvStore::open_with(
            store,
            KvOptions {
                group_commit_window_us: 100_000,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    for i in 0..150u32 {
        kv.put(format!("c{i:04}").as_bytes(), b"committed").unwrap();
    }
    kv.flush().unwrap();

    for i in 0..150u32 {
        kv.put(format!("u{i:04}").as_bytes(), b"uncommitted")
            .unwrap();
    }
    device.fail_after(0); // every further device write fails: the flip cannot land
    let failures = AtomicU32::new(0);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let kv = kv.clone();
            let failures = &failures;
            scope.spawn(move || {
                let Err(e) = kv.flush() else { return };
                // Leader and riders surface the *same* wrapped source error, so
                // callers matching on the underlying variant behave identically
                // in either role (the device failure is an I/O error here).
                assert!(
                    matches!(&e, Error::GroupCommitFailed(src) if matches!(**src, Error::Io(_))),
                    "expected the generation's shared source error, got {e:?}"
                );
                failures.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(
        failures.load(Ordering::Relaxed),
        3,
        "a flush call reported durability for an epoch the device never saw"
    );

    // The committed epoch survives: heal, reopen, only the pre-failure state exists.
    let kv = Arc::try_unwrap(kv).unwrap_or_else(|_| unreachable!("all clones joined"));
    drop(kv.into_inner());
    device.heal();
    let recovered = LogStore::recover_with_device(cfg, Box::new(device.clone())).unwrap();
    let reopened = KvStore::open(recovered).unwrap();
    assert_eq!(reopened.len(), 150);
    assert_eq!(
        reopened.get(b"c0000").unwrap().unwrap().as_ref(),
        b"committed"
    );
    assert!(reopened.get(b"u0000").unwrap().is_none());
}

/// A flush caller stuck longer than this is a hang, not a slow flip.
const HANG_LIMIT: Duration = Duration::from_secs(60);

/// Run `scenario` on a thread of its own and fail if it does not finish within
/// [`HANG_LIMIT`]: a stranded rider must fail the test, not wedge the suite.
fn without_hanging<T: Send + 'static>(scenario: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(scenario());
    });
    match rx.recv_timeout(HANG_LIMIT) {
        Ok(value) => {
            handle.join().expect("the scenario thread finished");
            value
        }
        Err(RecvTimeoutError::Timeout) => panic!("a flush caller hung for {HANG_LIMIT:?}"),
        Err(RecvTimeoutError::Disconnected) => match handle.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the scenario sends before it returns"),
        },
    }
}

/// How each caller of one batched generation joined it.
#[derive(Clone, Copy)]
enum Caller {
    Blocking,
    Callback(usize),
}

/// The callers of [`flush_storm`]: blocking flushers and callback riders mixed.
const CALLERS: [Caller; 6] = [
    Caller::Blocking,
    Caller::Callback(0),
    Caller::Callback(1),
    Caller::Blocking,
    Caller::Callback(2),
    Caller::Callback(3),
];

/// What a [`flush_storm`] observed.
struct StormOutcome {
    /// Each blocking flusher's result; `None` if its thread panicked.
    blocking: Vec<Option<Result<()>>>,
    /// Every outcome a callback received, tagged with the callback's index.
    callbacks: Vec<(usize, Result<()>)>,
    /// Caller threads that panicked (leaders that unwound mid-flip).
    panicked: usize,
}

/// Start every caller of [`CALLERS`] at once against `kv` — so they batch into
/// the generation the first of them opens — and collect what each observed once
/// all have returned. A leader runs every callback before it returns, so when the
/// threads are joined every callback that will ever run has run.
fn flush_storm(kv: &Arc<KvStore>) -> StormOutcome {
    let callbacks = Arc::new(Mutex::new(Vec::new()));
    let start = Arc::new(Barrier::new(CALLERS.len()));
    let handles: Vec<_> = CALLERS
        .iter()
        .map(|&caller| {
            let (kv, callbacks, start) = (kv.clone(), callbacks.clone(), start.clone());
            std::thread::spawn(move || {
                start.wait();
                match caller {
                    Caller::Blocking => Some(kv.flush()),
                    Caller::Callback(i) => {
                        kv.flush_then(move |outcome| callbacks.lock().unwrap().push((i, outcome)));
                        None
                    }
                }
            })
        })
        .collect();
    let mut out = StormOutcome {
        blocking: Vec::new(),
        callbacks: Vec::new(),
        panicked: 0,
    };
    for (caller, handle) in CALLERS.iter().zip(handles) {
        match (caller, handle.join()) {
            (Caller::Blocking, Ok(result)) => out.blocking.push(result),
            (Caller::Blocking, Err(_)) => {
                out.blocking.push(None);
                out.panicked += 1;
            }
            (Caller::Callback(_), Ok(_)) => {}
            (Caller::Callback(_), Err(_)) => out.panicked += 1,
        }
    }
    out.callbacks = std::mem::take(&mut *callbacks.lock().unwrap());
    out
}

/// Assert that every callback ran exactly once, and that none of them saw `Ok`.
fn assert_each_callback_failed_once(callbacks: &[(usize, Result<()>)]) {
    let mut seen: Vec<usize> = callbacks.iter().map(|(i, _)| *i).collect();
    seen.sort_unstable();
    let expected: Vec<usize> = CALLERS
        .iter()
        .filter_map(|c| match c {
            Caller::Callback(i) => Some(*i),
            Caller::Blocking => None,
        })
        .collect();
    assert_eq!(seen, expected, "every callback runs exactly once");
    for (i, outcome) in callbacks {
        assert!(
            matches!(outcome, Err(Error::GroupCommitFailed(_))),
            "callback {i} got {outcome:?}, not the generation's failure"
        );
    }
}

/// A KV store on `device` with a 100 ms window, holding committed and
/// uncommitted keys.
fn kv_with_pending_writes(device: Box<dyn SegmentDevice>) -> Arc<KvStore> {
    let store = LogStore::open_with_device(config(), device).unwrap();
    let kv = KvStore::open_with(
        store,
        KvOptions {
            group_commit_window_us: 100_000,
            ..Default::default()
        },
    )
    .unwrap();
    for i in 0..150u32 {
        kv.put(format!("c{i:04}").as_bytes(), b"committed").unwrap();
    }
    kv.flush().unwrap();
    for i in 0..150u32 {
        kv.put(format!("u{i:04}").as_bytes(), b"uncommitted")
            .unwrap();
    }
    Arc::new(kv)
}

/// A failed flip hands each callback rider exactly one `GroupCommitFailed` —
/// never an `Ok` — and fails every blocking rider too; nobody hangs.
#[test]
fn callback_riders_each_get_one_failure_when_the_flip_fails() {
    let cfg = config();
    let device = CrashPointDevice::new(cfg.segment_bytes, cfg.num_segments);
    let kv = kv_with_pending_writes(Box::new(device.clone()));
    let riders_before = kv.stats().group_commit_riders;
    device.fail_after(0); // every further device write fails: the flip cannot land
    let storm = without_hanging({
        let kv = kv.clone();
        move || flush_storm(&kv)
    });
    assert_eq!(storm.panicked, 0);
    assert_each_callback_failed_once(&storm.callbacks);
    for (_, outcome) in &storm.callbacks {
        assert!(
            matches!(outcome, Err(Error::GroupCommitFailed(src)) if matches!(**src, Error::Io(_))),
            "expected the device failure as the shared source, got {outcome:?}"
        );
    }
    for result in &storm.blocking {
        assert!(
            matches!(result, Some(Err(Error::GroupCommitFailed(_)))),
            "a blocking rider reported {result:?} for a flip that failed"
        );
    }
    assert!(
        kv.stats().group_commit_riders > riders_before,
        "no caller rode the generation"
    );
}

/// A device whose `sync` panics once armed: the flip's first barrier then unwinds
/// out of the group-commit leader.
struct PanicOnSync {
    inner: MemDevice,
    armed: Arc<AtomicBool>,
}

impl SegmentDevice for PanicOnSync {
    fn geometry(&self) -> DeviceGeometry {
        self.inner.geometry()
    }
    fn read_segment(&self, seg: SegmentId) -> Result<Vec<u8>> {
        self.inner.read_segment(seg)
    }
    fn read_range(&self, seg: SegmentId, offset: u32, len: u32) -> Result<Vec<u8>> {
        self.inner.read_range(seg, offset, len)
    }
    fn write_segment(&self, seg: SegmentId, image: &[u8]) -> Result<()> {
        self.inner.write_segment(seg, image)
    }
    fn erase_segment(&self, seg: SegmentId) -> Result<()> {
        self.inner.erase_segment(seg)
    }
    fn sync(&self) -> Result<()> {
        assert!(
            !self.armed.load(Ordering::SeqCst),
            "simulated panic inside the flip's sync"
        );
        self.inner.sync()
    }
    fn segment_writes(&self) -> u64 {
        self.inner.segment_writes()
    }
}

/// A leader that unwinds mid-flip still runs every registered callback exactly
/// once, with a failure, and wakes every blocking rider; nobody hangs.
#[test]
fn a_leader_unwinding_mid_flip_runs_every_callback_once() {
    let cfg = config();
    let armed = Arc::new(AtomicBool::new(false));
    let kv = kv_with_pending_writes(Box::new(PanicOnSync {
        inner: MemDevice::new(cfg.segment_bytes, cfg.num_segments),
        armed: armed.clone(),
    }));
    armed.store(true, Ordering::SeqCst);
    let storm = without_hanging({
        let kv = kv.clone();
        move || flush_storm(&kv)
    });
    assert!(storm.panicked >= 1, "no leader unwound");
    assert_each_callback_failed_once(&storm.callbacks);
    for result in storm.blocking.iter().flatten() {
        assert!(
            matches!(result, Err(Error::GroupCommitFailed(_))),
            "a blocking rider reported {result:?} for a leader that died"
        );
    }
    armed.store(false, Ordering::SeqCst);
}
