//! The server's durability contract, end to end over real sockets: every PUT the
//! server has OK-acked as durable (PROTOCOL.md §5.2) must be readable after the
//! process and device come back — even when the device died mid-storm at a seeded
//! write boundary. Writer clients pipeline durable PUTs (§7) at depth 8, the
//! backing [`common::CrashPointDevice`] is killed under them, and recovery from the
//! surviving bytes alone must contain every acked key. `LSS_STRESS_SEED` varies the
//! crash boundary per CI stress iteration. A durable PUT waiting for its commit
//! holds no worker, so one flip carries more PUTs than there are workers.

mod common;

use common::{apply_env_concurrency, stress_seed_or, CrashPointDevice};
use lss::btree::kv::{KvOptions, KvStore};
use lss::client::{Client, ClientOptions};
use lss::core::policy::PolicyKind;
use lss::core::{LogStore, StoreConfig};
use lss::server::protocol::{Request, Response};
use lss::server::{Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

const DEPTH: usize = 8;

/// The shape of one storm: writer connections, server workers and the
/// group-commit window.
#[derive(Clone, Copy)]
struct Storm {
    writers: usize,
    server_threads: usize,
    window_us: u64,
}

/// Three writers against the default executor.
const DEFAULT_STORM: Storm = Storm {
    writers: 3,
    server_threads: 0,
    window_us: 200,
};

/// What a storm left behind: the acked keys per writer and the superblock flips
/// the store made while it ran.
struct StormResult {
    acked: Vec<Vec<u32>>,
    flips: u64,
}

fn config() -> StoreConfig {
    let mut c = apply_env_concurrency(StoreConfig::small_for_tests().with_policy(PolicyKind::Mdc));
    c.num_segments = 256;
    c
}

fn key(writer: usize, i: u32) -> Vec<u8> {
    format!("w{writer}:{i:05}").into_bytes()
}

fn value(writer: usize, i: u32) -> Vec<u8> {
    format!("writer-{writer}-payload-{i}").into_bytes()
}

/// One writer: pipeline durable PUTs at `DEPTH`, recording each OK-acked key.
/// Stops at the first error reply or transport failure (the device just died) —
/// unacked writes carry no promise, so they are simply not recorded.
fn writer_storm(addr: &str, writer: usize, puts: u32) -> Vec<u32> {
    let mut client = match Client::connect_with(
        addr,
        ClientOptions {
            connect_attempts: 1,
            retry_mutations: false,
            ..ClientOptions::default()
        },
    ) {
        Ok(c) => c,
        Err(_) => return Vec::new(), // server already gone: nothing was acked
    };
    let mut in_flight: HashMap<u64, u32> = HashMap::new();
    let mut acked = Vec::new();
    let mut reap = |client: &mut Client, in_flight: &mut HashMap<u64, u32>| -> bool {
        match client.recv() {
            Ok((corr, Response::Put)) => {
                let i = in_flight.remove(&corr).expect("unknown corr id");
                acked.push(i);
                true
            }
            Ok((_, Response::Err { .. })) | Err(_) => false,
            Ok((_, other)) => panic!("writer {writer}: unexpected reply {other:?}"),
        }
    };
    'storm: for i in 0..puts {
        while in_flight.len() >= DEPTH {
            if !reap(&mut client, &mut in_flight) {
                break 'storm;
            }
        }
        match client.send(&Request::Put {
            key: key(writer, i),
            value: value(writer, i),
            durable: true,
        }) {
            Ok(corr) => {
                in_flight.insert(corr, i);
            }
            Err(_) => break,
        }
    }
    while !in_flight.is_empty() {
        if !reap(&mut client, &mut in_flight) {
            break;
        }
    }
    acked
}

/// Run a storm against a server on `device`, optionally killing the device after
/// `fail_after` more segment writes.
fn run_storm(
    device: &CrashPointDevice,
    storm: Storm,
    fail_after: Option<u64>,
    puts: u32,
) -> StormResult {
    let store =
        LogStore::open_with_device(config(), Box::new(device.clone())).expect("fresh store");
    let kv = Arc::new(
        KvStore::open_with(
            store,
            KvOptions {
                group_commit_window_us: storm.window_us,
                ..KvOptions::default()
            },
        )
        .unwrap(),
    );
    let server_config = ServerConfig {
        server_threads: storm.server_threads,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&kv), "127.0.0.1:0", server_config).unwrap();
    let addr = server.local_addr().to_string();
    let flips_before = kv.stats().superblock_commits;
    if let Some(budget) = fail_after {
        device.fail_after(budget);
    }
    let writers: Vec<_> = (0..storm.writers)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || writer_storm(&addr, w, puts))
        })
        .collect();
    let acked: Vec<Vec<u32>> = writers.into_iter().map(|h| h.join().unwrap()).collect();
    server.shutdown();
    drop(server);
    let flips = kv.stats().superblock_commits - flips_before;
    drop(kv); // stop the old store's background threads before the device heals
    StormResult { acked, flips }
}

/// Recover from the device bytes alone and assert every acked key reads back its
/// exact value; then prove the recovered store is writable.
fn check_recovery(device: &CrashPointDevice, acked: &[Vec<u32>]) {
    device.heal();
    let store =
        LogStore::recover_with_device(config(), Box::new(device.clone())).expect("recovery");
    let kv = KvStore::open(store).expect("KV layer over recovered store");
    let total: usize = acked.iter().map(Vec::len).sum();
    for (writer, keys) in acked.iter().enumerate() {
        for &i in keys {
            assert_eq!(
                kv.get(&key(writer, i)).unwrap().as_deref(),
                Some(&value(writer, i)[..]),
                "acked durable PUT w{writer}:{i:05} lost across crash+recovery ({total} acked)"
            );
        }
    }
    kv.put(b"post-recovery", b"writable").unwrap();
    kv.flush().unwrap();
    assert_eq!(
        kv.get(b"post-recovery").unwrap().as_deref(),
        Some(&b"writable"[..])
    );
}

#[test]
fn clean_restart_keeps_every_acked_write() {
    let cfg = config();
    let device = CrashPointDevice::new(cfg.segment_bytes, cfg.num_segments);
    let acked = run_storm(&device, DEFAULT_STORM, None, 200).acked;
    // A graceful run acks everything it sent.
    for (writer, keys) in acked.iter().enumerate() {
        assert_eq!(keys.len(), 200, "writer {writer} lost acks without a crash");
    }
    check_recovery(&device, &acked);
}

#[test]
fn device_crash_mid_storm_keeps_every_acked_write() {
    let seed = stress_seed_or(0xD00D_F17E);
    let mut rng = StdRng::seed_from_u64(seed);
    // A small matrix of crash boundaries per run; the CI stress loop re-seeds the
    // whole matrix each iteration, sweeping ever more boundaries over time.
    for round in 0..3u64 {
        let budget = rng.gen_range(5..120u64);
        let cfg = config();
        let device = CrashPointDevice::new(cfg.segment_bytes, cfg.num_segments);
        let acked = run_storm(&device, DEFAULT_STORM, Some(budget), 400).acked;
        let total: usize = acked.iter().map(Vec::len).sum();
        // The interesting half of the matrix is a crash with acks outstanding, but a
        // budget large enough for a full run is also a valid (clean) data point.
        check_recovery(&device, &acked);
        println!(
            "seed {seed:#x} round {round}: budget {budget} writes, {total} acked PUTs survived"
        );
    }
}

/// Durable PUTs waiting for their commit hold no worker: with 2 workers and 16
/// durable PUTs in flight, one flip must carry more PUTs than there are workers.
/// (If each waiting PUT held a worker, at most 2 could share a flip.) Every acked
/// PUT must then survive a crash.
#[test]
fn one_flip_carries_more_durable_puts_than_workers() {
    const WORKERS: usize = 2;
    let storm = Storm {
        writers: 2,
        server_threads: WORKERS,
        window_us: 1_000,
    };
    let cfg = config();
    let device = CrashPointDevice::new(cfg.segment_bytes, cfg.num_segments);
    let result = run_storm(&device, storm, None, 200);
    let acked: usize = result.acked.iter().map(Vec::len).sum();
    assert_eq!(acked, 400, "a graceful run acks everything it sent");
    assert!(
        acked as u64 > WORKERS as u64 * result.flips,
        "{acked} acked durable PUTs took {} flips: no flip carried more PUTs than \
         the {WORKERS} workers",
        result.flips
    );
    println!(
        "{acked} acked durable PUTs over {} flips with {WORKERS} workers",
        result.flips
    );
    check_recovery(&device, &result.acked);
}
