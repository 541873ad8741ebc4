//! `fleet_scan`: the §6 image search on 2 hosts × 4 GPUs behind host
//! proxies with host page caches, over a LAN link to one storage
//! server, with work-stealing scheduling over a skewed corpus.
//!
//! The search is `workloads::cluster::cluster_search`'s: database files
//! are dealt to GPUs in chunks of images, blocks claim chunks from the
//! fleet's [`WorkQueue`] in virtual-time order (a clock board), and a
//! query's match is the highest-priority `(db, slot)` holding its exact
//! copy. It runs here rather than through `cluster_search` so that every
//! g* call is timed from outside and dispatch order follows the seed
//! (`launch_seeded`). The seed also sets the corpus (each file holds
//! 384 + 0–7 images, ×6 for every 8th file) and each work item's size.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gpufs::cluster::{FleetView, HostFleet, ShardStrategy, WorkQueue};
use gpufs::{GOpenMode, GpufsConfig, GpufsResult};
use gpusim::{BlockCtx, Grid};
use simtime::Timings;
use workloads::compute::FlopsModel;
use workloads::corpus::{gen_image_dataset, ImageDataset, ImageDatasetConfig};

use crate::ledger::Ledger;
use crate::rig;
use crate::stats::{Api, CallLog};
use crate::Pass;

const HOSTS: usize = 2;
const GPUS_PER_HOST: usize = 4;
/// The LAN link: 30 µs round trip, 11.6 GB/s.
const NET_RTT_NS: u64 = 30_000;
const NET_MB_S: f64 = 11_600.0;
const HOST_CACHE_PAGES: usize = 4096;
const PAGE: usize = 64 << 10;
/// Per-GPU buffer cache.
const CACHE_BYTES: usize = 32 << 20;
/// 32 database files of 384 images plus a seeded 0–7; every 8th holds
/// 6× as many.
const DB_FILES: usize = 32;
const DB_IMAGES: usize = 384;
const DB_JITTER: u64 = 8;
const SKEW_EVERY: usize = 8;
const SKEW: usize = 6;
/// 1 KB images, 64 queries, half of them planted.
const DIM: usize = 256;
const QUERIES: usize = 64;
/// Images per work item: a seeded 12–20.
const CHUNK_MIN: usize = 12;
const CHUNK_SPREAD: u64 = 9;
const THRESHOLD: f32 = 0.5;
const NO_MATCH: u64 = u64::MAX;

fn db_sizes(seed: u64) -> Vec<usize> {
    (0..DB_FILES)
        .map(|f| {
            let n = DB_IMAGES + (rig::mix(seed ^ f as u64) % DB_JITTER) as usize;
            if f % SKEW_EVERY == 0 {
                n * SKEW
            } else {
                n
            }
        })
        .collect()
}

/// One work item: `n` images of database `db` from image `first`.
#[derive(Clone, Copy)]
struct Chunk {
    db: usize,
    first: usize,
    n: usize,
}

fn floats(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

fn matches(img: &[f32], query: &[f32], threshold_sq: f32) -> bool {
    let mut acc = 0.0f32;
    for (a, b) in img.iter().zip(query) {
        let d = a - b;
        acc += d * d;
        if acc > threshold_sq {
            return false;
        }
    }
    true
}

pub fn pass(seed: u64, launch_seed: u64, traced: bool) -> Pass {
    let t0 = Instant::now();
    let timings = Timings {
        net_rtt_ns: NET_RTT_NS,
        net_mb_s: NET_MB_S,
        ..Timings::default()
    };
    let fs = rig::paper_fs(&timings);
    let ds = gen_image_dataset(
        &fs,
        &ImageDatasetConfig {
            dir: "/imgdb".into(),
            db_sizes: db_sizes(seed),
            n_queries: QUERIES,
            dim: DIM,
            match_fraction: 0.5,
            plant_in_first_db_prefix: false,
            seed,
        },
    );
    for path in ds.db_paths.iter().chain([&ds.query_path]) {
        let _ = fs
            .read_whole(path, 0)
            .expect("warm the storage host's cache");
    }
    fs.reset_device_time();
    let fleet = HostFleet::builder(HOSTS, GPUS_PER_HOST)
        .spec(rig::paper_gpu(256 << 20))
        .timings(timings)
        .config(GpufsConfig::new(PAGE, CACHE_BYTES))
        .storage_fs(Arc::clone(&fs))
        .host_cache_pages(HOST_CACHE_PAGES)
        .build()
        .expect("build the fleet");
    let hosts: Vec<&gpufs::GpufsHost> = (0..HOSTS)
        .flat_map(|h| fleet.fleet(h).hosts().iter())
        .collect();
    for h in &hosts {
        h.set_tracing(traced);
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let before = fs.cache_stats();
    let (cpu0, h0) = (rig::cpu_s(), Instant::now());
    let (log, per_gpu, results, steals) = search(&fleet, &ds, seed, launch_seed);
    let host_s = h0.elapsed().as_secs_f64();
    let cpu_s = rig::cpu_s() - cpu0;

    let mut log = log;
    let found: Vec<Option<(usize, usize)>> = results
        .iter()
        .map(|r| match r.load(Ordering::Relaxed) {
            NO_MATCH => None,
            v => Some(((v >> 32) as usize, (v & 0xffff_ffff) as usize)),
        })
        .collect();
    if found != ds.planted {
        log.mismatch(|| {
            let q = found.iter().zip(&ds.planted).position(|(a, b)| a != b);
            format!("matches differ from the planted set (first at query {q:?})")
        });
    }

    let mut sheet = rig::Sheet::new();
    let mounts: Vec<_> = (0..fleet.len()).map(|g| fleet.mount(g)).collect();
    rig::stack_counters(&mut sheet, &mounts, &hosts, &fs, before);
    let (mut wire_rpcs, mut wire_bytes, mut hits, mut misses, mut lazy) = (0, 0, 0, 0, 0);
    for h in 0..HOSTS {
        let p = fleet.proxy(h);
        wire_rpcs += p.wire().wire_rpcs.get();
        wire_bytes += p.wire().wire_req_bytes.get() + p.wire().wire_resp_bytes.get();
        hits += p.cache().stats().hits.get();
        misses += p.cache().stats().misses.get();
        lazy += p.cache().stats().lazy_invalidations.get();
    }
    sheet.insert("remote.wire_rpcs", wire_rpcs as f64);
    sheet.insert("remote.wire_bytes", wire_bytes as f64);
    sheet.insert(
        "remote.host_cache_hit_ratio",
        crate::stats::ratio(hits as f64, (hits + misses) as f64),
    );
    sheet.insert("remote.lazy_invalidations", lazy as f64);
    sheet.insert(
        "remote.server_errors",
        fleet.server().stats().errors.get() as f64,
    );
    sheet.insert("cluster.steals", steals as f64);
    let ends: Vec<f64> = per_gpu.iter().map(|&e| e as f64).collect();
    let mean = ends.iter().sum::<f64>() / ends.len() as f64;
    sheet.insert(
        "cluster.gpu_imbalance",
        crate::stats::ratio(ends.iter().copied().fold(0.0, f64::max), mean),
    );

    // Every host's tracer numbers its ids from 1: one ledger per tracer.
    let mut ledger = Ledger::default();
    for h in &hosts {
        ledger.add(Ledger::of(&h.tracer().snapshot()));
    }
    Pass {
        setup_s,
        host_s,
        cpu_s,
        makespan_ns: per_gpu.iter().copied().max().unwrap_or(0),
        log,
        sheet,
        ledger,
    }
}

/// What every threadblock of the search shares.
struct Search<'a> {
    fleet: &'a HostFleet,
    ds: &'a ImageDataset,
    chunks: Vec<Chunk>,
    queue: WorkQueue,
    /// Per block: its virtual clock at its last claim (`u64::MAX` once
    /// it is done), so claims follow virtual time, not the OS thread race.
    board: Vec<AtomicU64>,
    /// Per query: the packed highest-priority match found so far.
    results: Vec<AtomicU64>,
}

impl Search<'_> {
    /// Wait (in real time) until no live block is virtually behind the
    /// block in `slot`, whose clock reads `now`.
    fn wait_turn(&self, slot: usize, now: u64) {
        self.board[slot].store(now, Ordering::Release);
        while self
            .board
            .iter()
            .enumerate()
            .any(|(i, c)| i != slot && c.load(Ordering::Acquire) < now)
        {
            std::thread::yield_now();
        }
    }

    /// One threadblock of GPU `g`: read the query set, then claim and scan
    /// work items until the queue runs dry.
    fn block(
        &self,
        g: usize,
        slot: usize,
        blk: &mut BlockCtx<'_>,
        log: &mut CallLog,
    ) -> GpufsResult<()> {
        let (mount, ds) = (self.fleet.mount(g), self.ds);
        let ib = ds.image_bytes();
        let (fd, _) = log.time(Api::Open, blk, |b| {
            mount.open(b, &ds.query_path, GOpenMode::ReadOnly)
        });
        let fd = fd?;
        let mut qbytes = vec![0u8; ds.n_queries * ib];
        let (got, _) = log.time(Api::Read, blk, |b| mount.read(b, &fd, 0, &mut qbytes));
        log.bytes += got? as u64;
        log.time(Api::Close, blk, |b| mount.close(b, fd)).0?;
        let queries: Vec<Vec<f32>> = qbytes.chunks_exact(ib).map(floats).collect();
        let model = FlopsModel::imgmatch();
        let nb = blk.grid().blocks;
        loop {
            self.wait_turn(slot, blk.now());
            let Some(item) = self.queue.next(g) else {
                return Ok(());
            };
            let c = self.chunks[item.index];
            let start = blk.now();
            let (fd, _) = log.time(Api::Open, blk, |b| {
                mount.open(b, &ds.db_paths[c.db], GOpenMode::ReadOnly)
            });
            let fd = fd?;
            let mut buf = vec![0u8; c.n * ib];
            let at = (c.first * ib) as u64;
            let (got, _) = log.time(Api::Read, blk, |b| mount.read(b, &fd, at, &mut buf));
            let got = got?;
            log.bytes += got as u64;
            log.time(Api::Close, blk, |b| mount.close(b, fd)).0?;
            log.sessions.push(blk.now() - start);
            if got != buf.len() {
                log.mismatch(|| format!("short read of db {}", c.db));
            }
            let flops = (c.n * ds.n_queries * ds.dim * 2) as u64;
            blk.advance(model.gpu_block_time(flops, nb));
            for (i, img) in buf.chunks_exact(ib).enumerate() {
                let img = floats(img);
                for (q, query) in queries.iter().enumerate() {
                    if matches(&img, query, THRESHOLD * THRESHOLD) {
                        let packed = ((c.db as u64) << 32) | (c.first + i) as u64;
                        self.results[q].fetch_min(packed, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

/// Run the search; returns the merged call log, per-GPU virtual end
/// times, the packed per-query results, and the steal count.
fn search(
    fleet: &HostFleet,
    ds: &ImageDataset,
    seed: u64,
    launch_seed: u64,
) -> (CallLog, Vec<u64>, Vec<AtomicU64>, u64) {
    let n_gpus = fleet.len();
    let n_dbs = ds.db_paths.len();
    // File-grained sharding, chunk-grained items, as in cluster_search
    // (whose chunks are all one size; here the seed sets each size).
    let mut chunks = Vec::new();
    let mut shard_of = Vec::new();
    for (db, &size) in ds.db_sizes.iter().enumerate() {
        let mut first = 0;
        while first < size {
            let draw = rig::mix(seed ^ rig::mix((db << 32 | first) as u64)) % CHUNK_SPREAD;
            let n = (CHUNK_MIN + draw as usize).min(size - first);
            chunks.push(Chunk { db, first, n });
            shard_of.push(db * n_gpus / n_dbs);
            first += n;
        }
    }
    let blocks_per_gpu: Vec<usize> = (0..n_gpus)
        .map(|g| fleet.gpu(g).spec().concurrent_blocks())
        .collect();
    let search = Search {
        fleet,
        ds,
        chunks,
        queue: WorkQueue::with_assignments(&shard_of, n_gpus, ShardStrategy::WorkStealing),
        board: (0..blocks_per_gpu.iter().sum())
            .map(|_| AtomicU64::new(0))
            .collect(),
        results: (0..ds.n_queries)
            .map(|_| AtomicU64::new(NO_MATCH))
            .collect(),
    };
    let logs = Mutex::new(CallLog::default());

    let per_gpu: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_gpus)
            .map(|g| {
                let (search, logs) = (&search, &logs);
                let base: usize = blocks_per_gpu[..g].iter().sum();
                let grid = Grid::new(blocks_per_gpu[g], 512);
                let seed = rig::mix(launch_seed ^ g as u64);
                s.spawn(move || {
                    let gpu = search.fleet.gpu(g);
                    let res = gpu.launch_seeded(grid, 0, seed, |blk| {
                        let slot = base + blk.block_id();
                        let mut log = CallLog::default();
                        let outcome = search.block(g, slot, blk, &mut log);
                        // A finished (or failed) block must never hold
                        // the fleet's claim order.
                        search.board[slot].store(u64::MAX, Ordering::Release);
                        if let Err(e) = outcome {
                            log.mismatch(|| format!("search kernel failed: {e}"));
                        }
                        logs.lock().expect("log lock").merge(log);
                    });
                    res.end
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("GPU thread"))
            .collect()
    });
    let steals = search.queue.steals();
    (
        logs.into_inner().expect("log lock"),
        per_gpu,
        search.results,
        steals,
    )
}
