//! `write_back`: the Figure-4 geometry inverted. 28 threadblocks
//! `gwrite` their disjoint 1 MB share of one fresh `O_GWRONCE` file (64 KB
//! pages), then `gfsync` it, over 4 RPC channels × 2 daemon workers with
//! 32-page write batches and the background flusher between watermarks
//! 1024/32. Each `gwrite` carries a seeded 16–64 KB.

use std::sync::Mutex;
use std::time::Instant;

use gpufs::{GOpenMode, GpufsConfig};
use gpusim::Grid;
use simtime::Timings;

use crate::ledger::Ledger;
use crate::rig::{self, Rig};
use crate::stats::{Api, CallLog};
use crate::Pass;

const PAGE: usize = 64 << 10;
/// The output file: 28 MB, 1 MB (16 pages) per threadblock.
const FILE_BYTES: u64 = 28 << 20;
/// Buffer cache: the next power of two above the file plus 16 pages,
/// so this measures write-back, not eviction.
const CACHE_BYTES: usize = (FILE_BYTES as usize + 16 * PAGE).next_power_of_two();
const CHANNELS: usize = 4;
const WORKERS: usize = 2;
const WRITE_BATCH: usize = 32;
const DIRTY_HIGH: usize = 1024;
const DIRTY_LOW: usize = 32;
/// Shortest `gwrite`, and the step of the seeded write lengths.
const MIN_WRITE: u64 = 16 << 10;
const WRITE_STEP: u64 = 4 << 10;

pub fn pass(seed: u64, launch_seed: u64, traced: bool) -> Pass {
    let t0 = Instant::now();
    let mut payload = vec![0u8; FILE_BYTES as usize];
    rig::fill(seed, 0, &mut payload);
    let fs = rig::paper_fs(&Timings::default());
    let cfg = GpufsConfig::new(PAGE, CACHE_BYTES)
        .with_concurrency(CHANNELS, WORKERS)
        .with_write_batch(WRITE_BATCH)
        .with_async_writeback(DIRTY_HIGH, DIRTY_LOW);
    let r = Rig::new(&fs, &cfg);
    r.host.set_tracing(traced);
    let setup_s = t0.elapsed().as_secs_f64();

    let blocks = r.gpu.spec().concurrent_blocks();
    let per_block = FILE_BYTES / blocks as u64;
    let logs = Mutex::new(CallLog::default());
    let before = fs.cache_stats();
    let (cpu0, h0) = (rig::cpu_s(), Instant::now());
    let res = r
        .gpu
        .launch_seeded(Grid::new(blocks, 256), 0, launch_seed, |blk| {
            let mut log = CallLog::default();
            let start = blk.now();
            let mount = &r.mount;
            let (fd, _) = log.time(Api::Open, blk, |b| {
                mount.open(b, "/out.bin", GOpenMode::WriteOnce)
            });
            if let Ok(fd) = fd {
                let base = blk.block_id() as u64 * per_block;
                let mut off = 0;
                while off < per_block {
                    let at = (base + off) as usize;
                    let steps = (PAGE as u64 - MIN_WRITE) / WRITE_STEP + 1;
                    let len = MIN_WRITE + rig::mix(seed ^ at as u64) % steps * WRITE_STEP;
                    let n = (per_block - off).min(len) as usize;
                    let data = &payload[at..at + n];
                    let (wrote, _) =
                        log.time(Api::Write, blk, |b| mount.write(b, &fd, at as u64, data));
                    if wrote.is_err() {
                        break;
                    }
                    log.bytes += n as u64;
                    off += n as u64;
                }
                let _ = log.time(Api::Fsync, blk, |b| mount.fsync(b, &fd));
                let _ = log.time(Api::Close, blk, |b| mount.close(b, fd));
            }
            log.sessions.push(blk.now() - start);
            logs.lock().expect("log lock").merge(log);
        });
    let host_s = h0.elapsed().as_secs_f64();
    let cpu_s = rig::cpu_s() - cpu0;

    let mut log = logs.into_inner().expect("log lock");
    let mut sheet = rig::Sheet::new();
    rig::stack_counters(&mut sheet, &[&r.mount], &[&r.host], &fs, before);
    rig::local_tiers(&mut sheet);
    match fs.read_whole("/out.bin", res.end) {
        Ok((on_host, _)) if rig::write_once_holds(&on_host, &payload) => {}
        Ok((on_host, _)) => log.mismatch(|| {
            let at = on_host.iter().zip(&payload).position(|(a, b)| a != b);
            format!(
                "host file after gfsync: {} bytes, first difference at {at:?}",
                on_host.len()
            )
        }),
        Err(e) => log.mismatch(|| format!("host file unreadable after gfsync: {e}")),
    }
    Pass {
        setup_s,
        host_s,
        cpu_s,
        makespan_ns: res.elapsed(),
        log,
        sheet,
        ledger: Ledger::of(&r.host.tracer().snapshot()),
    }
}
