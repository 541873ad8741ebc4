//! `seq_read`: the Figure-4 geometry. 28 threadblocks in a closed loop
//! `gmmap` their consecutive share of one file, 64 KB pages with
//! readahead window 8; the file fits in the GPU buffer cache and the
//! host page cache is warm, so nearly all time is on the miss path.
//! The seed sets the share (2 MB plus 0–60 KB, so block boundaries may
//! split a page between two blocks) and each call's request length
//! (16–64 KB; a mapping never crosses a page), and which mappings are
//! checked against the host file.

use std::sync::Mutex;
use std::time::Instant;

use gpufs::{GOpenMode, GpufsConfig};
use gpusim::Grid;
use simtime::Timings;

use crate::ledger::Ledger;
use crate::rig::{self, Rig};
use crate::stats::{Api, CallLog};
use crate::Pass;

/// Page size and readahead window of the Figure-4 reference point.
const PAGE: usize = 64 << 10;
const WINDOW: usize = 8;
/// Shortest `gmmap` request, and the step of the seeded request lengths.
const MIN_MAP: u64 = 16 << 10;
const MAP_STEP: u64 = 4 << 10;
/// Threadblocks (the C2075's 28 resident blocks) and their smallest
/// share of the file.
const BLOCKS: u64 = 28;
const MIN_SHARE: u64 = 2 << 20;
/// Buffer cache: the next power of two above the largest file (56 MB +
/// 28 × 60 KB) plus 16 pages.
const CACHE_BYTES: usize = 64 << 20;
/// One mapping in this many, drawn from the seed, is compared with the
/// host file. The comparison runs inside the measured phase, so checking
/// every byte would add a memcmp of the whole file to `host_s`.
const CHECK_EVERY: u64 = 16;

pub fn pass(seed: u64, launch_seed: u64, traced: bool) -> Pass {
    let t0 = Instant::now();
    let per_block = MIN_SHARE + rig::mix(seed) % 16 * MAP_STEP;
    let file_bytes = BLOCKS * per_block;
    let fs = rig::paper_fs(&Timings::default());
    fs.create_synthetic("/seq.bin", file_bytes, seed)
        .expect("create the input file");
    let (expect, _) = fs.read_whole("/seq.bin", 0).expect("warm the host cache");
    fs.reset_device_time();
    let cfg = GpufsConfig::new(PAGE, CACHE_BYTES).with_readahead(WINDOW);
    let r = Rig::new(&fs, &cfg);
    r.host.set_tracing(traced);
    let setup_s = t0.elapsed().as_secs_f64();

    let blocks = r.gpu.spec().concurrent_blocks();
    assert_eq!(
        blocks as u64, BLOCKS,
        "the paper GPU runs 28 blocks at once"
    );
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
                mount.open(b, "/seq.bin", GOpenMode::ReadOnly)
            });
            if let Ok(fd) = fd {
                let base = blk.block_id() as u64 * per_block;
                let mut off = 0;
                while off < per_block {
                    let at = base + off;
                    let steps = (PAGE as u64 - MIN_MAP) / MAP_STEP + 1;
                    let len = (MIN_MAP + rig::mix(seed ^ at) % steps * MAP_STEP)
                        .min(per_block - off) as usize;
                    let (map, _) = log.time(Api::Mmap, blk, |b| mount.mmap(b, &fd, at, len));
                    let Ok(map) = map else { break };
                    let got = map.len();
                    if rig::mix(!seed ^ at).is_multiple_of(CHECK_EVERY)
                        && map.bytes() != &expect[at as usize..at as usize + got]
                    {
                        log.mismatch(|| format!("gmmap at {at} differs from the host file"));
                    }
                    log.bytes += got as u64;
                    mount.munmap(blk, map);
                    off += got as u64;
                }
                let _ = log.time(Api::Close, blk, |b| mount.close(b, fd));
            }
            log.sessions.push(blk.now() - start);
            logs.lock().expect("log lock").merge(log);
        });
    let host_s = h0.elapsed().as_secs_f64();
    let cpu_s = rig::cpu_s() - cpu0;

    let mut log = logs.into_inner().expect("log lock");
    let mapped = log.bytes;
    if mapped != file_bytes {
        log.mismatch(|| format!("mapped {mapped} of the file's {file_bytes} bytes"));
    }
    let mut sheet = rig::Sheet::new();
    rig::stack_counters(&mut sheet, &[&r.mount], &[&r.host], &fs, before);
    rig::local_tiers(&mut sheet);
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
