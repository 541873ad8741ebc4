//! Shared assembly: the paper-platform host and GPU, deterministic
//! payloads, process probes, and the per-layer counter sheet of a pass.

use std::collections::BTreeMap;
use std::sync::Arc;

use gpufs::{GpuFsMount, GpufsConfig, GpufsHost};
use gpusim::{Gpu, GpuSpec};
use hostfs::{CacheStats, HostFs, HostFsConfig};
use simtime::Timings;

/// A host file system on the paper's platform: 8 GB of RAM, 64 KB host
/// page-cache pages, host readahead 8.
pub fn paper_fs(timings: &Timings) -> Arc<HostFs> {
    Arc::new(HostFs::new(HostFsConfig {
        timings: timings.clone(),
        host_mem_bytes: 8 << 30,
        cache_page_size: 64 << 10,
        readahead_pages: 8,
    }))
}

/// The paper's TESLA C2075 with `mem` bytes of device memory.
pub fn paper_gpu(mem: usize) -> GpuSpec {
    GpuSpec {
        memory_bytes: mem,
        ..GpuSpec::tesla_c2075()
    }
}

/// One GPU with its daemon and mount over `fs`.
pub struct Rig {
    pub host: GpufsHost,
    pub gpu: Arc<Gpu>,
    pub mount: Arc<GpuFsMount>,
}

impl Rig {
    /// A one-GPU rig whose device memory holds `cfg`'s buffer cache plus
    /// 64 MB of headroom.
    pub fn new(fs: &Arc<HostFs>, cfg: &GpufsConfig) -> Self {
        let timings = fs.timings().clone();
        let gpu = Arc::new(Gpu::with_timings(
            0,
            paper_gpu(cfg.cache_bytes + (64 << 20)),
            &timings,
        ));
        let host = GpufsHost::with_config(Arc::clone(fs), vec![Arc::clone(&gpu)], cfg);
        let mount = host.mount(0, cfg.clone()).expect("mount the rig's GPU");
        Rig { host, gpu, mount }
    }
}

/// SplitMix64: the one mixing function behind every derived seed and
/// payload byte, so a run's inputs are a pure function of its `--seed`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fill `buf` with the deterministic payload of `key` starting at byte
/// `offset` of that payload stream.
pub fn fill(key: u64, offset: u64, buf: &mut [u8]) {
    let mut word = 0;
    for (i, b) in buf.iter_mut().enumerate() {
        let at = offset + i as u64;
        if i == 0 || at & 7 == 0 {
            word = mix(key ^ mix(at >> 3));
        }
        *b = (word >> ((at & 7) * 8)) as u8;
    }
}

/// Whether an `O_GWRONCE` file read back from the host holds the bytes
/// `want` that were written to it. Write-back of a write-once page ships
/// only its nonzero runs (`gpufs::cache::nonzero_extents`: a written zero
/// is indistinguishable from an untouched byte), so the host file may end
/// before trailing zero bytes; every other byte must match exactly.
pub fn write_once_holds(got: &[u8], want: &[u8]) -> bool {
    got.len() <= want.len()
        && got == &want[..got.len()]
        && want[got.len()..].iter().all(|&b| b == 0)
}

/// Stable 64-bit key of a string (FNV-1a).
pub fn key_of(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system) this process has used, in seconds.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks of 1/100 s.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Per-layer counters of one pass, by metric name.
pub type Sheet = BTreeMap<&'static str, f64>;

/// Fill `sheet` with the cache, rpc and daemon counters of `mounts`
/// served by `hosts`, and the host page cache's activity since `before`.
pub fn stack_counters(
    sheet: &mut Sheet,
    mounts: &[&Arc<GpuFsMount>],
    hosts: &[&GpufsHost],
    fs: &HostFs,
    before: CacheStats,
) {
    let sum = |f: fn(&gpufs::cache::CacheCounters) -> u64| -> f64 {
        mounts.iter().map(|m| f(m.counters())).sum::<u64>() as f64
    };
    let hits = sum(|c| c.hits.get());
    let misses = sum(|c| c.misses.get());
    let lockfree = sum(|c| c.lockfree_accesses.get());
    let locked = sum(|c| c.locked_accesses.get());
    let read_rpcs = sum(|c| c.read_rpcs.get());
    let batched = sum(|c| c.batched_rpcs.get());
    let batched_pages = sum(|c| c.pages_per_rpc.get());
    let write_rpcs = sum(|c| c.write_rpcs.get());
    let write_pages = sum(|c| c.pages_per_write_rpc.get());
    sheet.insert("cache.hit_ratio", crate::stats::ratio(hits, hits + misses));
    sheet.insert(
        "cache.lockfree_ratio",
        crate::stats::ratio(lockfree, lockfree + locked),
    );
    sheet.insert("cache.pages_reclaimed", sum(|c| c.pages_reclaimed.get()));
    sheet.insert("cache.read_rpcs", read_rpcs);
    // A single-page read RPC is not in `batched_rpcs`: it carries one page.
    sheet.insert(
        "cache.pages_per_read_rpc",
        crate::stats::ratio(batched_pages + read_rpcs - batched, read_rpcs),
    );
    sheet.insert("cache.readahead_hits", sum(|c| c.readahead_hits.get()));
    sheet.insert("cache.write_rpcs", write_rpcs);
    sheet.insert(
        "cache.pages_per_write_rpc",
        crate::stats::ratio(write_pages, write_rpcs),
    );
    sheet.insert("cache.flusher_passes", sum(|c| c.flusher_passes.get()));
    sheet.insert("cache.throttle_stalls", sum(|c| c.throttle_stalls.get()));

    let tenant_stalls: u64 = hosts
        .iter()
        .map(|h| {
            (0..h.hub().num_tenants())
                .map(|t| h.hub().tenant_stalls(t))
                .sum::<u64>()
        })
        .sum();
    sheet.insert("rpc.tenant_stalls", tenant_stalls as f64);
    let daemon = |f: fn(&gpufs::DaemonStats) -> u64| -> f64 {
        hosts.iter().map(|h| f(h.stats())).sum::<u64>() as f64
    };
    sheet.insert("daemon.requests", daemon(|s| s.requests.get()));
    sheet.insert(
        "daemon.read_dma_chunks",
        daemon(|s| s.read_dma_chunks.get()),
    );
    sheet.insert(
        "daemon.write_dma_chunks",
        daemon(|s| s.write_dma_chunks.get()),
    );

    let after = fs.cache_stats();
    sheet.insert("hostfs.page_hits", (after.hits - before.hits) as f64);
    sheet.insert("hostfs.page_misses", (after.misses - before.misses) as f64);
    sheet.insert(
        "hostfs.evictions",
        (after.evictions - before.evictions) as f64,
    );
}

/// The remote and cluster counters of a workload that has neither tier:
/// every cross-host counter is zero and one GPU is perfectly balanced.
pub fn local_tiers(sheet: &mut Sheet) {
    for name in [
        "remote.wire_rpcs",
        "remote.wire_bytes",
        "remote.host_cache_hit_ratio",
        "remote.lazy_invalidations",
        "remote.server_errors",
        "cluster.steals",
    ] {
        sheet.insert(name, 0.0);
    }
    sheet.insert("cluster.gpu_imbalance", 1.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_once_files_may_drop_only_trailing_zeros() {
        assert!(write_once_holds(b"ab\0c", b"ab\0c"));
        assert!(write_once_holds(b"abc", b"abc\0\0"));
        assert!(!write_once_holds(b"ab", b"abc"));
        assert!(!write_once_holds(b"abd", b"abc\0"));
        assert!(!write_once_holds(b"abc\0", b"abc"));
    }

    #[test]
    fn payload_is_offset_consistent() {
        let mut whole = vec![0u8; 64];
        fill(7, 0, &mut whole);
        let mut tail = vec![0u8; 21];
        fill(7, 43, &mut tail);
        assert_eq!(&whole[43..], &tail[..]);
        let mut other = vec![0u8; 64];
        fill(8, 0, &mut other);
        assert_ne!(whole, other);
    }
}
