//! `tenant_mix`: three tenants share one GPU — point lookups on a small
//! hot index, Zipf-popular scans, and an appending logger that calls
//! `gfsync` — with 4 KB pages and a corpus 16× the buffer cache.
//! Sessions arrive open-loop on the virtual clock (the trace comes from
//! `workloads::traffic::synthesize_trace`); dispatch weights, an
//! admission cap on the scanner and per-tenant frame quotas are on.
//!
//! The trace is replayed here, paced like `workloads::traffic::replay`,
//! rather than through it: that replayer keeps only histogram digests,
//! and this one needs every call timed from outside, every session timed
//! from its scheduled arrival, and every byte checked.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use gpufs::{GOpenMode, GpufsConfig};
use gpusim::{BlockCtx, Grid};
use simtime::Timings;
use workloads::traffic::{synthesize_trace, Op, TenantClass, TenantLoad, TrafficConfig};

use crate::ledger::Ledger;
use crate::rig::{self, Rig};
use crate::stats::{Api, CallLog};
use crate::Pass;

const PAGE: usize = 4 << 10;
/// Buffer cache: 64 frames (256 KB).
const CACHE_BYTES: usize = 64 * PAGE;
/// Corpus: 64 files of 64 KB (4 MB).
const FILES: usize = 64;
const FILE_BYTES: u64 = 64 << 10;
/// Lookup : scan : logger dispatch weights, in-flight caps (0 = none)
/// and soft frame quotas.
const WEIGHTS: [u32; 3] = [8, 1, 2];
const ADMISSION: [usize; 3] = [0, 2, 0];
const QUOTAS: [usize; 3] = [52, 6, 6];
/// How far (virtual ns) a block may run ahead of the slowest live block.
const PACE_LAG_NS: u64 = 200_000;
/// The point-lookup tenant, whose data-call tail is reported apart.
const LOOKUP_TENANT: usize = 0;

/// Fill of the read arenas before any `gread` lands in them.
const UNREAD: u8 = 0xa5;

/// One block's `gread` destinations, back to back, and the byte count
/// each call returned.
struct Reads {
    bytes: Vec<u8>,
    got: Vec<usize>,
}

fn traffic(seed: u64) -> TrafficConfig {
    TrafficConfig {
        seed,
        dir: "/mix".into(),
        n_files: FILES,
        file_bytes: FILE_BYTES,
        zipf_s: 0.8,
        op_bytes: PAGE,
        pace_lag_ns: PACE_LAG_NS,
        tenants: vec![
            TenantLoad {
                class: TenantClass::PointLookup,
                blocks: 2,
                sessions: 640,
                arrival_gap_ns: 20_000,
                burst_sessions: 8,
                off_gap_ns: 100_000,
                ops_per_session: 8,
                hot_files: 3,
            },
            TenantLoad {
                class: TenantClass::Scan,
                blocks: 4,
                sessions: 32,
                arrival_gap_ns: 650_000,
                burst_sessions: 0,
                off_gap_ns: 0,
                ops_per_session: 8,
                hot_files: 0,
            },
            TenantLoad {
                class: TenantClass::Logger,
                blocks: 1,
                sessions: 64,
                arrival_gap_ns: 325_000,
                burst_sessions: 0,
                off_gap_ns: 0,
                ops_per_session: 8,
                hot_files: 0,
            },
        ],
    }
}

pub fn pass(seed: u64, launch_seed: u64, traced: bool) -> Pass {
    let t0 = Instant::now();
    let cfg = traffic(seed);
    let trace = synthesize_trace(&cfg, 1);
    let fs = rig::paper_fs(&Timings::default());
    fs.mkdir_p(&cfg.dir).expect("create the corpus directory");
    let mut corpus: HashMap<&str, Vec<u8>> = HashMap::new();
    for (i, path) in trace.files.iter().enumerate() {
        fs.create_synthetic(path, FILE_BYTES, seed ^ i as u64)
            .expect("create a corpus file");
        let (bytes, _) = fs.read_whole(path, 0).expect("warm the host cache");
        corpus.insert(path, bytes);
    }
    fs.reset_device_time();
    let gcfg = GpufsConfig::new(PAGE, CACHE_BYTES)
        .with_tenant_weights(WEIGHTS.to_vec())
        .with_tenant_admission(ADMISSION.to_vec())
        .with_tenant_quotas(QUOTAS.to_vec());
    let r = Rig::new(&fs, &gcfg);
    r.host.set_tracing(traced);
    let blocks = &trace.blocks[0];
    for (slot, &t) in trace.tenant_of[0].iter().enumerate() {
        r.mount.set_tenant(slot, t);
    }
    let setup_s = t0.elapsed().as_secs_f64();

    // Every block reads into an arena of its own, one slot per `gread`,
    // and the bytes are checked after the launch: a check inside the
    // measured phase would add its memcmp to `host_s`. The nonzero fill
    // touches every page of the arenas here, outside both timed phases.
    let arenas: Vec<Mutex<Reads>> = blocks
        .iter()
        .map(|sessions| {
            let lens: Vec<usize> = sessions
                .iter()
                .flat_map(|s| &s.ops)
                .filter_map(|op| match *op {
                    Op::Read { len, .. } => Some(len),
                    Op::Write { .. } => None,
                })
                .collect();
            Mutex::new(Reads {
                bytes: vec![UNREAD; lens.iter().sum()],
                got: Vec::with_capacity(lens.len()),
            })
        })
        .collect();
    let board: Vec<AtomicU64> = blocks.iter().map(|_| AtomicU64::new(0)).collect();
    let logs = Mutex::new(CallLog::default());
    let before = fs.cache_stats();
    let (cpu0, h0) = (rig::cpu_s(), Instant::now());
    let res = r
        .gpu
        .launch_seeded(Grid::new(blocks.len(), 128), 0, launch_seed, |blk| {
            let slot = blk.block_id();
            let tenant = trace.tenant_of[0][slot];
            let mut log = CallLog::default();
            // Wait (in real time) until no live block is more than the
            // pacing lag behind this one in virtual time.
            let pace = |blk: &BlockCtx<'_>| loop {
                let now = blk.now();
                board[slot].store(now, Ordering::Release);
                let behind = board.iter().enumerate().any(|(s, c)| {
                    s != slot && c.load(Ordering::Acquire).saturating_add(PACE_LAG_NS) < now
                });
                if !behind {
                    break;
                }
                std::thread::yield_now();
            };
            let mut reads = arenas[slot].lock().expect("arena lock");
            let Reads { bytes: arena, got } = &mut *reads;
            let mut cursor = 0;
            let mut buf = vec![0u8; PAGE];
            'sessions: for sess in &blocks[slot] {
                blk.wait_until(sess.arrival);
                pace(blk);
                log.late.push(blk.now() - sess.arrival);
                let (fd, _) = log.time(Api::Open, blk, |b| r.mount.open(b, &sess.path, sess.mode));
                let Ok(fd) = fd else { break };
                let key = rig::key_of(&sess.path) ^ seed;
                for op in &sess.ops {
                    pace(blk);
                    let lat = match *op {
                        Op::Read { offset, len } => {
                            let dst = &mut arena[cursor..cursor + len];
                            cursor += len;
                            let (n, lat) =
                                log.time(Api::Read, blk, |b| r.mount.read(b, &fd, offset, dst));
                            let Ok(n) = n else { break 'sessions };
                            got.push(n);
                            log.bytes += n as u64;
                            lat
                        }
                        Op::Write { offset, len } => {
                            let src = &mut buf[..len];
                            rig::fill(key, offset, src);
                            let src = &*src;
                            let (w, lat) =
                                log.time(Api::Write, blk, |b| r.mount.write(b, &fd, offset, src));
                            if w.is_err() {
                                break 'sessions;
                            }
                            log.bytes += len as u64;
                            lat
                        }
                    };
                    if tenant == LOOKUP_TENANT {
                        log.lookups.push(lat);
                    }
                }
                if sess.fsync
                    && log
                        .time(Api::Fsync, blk, |b| r.mount.fsync(b, &fd))
                        .0
                        .is_err()
                {
                    break;
                }
                pace(blk);
                if log
                    .time(Api::Close, blk, |b| r.mount.close(b, fd))
                    .0
                    .is_err()
                {
                    break;
                }
                log.sessions.push(blk.now() - sess.arrival);
            }
            board[slot].store(u64::MAX, Ordering::Release);
            logs.lock().expect("log lock").merge(log);
        });
    let host_s = h0.elapsed().as_secs_f64();
    let cpu_s = rig::cpu_s() - cpu0;

    let mut log = logs.into_inner().expect("log lock");
    let mut sheet = rig::Sheet::new();
    rig::stack_counters(&mut sheet, &[&r.mount], &[&r.host], &fs, before);
    rig::local_tiers(&mut sheet);
    // Every read returned the corpus bytes.
    for (sessions, arena) in blocks.iter().zip(arenas) {
        let Reads { bytes, got } = arena.into_inner().expect("arena lock");
        let mut cursor = 0;
        let reads = sessions.iter().flat_map(|s| {
            s.ops.iter().filter_map(move |op| match *op {
                Op::Read { offset, len } => Some((s.path.as_str(), offset as usize, len)),
                Op::Write { .. } => None,
            })
        });
        for ((path, at, len), n) in reads.zip(got) {
            if bytes[cursor..cursor + n] != corpus[path][at..at + n] {
                log.mismatch(|| format!("gread of {path} at {at} differs"));
            }
            cursor += len;
        }
    }
    // Each logger file holds exactly its appends (up to the write-once
    // trailing-zero rule of `rig::write_once_holds`).
    for sess in blocks
        .iter()
        .flatten()
        .filter(|s| s.mode == GOpenMode::WriteOnce)
    {
        let len: usize = sess
            .ops
            .iter()
            .map(|op| match *op {
                Op::Write { len, .. } => len,
                Op::Read { .. } => 0,
            })
            .sum();
        let mut want = vec![0u8; len];
        rig::fill(rig::key_of(&sess.path) ^ seed, 0, &mut want);
        match fs.read_whole(&sess.path, res.end) {
            Ok((got, _)) if rig::write_once_holds(&got, &want) => {}
            Ok((got, _)) => log.mismatch(|| {
                let at = got.iter().zip(&want).position(|(a, b)| a != b);
                format!(
                    "log file {} holds {} bytes, not its {} appended; first difference at {at:?}",
                    sess.path,
                    got.len(),
                    want.len()
                )
            }),
            Err(e) => log.mismatch(|| format!("log file {} unreadable: {e}", sess.path)),
        }
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
