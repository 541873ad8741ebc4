//! One benchmark of the GPUfs stack on two clocks.
//!
//! ```text
//! perfbench --workload <seq_read|write_back|tenant_mix|fleet_scan>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats *passes* of one workload until `--seconds` of wall time
//! have gone by (at least [`MIN_PASSES`]). Each pass builds a fresh rig
//! and its own inputs, drawn from the seed and the pass number (timed as
//! set-up), runs the workload
//! through the public g* API, timing every call from outside on the
//! virtual clock and the host clock, and checks the outputs. With
//! `--trace 0` the run reports the end-to-end metrics of untraced
//! passes; with `--trace 1` every pass is run twice, untraced and then
//! traced, and the run reports the per-layer metrics. The last line of
//! standard output is one JSON object; the exit code is non-zero if any
//! output was wrong or any g* call failed. See README.md for every
//! metric's definition.

mod fleet_scan;
mod ledger;
mod rig;
mod seq_read;
mod stats;
mod tenant_mix;
mod write_back;

use std::fmt::Write as _;
use std::time::Instant;

use simtime::throughput_mb_s;

use crate::ledger::Ledger;
use crate::rig::Sheet;
use crate::stats::{median, quantile, ratio, tail_mean, us, Api, CallLog, FAILED};

/// Fewest passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// A statistic of one pass.
type PassStat = fn(&Pass) -> f64;

/// The virtual end-to-end metrics a traced pass must reproduce: tracing
/// is meant to leave virtual time unchanged. Each may stray by its bound
/// in BENCHMARK.json.
const TRACE_AGREEMENT: [(&str, PassStat); 4] = [
    ("data_mb_s", data_mb_s),
    ("call_mean_us", call_mean_us),
    ("call_tail_us", call_tail_us),
    ("session_tail_us", session_tail_us),
];

/// The benchmark's description, the one home of every metric's bound.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The regression bound BENCHMARK.json gives end-to-end metric `name`.
fn bound(name: &str) -> Option<f64> {
    let flat: String = BENCHMARK_JSON.split_whitespace().collect();
    let entry = &flat[flat.find(&format!("\"name\":\"{name}\""))?..];
    let entry = &entry[..entry.find('}')?];
    let value = &entry[entry.find("\"bound\":")? + "\"bound\":".len()..];
    value.split(',').next()?.parse().ok()
}

/// What one pass of a workload measured.
pub struct Pass {
    /// Host seconds to build the rig and generate and warm its inputs.
    pub setup_s: f64,
    /// Host seconds of the measured phase (the workload's launches).
    pub host_s: f64,
    /// Process CPU seconds used during the measured phase.
    pub cpu_s: f64,
    /// Virtual makespan of the measured phase.
    pub makespan_ns: u64,
    /// Every call, session and mismatch the blocks recorded.
    pub log: CallLog,
    /// Per-layer counters.
    pub sheet: Sheet,
    /// The stage ledger of the pass's spans (empty unless traced).
    pub ledger: Ledger,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !["seq_read", "write_back", "tenant_mix", "fleet_scan"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_pass(workload: &str, seed: u64, index: u64, traced: bool) -> Pass {
    // Pass `index` draws its inputs and its dispatch order from the seed:
    // a run's medians then average over many inputs, and a seed always
    // makes the same sequence of passes. The traced twin of a pass sees
    // the same inputs.
    let inputs = rig::mix(seed ^ rig::mix(index));
    let launch_seed = rig::mix(inputs);
    match workload {
        "seq_read" => seq_read::pass(inputs, launch_seed, traced),
        "write_back" => write_back::pass(inputs, launch_seed, traced),
        "tenant_mix" => tenant_mix::pass(inputs, launch_seed, traced),
        _ => fleet_scan::pass(inputs, launch_seed, traced),
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Sample count behind a latency, for the human-readable table.
    samples: Option<usize>,
}

impl Metric {
    fn with_samples(self, n: usize) -> Self {
        Metric {
            samples: Some(n),
            ..self
        }
    }
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples: None,
    }
}

fn latency(name: &str, xs: &[u64], q: f64) -> Metric {
    metric(name, us(quantile(xs, q)), "us").with_samples(xs.len())
}

fn pooled(passes: &[Pass], f: impl Fn(&CallLog) -> Vec<u64>) -> Vec<u64> {
    passes.iter().flat_map(|p| f(&p.log)).collect()
}

/// The median over passes of a per-pass statistic.
fn median_of(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

fn per_pass(name: &str, unit: &'static str, passes: &[Pass], f: impl Fn(&Pass) -> f64) -> Metric {
    metric(name, median_of(passes, f), unit)
}

/// Share of the slowest samples the `*_tail_us` metrics average.
const TAIL: f64 = 0.01;

fn data_mb_s(p: &Pass) -> f64 {
    throughput_mb_s(p.log.bytes, p.makespan_ns)
}

/// Virtual latencies of every g* call of a pass.
fn calls(p: &Pass) -> Vec<u64> {
    p.log.latencies(|_| true)
}

fn call_mean_us(p: &Pass) -> f64 {
    let all = calls(p);
    ratio(all.iter().map(|&v| v as f64).sum(), all.len() as f64) / 1e3
}

fn call_tail_us(p: &Pass) -> f64 {
    tail_mean(&calls(p), TAIL) / 1e3
}

fn session_tail_us(p: &Pass) -> f64 {
    tail_mean(&p.log.sessions, TAIL) / 1e3
}

/// Summed virtual latency of a pass's successful g* calls that mint a
/// trace root (`gread`, `gwrite`, `gmmap`, `gfsync`), timed from outside.
fn rooted_call_ns(p: &Pass) -> u64 {
    [Api::Read, Api::Write, Api::Mmap, Api::Fsync]
        .into_iter()
        .flat_map(|a| p.log.calls[a as usize].iter().map(|&(v, _)| v))
        .filter(|&v| v != FAILED)
        .sum()
}

fn end_to_end(passes: &[Pass], peak_rss_mb: f64) -> Vec<Metric> {
    let n_calls = passes.iter().map(|p| p.log.attempted() as usize).sum();
    let sessions = passes.iter().map(|p| p.log.sessions.len()).sum();
    vec![
        per_pass("data_mb_s", "MB/s", passes, data_mb_s),
        per_pass("call_mean_us", "us", passes, call_mean_us).with_samples(n_calls),
        per_pass("call_tail_us", "us", passes, call_tail_us).with_samples(n_calls),
        per_pass("session_tail_us", "us", passes, session_tail_us).with_samples(sessions),
        per_pass("host_s", "s", passes, |p| p.host_s),
        per_pass("setup_s", "s", passes, |p| p.setup_s),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

fn per_layer(plain: &[Pass], traced: &[Pass]) -> Vec<Metric> {
    let mut out = Vec::new();
    for api in Api::ALL {
        let calls: Vec<(u64, u64)> = plain
            .iter()
            .flat_map(|p| p.log.calls[api as usize].iter().copied())
            .collect();
        let n = calls.len() as f64;
        let virt: f64 = calls.iter().map(|&(v, _)| v as f64).sum();
        let host: f64 = calls.iter().map(|&(_, h)| h as f64).sum();
        let name = api.name();
        out.push(metric(
            format!("api.{name}.n"),
            n / plain.len() as f64,
            "count",
        ));
        out.push(metric(
            format!("api.{name}.virt_us"),
            ratio(virt, n) / 1e3,
            "us",
        ));
        out.push(metric(
            format!("api.{name}.host_us"),
            ratio(host, n) / 1e3,
            "us",
        ));
    }
    let data = pooled(plain, |l| l.latencies(Api::is_data));
    out.push(latency("tail.op_p50_us", &data, 0.50));
    out.push(latency("tail.op_p99_us", &data, 0.99));
    out.push(latency(
        "tail.session_p99_us",
        &pooled(plain, |l| l.sessions.clone()),
        0.99,
    ));
    let virt_of = |api: Api| {
        pooled(plain, |l| {
            l.calls[api as usize].iter().map(|c| c.0).collect()
        })
    };
    out.push(latency("api.write.virt_p99_us", &virt_of(Api::Write), 0.99));
    out.push(latency("api.fsync.virt_p50_us", &virt_of(Api::Fsync), 0.50));
    out.push(latency(
        "tenant.lookup_p99_us",
        &pooled(plain, |l| l.lookups.clone()),
        0.99,
    ));

    let names: Vec<&'static str> = plain[0].sheet.keys().copied().collect();
    for name in names {
        let unit = if name.ends_with("_ratio") || name.ends_with("_imbalance") {
            "ratio"
        } else {
            "count"
        };
        out.push(per_pass(name, unit, plain, |p| {
            p.sheet.get(name).copied().unwrap_or(0.0)
        }));
    }

    let stage = |s: &str| {
        median_of(traced, |p| {
            p.ledger.stage_ns.get(s).copied().unwrap_or(0) as f64 / 1e3
        })
    };
    for s in [
        "pin_miss",
        "pread",
        "dma",
        "gather",
        "pwrite",
        "flush_pass",
        "other",
    ] {
        out.push(metric(format!("stage.{s}_us"), stage(s), "us"));
    }
    out.push(metric("rpc.queue_us", stage("rpc"), "us"));
    out.push(metric("daemon.serve_us", stage("serve"), "us"));
    out.push(metric("remote.net_us", stage("net"), "us"));
    out.push(metric("remote.server_us", stage("server"), "us"));
    out.push(metric(
        "ledger.recon_err",
        traced
            .iter()
            .map(|p| p.ledger.recon_err(rooted_call_ns(p)))
            .fold(0.0, f64::max),
        "ratio",
    ));

    let attempted: u64 = plain.iter().map(|p| p.log.attempted()).sum();
    let failed: u64 = plain.iter().map(|p| p.log.failed).sum();
    out.push(latency(
        "load.late_p99_us",
        &pooled(plain, |l| l.late.clone()),
        0.99,
    ));
    out.push(metric(
        "load.fail_ratio",
        ratio(failed as f64, attempted as f64),
        "ratio",
    ));
    let (cpu, wall): (f64, f64) = plain
        .iter()
        .fold((0.0, 0.0), |(c, w), p| (c + p.cpu_s, w + p.host_s));
    out.push(metric("host.cpu_per_wall", ratio(cpu, wall), "ratio"));
    out.push(metric(
        "obs.trace_overhead",
        ratio(
            median_of(traced, |p| p.host_s),
            median_of(plain, |p| p.host_s),
        ),
        "ratio",
    ));
    out.push(metric(
        "obs.spans",
        median_of(traced, |p| p.ledger.spans as f64),
        "count",
    ));
    out
}

/// Traced passes must see the virtual timeline the untraced ones saw.
fn trace_disagreement(plain: &[Pass], traced: &[Pass]) -> Option<String> {
    for (name, f) in TRACE_AGREEMENT {
        let Some(bound) = bound(name) else {
            return Some(format!("BENCHMARK.json gives no bound for {name}"));
        };
        let (a, b) = (median_of(plain, f), median_of(traced, f));
        if (a - b).abs() > bound * a {
            return Some(format!(
                "traced {name} {b} strays from untraced {a} by more than {bound}"
            ));
        }
    }
    None
}

/// Each traced pass's ledger must be well formed, and what it charged to
/// the g*-call roots must equal the latency those calls took as timed
/// from outside them.
fn ledger_problems(traced: &[Pass]) -> Vec<String> {
    let mut out = Vec::new();
    for p in traced {
        if let Some(d) = &p.ledger.defect {
            out.push(format!("malformed trace: {d}"));
        }
        let timed = rooted_call_ns(p);
        if p.ledger.call_ns != timed {
            out.push(format!(
                "the ledger charged {} ns to g* calls timed at {timed} ns",
                p.ledger.call_ns
            ));
        }
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <seq_read|write_back|tenant_mix|fleet_scan> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let t0 = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut index = 0;
    let mut peak = 0.0;
    while plain.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < args.seconds {
        plain.push(run_pass(&args.workload, args.seed, index, false));
        if index == 0 {
            // Later passes reuse (and fragment) the allocator's memory, so
            // the process peak after them says more about the allocator
            // than about one pass of the workload.
            peak = rig::peak_rss_mb();
        }
        if args.trace {
            traced.push(run_pass(&args.workload, args.seed, index, true));
        }
        index += 1;
    }

    let all = || plain.iter().chain(&traced);
    let attempted: u64 = all().map(|p| p.log.attempted()).sum();
    let failed: u64 = all().map(|p| p.log.failed).sum();
    let mut problems: Vec<String> = all().filter_map(|p| p.log.mismatch.clone()).collect();
    if args.trace {
        problems.extend(trace_disagreement(&plain, &traced));
        problems.extend(ledger_problems(&traced));
    }
    problems.sort();
    problems.dedup();
    let correct = problems.is_empty() && failed == 0;
    let metrics = if args.trace {
        per_layer(&plain, &traced)
    } else {
        end_to_end(&plain, peak)
    };

    println!(
        "perfbench workload={} seed={} passes={} trace={}",
        args.workload,
        args.seed,
        plain.len(),
        u8::from(args.trace)
    );
    for m in &metrics {
        let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {:<28} {:>16.4} {}{n}", m.name, m.value, m.unit);
    }
    for p in &problems {
        println!("  FAILED CHECK: {p}");
    }
    let mut json = String::new();
    for m in &metrics {
        if !json.is_empty() {
            json.push(',');
        }
        let _ = write!(
            json,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{json}}}}}"
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_agreement_metric_has_its_bound() {
        for (name, _) in TRACE_AGREEMENT {
            let b = bound(name).unwrap_or_else(|| panic!("no bound for {name}"));
            assert!(b > 0.0 && b <= 0.25, "{name}: {b}");
        }
        assert_eq!(bound("no_such_metric"), None);
    }
}
