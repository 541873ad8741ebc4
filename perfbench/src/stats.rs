//! Sample bookkeeping: per-call timings recorded from outside the g*
//! API, and the order statistics the report is built from.

use std::time::Instant;

use gpufs::GpufsResult;
use gpusim::BlockCtx;

/// The g* calls the benchmark times, one sample list each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Api {
    Open,
    Close,
    Read,
    Write,
    Mmap,
    Fsync,
}

impl Api {
    pub const ALL: [Api; 6] = [
        Api::Open,
        Api::Close,
        Api::Read,
        Api::Write,
        Api::Mmap,
        Api::Fsync,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Api::Open => "open",
            Api::Close => "close",
            Api::Read => "read",
            Api::Write => "write",
            Api::Mmap => "mmap",
            Api::Fsync => "fsync",
        }
    }

    /// Whether the call moves user data.
    pub fn is_data(self) -> bool {
        matches!(self, Api::Read | Api::Write | Api::Mmap)
    }
}

/// Latency charged to a failed call: it misses every latency limit.
pub const FAILED: u64 = u64::MAX;

/// What the threadblocks of one pass observed, merged after the launch.
#[derive(Debug, Default)]
pub struct CallLog {
    /// Per [`Api`] (in [`Api::ALL`] order): `(virtual ns, host ns)` of
    /// every call; a failed call has virtual latency [`FAILED`].
    pub calls: [Vec<(u64, u64)>; 6],
    /// Calls that returned an error.
    pub failed: u64,
    /// User bytes moved by data calls.
    pub bytes: u64,
    /// Virtual latency of each session (open-loop: from its scheduled
    /// arrival; closed-loop: from the block's start) to its close.
    pub sessions: Vec<u64>,
    /// Data-call latencies of the point-lookup tenant (tenant_mix only).
    pub lookups: Vec<u64>,
    /// How late each open-loop session started after its arrival.
    pub late: Vec<u64>,
    /// First output mismatch seen, if any.
    pub mismatch: Option<String>,
}

impl CallLog {
    /// Run one g* call, timing it on both clocks from outside; returns
    /// the call's result and its virtual latency.
    pub fn time<'g, T>(
        &mut self,
        api: Api,
        blk: &mut BlockCtx<'g>,
        call: impl FnOnce(&mut BlockCtx<'g>) -> GpufsResult<T>,
    ) -> (GpufsResult<T>, u64) {
        let (v0, h0) = (blk.now(), Instant::now());
        let res = call(blk);
        let host = h0.elapsed().as_nanos() as u64;
        let virt = if res.is_ok() {
            blk.now() - v0
        } else {
            self.failed += 1;
            FAILED
        };
        self.calls[api as usize].push((virt, host));
        (res, virt)
    }

    /// Record a mismatch (the first one wins).
    pub fn mismatch(&mut self, what: impl FnOnce() -> String) {
        if self.mismatch.is_none() {
            self.mismatch = Some(what());
        }
    }

    /// Fold `other` into this log.
    pub fn merge(&mut self, other: CallLog) {
        for (mine, theirs) in self.calls.iter_mut().zip(other.calls) {
            mine.extend(theirs);
        }
        self.failed += other.failed;
        self.bytes += other.bytes;
        self.sessions.extend(other.sessions);
        self.lookups.extend(other.lookups);
        self.late.extend(other.late);
        if self.mismatch.is_none() {
            self.mismatch = other.mismatch;
        }
    }

    /// Calls attempted, of every kind.
    pub fn attempted(&self) -> u64 {
        self.calls.iter().map(|c| c.len() as u64).sum()
    }

    /// Virtual latencies of the calls `pick` selects.
    pub fn latencies(&self, pick: impl Fn(Api) -> bool) -> Vec<u64> {
        Api::ALL
            .into_iter()
            .filter(|&a| pick(a))
            .flat_map(|a| self.calls[a as usize].iter().map(|&(v, _)| v))
            .collect()
    }
}

/// Exact nearest-rank quantile `q` of `xs` (0 for an empty sample).
pub fn quantile(xs: &[u64], q: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Mean of the slowest `share` of `xs` (0 for an empty sample): a tail
/// statistic that, unlike a percentile, does not stick to one of the few
/// exact latencies a modelled clock produces.
pub fn tail_mean(xs: &[u64], share: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let k = ((share * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[v.len() - k..].iter().map(|&x| x as f64).sum::<f64>() / k as f64
}

/// Median of `xs` (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nanoseconds → microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&xs, 0.5), 50);
        assert_eq!(quantile(&xs, 0.99), 99);
        assert_eq!(quantile(&xs, 1.0), 100);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn tail_means() {
        let xs: Vec<u64> = (1..=200).collect();
        assert_eq!(tail_mean(&xs, 0.01), 199.5);
        assert_eq!(tail_mean(&[5], 0.01), 5.0);
        assert_eq!(tail_mean(&[], 0.01), 0.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
