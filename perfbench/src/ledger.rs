//! The per-stage virtual-time ledger of a traced pass.
//!
//! Every trace (one g* call, or one background flush pass) is a causal
//! tree of spans. Its root's interval is cut at every span boundary and
//! each elementary slice is charged to the *deepest* span covering it
//! (ties: the later-starting, then the higher-id span).
//!
//! Span and trace ids are unique only within one tracer, and every
//! `GpufsHost` has its own, so a ledger is built per tracer
//! ([`Ledger::of`]) and ledgers of several hosts are summed
//! ([`Ledger::add`]). A span set that breaks the tree shape — a trace
//! with two roots, or a span id used twice, as a merge of two tracers'
//! spans would give — is recorded as a defect, not charged.
//!
//! The slices of a tree add up to its root's interval, so the ledger
//! cannot check itself. [`Ledger::recon_err`] instead compares what it
//! charged to the g*-call roots with the virtual latencies the benchmark
//! timed from outside the calls.

use std::collections::{BTreeMap, HashMap, HashSet};

use obs::SpanRecord;

/// Virtual time per stage, summed over every root of a pass.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Nanoseconds charged to each stage.
    pub stage_ns: BTreeMap<&'static str, u64>,
    /// Nanoseconds charged within the roots of g* calls (every root but
    /// the flusher's `flush_pass`).
    pub call_ns: u64,
    /// Spans collected.
    pub spans: u64,
    /// The first tree-shape defect seen, if any.
    pub defect: Option<String>,
}

impl Ledger {
    /// Partition every trace in `spans`, the spans of one tracer.
    pub fn of(spans: &[SpanRecord]) -> Self {
        let mut ledger = Ledger {
            spans: spans.len() as u64,
            ..Ledger::default()
        };
        let mut ids = HashSet::new();
        if let Some(s) = spans.iter().find(|s| !ids.insert(s.span)) {
            ledger.defect = Some(format!("span id {} used twice", s.span));
            return ledger;
        }
        let mut traces: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
        for s in spans {
            traces.entry(s.trace).or_default().push(s);
        }
        for (id, tree) in &traces {
            let mut roots = tree.iter().filter(|s| s.parent == 0);
            match (roots.next(), roots.next()) {
                (Some(root), None) => ledger.charge(root, tree),
                // A flush pass still running when the spans were
                // collected has emitted children but not its root.
                (None, _) => {}
                (Some(_), Some(_)) => {
                    ledger.defect = Some(format!("trace {id} has more than one root"));
                }
            }
        }
        ledger
    }

    /// Fold the ledger of another tracer into this one.
    pub fn add(&mut self, other: Ledger) {
        for (stage, ns) in other.stage_ns {
            *self.stage_ns.entry(stage).or_default() += ns;
        }
        self.call_ns += other.call_ns;
        self.spans += other.spans;
        if self.defect.is_none() {
            self.defect = other.defect;
        }
    }

    /// `|charged − timed| / timed`, where `timed` is the summed virtual
    /// latency of the traced g* calls as timed from outside them (0 when
    /// both are 0).
    pub fn recon_err(&self, timed_ns: u64) -> f64 {
        match (self.call_ns, timed_ns) {
            (0, 0) => 0.0,
            (_, 0) => 1.0,
            (c, t) => c.abs_diff(t) as f64 / t as f64,
        }
    }

    fn charge(&mut self, root: &SpanRecord, tree: &[&SpanRecord]) {
        let parent_of: HashMap<u64, u64> = tree.iter().map(|s| (s.span, s.parent)).collect();
        let depth = |s: &SpanRecord| {
            let (mut d, mut p) = (0u32, s.parent);
            while p != 0 {
                d += 1;
                p = parent_of.get(&p).copied().unwrap_or(0);
            }
            d
        };
        let depths: Vec<u32> = tree.iter().map(|s| depth(s)).collect();
        let mut cuts: Vec<u64> = tree
            .iter()
            .flat_map(|s| [s.start, s.end])
            .map(|t| t.clamp(root.start, root.end))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut charged = 0;
        for w in cuts.windows(2) {
            let (a, b) = (w[0], w[1]);
            let deepest = tree
                .iter()
                .zip(&depths)
                .filter(|(s, _)| s.start <= a && s.end >= b)
                .max_by_key(|(s, &d)| (d, s.start, s.span))
                .map_or(root, |(s, _)| *s);
            *self.stage_ns.entry(stage_of(deepest)).or_default() += b - a;
            charged += b - a;
        }
        if root.name != "flush_pass" {
            self.call_ns += charged;
        }
    }
}

fn stage_of(s: &SpanRecord) -> &'static str {
    match s.name {
        "flush_pass" => "flush_pass",
        "pin_miss" | "pread" | "dma" | "gather" | "pwrite" => s.name,
        "net_roundtrip" => "net",
        n if n.starts_with("rpc:") => "rpc",
        n if n.starts_with("serve:") => "serve",
        n if n.starts_with("server:") => "server",
        _ => "other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, span: u64, parent: u64, name: &'static str, s: u64, e: u64) -> SpanRecord {
        SpanRecord {
            trace,
            span,
            parent,
            name,
            start: s,
            end: e,
            attrs: Vec::new(),
        }
    }

    fn fig4_read() -> Vec<SpanRecord> {
        vec![
            span(1, 1, 0, "gmmap", 0, 100),
            span(1, 2, 1, "pin_miss", 10, 90),
            span(1, 3, 2, "rpc:ReadPages", 20, 80),
            span(1, 4, 3, "serve:ReadPages", 30, 70),
            span(1, 5, 4, "pread", 30, 50),
            span(1, 6, 4, "dma", 45, 75),
            span(2, 7, 0, "flush_pass", 0, 40),
        ]
    }

    #[test]
    fn deepest_span_partition() {
        let l = Ledger::of(&fig4_read());
        assert_eq!(l.defect, None);
        let g = |k| l.stage_ns.get(k).copied().unwrap_or(0);
        assert_eq!(g("other"), 20);
        assert_eq!(g("pin_miss"), 20);
        assert_eq!(g("rpc"), 15);
        // dma starts later than pread, so it owns their overlap.
        assert_eq!(g("pread"), 15);
        assert_eq!(g("dma"), 30);
        assert_eq!(g("serve"), 0);
        assert_eq!(g("flush_pass"), 40);
        // Only the gmmap root is a g* call.
        assert_eq!(l.call_ns, 100);
        assert_eq!(l.recon_err(100), 0.0);
        assert_eq!(l.recon_err(80), 0.25);
    }

    #[test]
    fn tracers_with_the_same_ids_are_charged_apart() {
        // Two hosts' tracers both number their ids from 1.
        let host_a = fig4_read();
        let host_b = vec![
            span(1, 1, 0, "gread", 500, 560),
            span(1, 2, 1, "net_roundtrip", 510, 550),
            span(1, 3, 2, "server:ReadPages", 520, 540),
        ];
        let mut sum = Ledger::of(&host_a);
        sum.add(Ledger::of(&host_b));
        assert_eq!(sum.defect, None);
        assert_eq!(sum.spans, 10);
        assert_eq!(sum.call_ns, 160);
        let g = |k| sum.stage_ns.get(k).copied().unwrap_or(0);
        assert_eq!(g("other"), 40);
        assert_eq!(g("net"), 20);
        assert_eq!(g("server"), 20);
        assert_eq!(sum.stage_ns.values().sum::<u64>(), 200);

        // Pooling them into one set is caught, not charged.
        let pooled: Vec<SpanRecord> = host_a.into_iter().chain(host_b).collect();
        let bad = Ledger::of(&pooled);
        assert!(bad.defect.is_some());
        assert_eq!(bad.call_ns, 0);
    }

    #[test]
    fn a_second_root_in_one_trace_is_a_defect() {
        let spans = vec![span(1, 1, 0, "gread", 0, 10), span(1, 2, 0, "gread", 5, 30)];
        assert!(Ledger::of(&spans).defect.is_some());
    }
}
