//! Outside-in per-layer measurement: the benchmark's own spans around
//! each public call, self-time arithmetic over them, counter parsing from
//! the program's Prometheus snapshot, and the table of every metric the
//! benchmark prints.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover. Only the benchmark's spans (`bench.*`)
//! take part; the program's own spans are recorded in the same trace but
//! neither counted nor subtracted.

use alice_obs::{SpanGuard, TraceEvent};
use std::collections::BTreeMap;

/// Prefix of every span the benchmark records itself.
pub const BENCH_PREFIX: &str = "bench.";

/// End-to-end metrics `(name, unit)`, printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics `(name, unit)`, printed by traced runs. Times are
/// self seconds of one set-up plus one pass; counts cover the same work.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("verilog.parse_s", "s"),
    ("filter.s", "s"),
    ("filter.candidates", "count"),
    ("cluster.s", "s"),
    ("cluster.clusters", "count"),
    ("select.s", "s"),
    ("select.valid", "count"),
    ("select.failed", "count"),
    ("select.solutions", "count"),
    ("netlist.map_s", "s"),
    ("netlist.luts", "count"),
    ("fabric.characterize_s", "s"),
    ("fabric.characterizations", "count"),
    ("db.hits", "count"),
    ("db.disk_hits", "count"),
    ("db.misses", "count"),
    ("db.hit_ratio", "ratio"),
    ("redact.s", "s"),
    ("redact.config_bits", "count"),
    ("verify.s", "s"),
    ("verify.key_solve_s", "s"),
    ("verify.keys", "count"),
    ("cec.build_s", "s"),
    ("cec.prove_s", "s"),
    ("cec.cnf_vars", "count"),
    ("cec.cnf_clauses", "count"),
    ("cec.sweep_candidates", "count"),
    ("cec.sweep_merged", "count"),
    ("cec.sweep_merge_ratio", "ratio"),
    ("cec.lemma_hits", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.props_per_s", "1/s"),
    ("sat.props_per_conflict", "ratio"),
    ("sat.assumption_solves", "count"),
    ("sat.restarts", "count"),
    ("sat.learned_kept", "count"),
    ("sat.learned_dropped", "count"),
    ("store.open_s", "s"),
    ("store.flush_s", "s"),
    ("store.gets", "count"),
    ("store.mapped_gets", "count"),
    ("store.bytes_copied", "B"),
    ("store.records", "count"),
    ("store.bytes", "B"),
    ("store.shard_flushes", "count"),
    ("trace.overhead_frac", "frac"),
];

/// The unit of a printed metric, if it is one of the tables' metrics.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Whether `name` is a legal metric name: it starts with a letter or a
/// digit and uses only letters, digits, `_`, `.` and `-`, at most 64 of
/// them.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The op identifier shared by every benchmark span of one op.
#[derive(Debug, Clone)]
pub struct Spans {
    op: String,
}

impl Spans {
    /// Spans tagged with `op` (design and config of the op).
    pub fn new(op: impl Into<String>) -> Self {
        Spans { op: op.into() }
    }

    /// The op's own span.
    pub fn op(&self) -> SpanGuard {
        self.layer("bench.op")
    }

    /// A span around one public call.
    pub fn layer(&self, name: &'static str) -> SpanGuard {
        alice_obs::span_with(name, || self.op.clone())
    }

    /// A span around one pipeline stage, named after the stage.
    pub fn stage(&self, stage: &str) -> SpanGuard {
        self.layer(match stage {
            "filter" => "bench.filter",
            "cluster" => "bench.cluster",
            "select" => "bench.select",
            "redact" => "bench.redact",
            _ => "bench.verify",
        })
    }
}

/// Self nanoseconds per benchmark span name.
///
/// Spans are grouped by lane; within a lane, a span is a child of the
/// innermost earlier span whose interval contains its start. Each span's
/// self time is its duration minus the covered part of its direct
/// children. Non-benchmark spans are ignored.
pub fn self_times(events: &[TraceEvent]) -> BTreeMap<&'static str, u64> {
    let mut ours: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.name.starts_with(BENCH_PREFIX))
        .collect();
    ours.sort_by(|a, b| {
        (a.tid, a.start_ns)
            .cmp(&(b.tid, b.start_ns))
            .then(b.dur_ns.cmp(&a.dur_ns))
    });
    let mut own: Vec<u64> = ours.iter().map(|e| e.dur_ns).collect();
    // (index, end) of the open ancestors in the current lane.
    let mut stack: Vec<(usize, u64)> = Vec::new();
    for (i, e) in ours.iter().enumerate() {
        if i > 0 && ours[i - 1].tid != e.tid {
            stack.clear();
        }
        while stack.last().is_some_and(|&(_, end)| end <= e.start_ns) {
            stack.pop();
        }
        let end = e.start_ns + e.dur_ns;
        if let Some(&(parent, parent_end)) = stack.last() {
            let covered = end.min(parent_end) - e.start_ns;
            own[parent] = own[parent].saturating_sub(covered);
        }
        stack.push((i, end));
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (e, ns) in ours.iter().zip(own) {
        *out.entry(e.name).or_default() += ns;
    }
    out
}

/// Counter values from a Prometheus text snapshot, by sample name
/// (histogram series keep their `_sum`/`_count`/`_bucket{…}` names).
pub fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.trim().rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Median of `xs` (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, tid: u32, start_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            name,
            detail: None,
            start_ns,
            dur_ns,
            tid,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children_per_lane() {
        let events = [
            // Lane 0: an op with two sibling stages, one holding a nested
            // call, and a program span that must be ignored.
            ev("bench.op", 0, 0, 100),
            ev("bench.filter", 0, 10, 20),
            ev("bench.select", 0, 40, 50),
            ev("bench.map", 0, 50, 15),
            ev("stage.select", 0, 41, 48),
            // Lane 1 overlaps lane 0 in time but is independent.
            ev("bench.op", 1, 5, 30),
            ev("bench.verify", 1, 5, 30),
            // A later sibling op on lane 0.
            ev("bench.op", 0, 200, 10),
        ];
        let t = self_times(&events);
        // Lane 0: 100 - 20 - 50 and 10; lane 1's op is covered by its child.
        assert_eq!(t["bench.op"], 30 + 10);
        assert_eq!(t["bench.filter"], 20);
        assert_eq!(t["bench.select"], 50 - 15);
        assert_eq!(t["bench.map"], 15);
        assert_eq!(t["bench.verify"], 30);
        assert!(!t.contains_key("stage.select"));
        let total: u64 = t.values().sum();
        assert_eq!(total, 100 + 30 + 10, "self times partition the roots");
    }

    #[test]
    fn prometheus_counters_parse() {
        let snap = "\
# HELP alice_sat_conflicts_total Conflicts
# TYPE alice_sat_conflicts_total counter
alice_sat_conflicts_total 1234
# TYPE alice_store_shard_flushes_total counter
alice_store_shard_flushes_total 0
# TYPE alice_stage_duration_us histogram
alice_stage_duration_us_bucket{le=\"1\"} 0
alice_stage_duration_us_bucket{le=\"+Inf\"} 5
alice_stage_duration_us_sum 98765
alice_stage_duration_us_count 5
";
        let c = parse_prometheus(snap);
        assert_eq!(c["alice_sat_conflicts_total"], 1234.0);
        assert_eq!(c["alice_store_shard_flushes_total"], 0.0);
        assert_eq!(c["alice_stage_duration_us_sum"], 98765.0);
        assert_eq!(c["alice_stage_duration_us_bucket{le=\"+Inf\"}"], 5.0);
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn metric_names_are_legal_unique_and_have_units() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} listed twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name}: unit {unit}"
            );
        }
        assert!(!valid_name("cec build"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name(""));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
