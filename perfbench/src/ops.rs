//! One benchmark op — a flow, a verify, or an exploration cell — driven
//! through the program's public calls, and the record that checks its
//! output.
//!
//! A flow runs [`run_stage`] over [`Flow::stages`], exactly what
//! [`Flow::run`](alice_core::flow::Flow::run) does, so the benchmark can
//! wrap each stage in its own span. Records are plain text lines: the
//! Table-2 report fields plus FNV-1a digests of the emitted Verilog and
//! config streams for a flow, the verdict and per-key corrupted-bit counts
//! for a verify. Two runs agree exactly when their record lines match.

use crate::layers::Spans;
use alice_core::cluster::ClusterResult;
use alice_core::config::AliceConfig;
use alice_core::db::{CacheCounts, DesignDb};
use alice_core::design::Design;
use alice_core::filter::FilterResult;
use alice_core::flow::{Flow, FlowReport};
use alice_core::redact::RedactedDesign;
use alice_core::stage::{run_stage, FlowContext, PhaseTimings};
use alice_core::verify::{verify_redaction, VerifyOutcome, VerifyReport};
use alice_core::AliceError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// FNV-1a 64, the digest the repository's golden tests pin.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A design under one configuration: the unit every op runs on.
pub struct Cell {
    /// `DESIGN/cfg` label, also the reference-file key.
    pub label: String,
    pub design: Arc<Design>,
    pub cfg: AliceConfig,
    /// Whether the cell's records are pinned in the reference file.
    pub pinned: bool,
}

/// What a flow op leaves behind.
pub struct FlowOut {
    pub report: FlowReport,
    pub timings: PhaseTimings,
    pub filter: FilterResult,
    pub clusters: ClusterResult,
    /// Clusters the fabric oracle rejected.
    pub selection_failed: usize,
    pub redacted: Option<RedactedDesign>,
}

/// Runs the flow's stages on `cell` against `db`, one benchmark span per
/// stage.
///
/// # Errors
///
/// Returns the first stage's error.
pub fn run_flow(cell: &Cell, db: &DesignDb, spans: &Spans) -> Result<FlowOut, AliceError> {
    let before = db.counts();
    let mut cx = FlowContext::new(&cell.design, &cell.cfg, db);
    let mut timings = PhaseTimings::default();
    for stage in Flow::stages() {
        let _span = spans.stage(stage.name());
        run_stage(stage, &mut cx, &mut timings)?;
    }
    let report = FlowReport::from_timings(&cx, &timings, db.counts().since(before));
    Ok(FlowOut {
        report,
        timings,
        filter: cx.filter.unwrap_or_default(),
        clusters: cx.clusters.unwrap_or_default(),
        selection_failed: cx.selection.map(|s| s.failed.len()).unwrap_or(0),
        redacted: cx.redacted,
    })
}

/// Runs `op`, turning an error or a panic into a failure message.
pub fn guarded<T>(op: impl FnOnce() -> Result<T, AliceError>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(op)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(e.to_string()),
        Err(panic) => Err(panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())),
    }
}

/// The record of a flow: Table-2 fields and output digests.
pub fn flow_record(label: &str, out: &FlowOut) -> String {
    let r = &out.report;
    let sizes: Vec<String> = r.efpga_sizes.iter().map(|s| s.to_string()).collect();
    let mut line = format!(
        "flow {label} inst={} cand={} clus={} valid={} sol={} sizes={} red={}",
        r.instances,
        r.candidates,
        r.clusters,
        r.valid_efpgas,
        r.solutions,
        if sizes.is_empty() {
            "-".to_string()
        } else {
            sizes.join(",")
        },
        r.redacted_modules
    );
    if let Some(rd) = &out.redacted {
        let streams: Vec<u8> = rd
            .efpgas
            .iter()
            .flat_map(|e| {
                e.config_stream
                    .iter()
                    .map(|&b| if b { b'1' } else { b'0' })
                    .chain([b'|'])
            })
            .collect();
        line.push_str(&format!(
            " top={:016x} fabric={:016x} cfg={:016x}",
            fnv(rd.top_asic_verilog().as_bytes()),
            fnv(rd.fabric_verilog.as_bytes()),
            fnv(&streams)
        ));
    }
    line
}

/// Runs `verify_redaction` for a flow's redaction against a fresh db,
/// returning the report and the db's lookup counts.
///
/// # Errors
///
/// Returns the verify error.
pub fn run_verify(
    cell: &Cell,
    redacted: &RedactedDesign,
    spans: &Spans,
) -> Result<(VerifyReport, CacheCounts), AliceError> {
    let db = DesignDb::new();
    let _span = spans.layer("bench.verify");
    let report = verify_redaction(&cell.design, redacted, &cell.cfg, &db)?;
    Ok((report, db.counts()))
}

/// The record of a verify: verdict, compared points, and each wrong key's
/// corrupted-bit count.
pub fn verify_record(label: &str, v: &VerifyReport) -> String {
    let verdict = match &v.outcome {
        VerifyOutcome::Equivalent => "equivalent".to_string(),
        other => other.to_string().replace(' ', "_"),
    };
    let keys: Vec<String> = v
        .wrong_keys
        .iter()
        .map(|k| {
            format!(
                "{}/{}{}",
                k.corrupted,
                k.total,
                if k.complete { "" } else { "?" }
            )
        })
        .collect();
    format!(
        "verify {label} {verdict} points={} keys={}",
        v.diff_points,
        if keys.is_empty() {
            "-".to_string()
        } else {
            keys.join(",")
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_test_vectors() {
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn guarded_turns_panics_and_errors_into_failures() {
        assert_eq!(guarded::<()>(|| panic!("boom")), Err("boom".to_string()));
        let e = guarded::<()>(|| Err(AliceError::Verify("bad".into())));
        assert!(e.unwrap_err().contains("bad"));
        assert_eq!(guarded(|| Ok(3)), Ok(3));
    }
}
