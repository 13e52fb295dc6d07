//! Unified observability for the ALICE flow: hierarchical spans, a
//! process-wide metric registry, and two exporters.
//!
//! The flow's instrumentation used to be siloed — `PhaseTimings` in core,
//! `SweepStats` in cec, `ReadStats` in store, conflict counts inside
//! the SAT solver — with no single answer to "where did this run's
//! wall-clock go?". This crate is the shared layer underneath all of
//! them:
//!
//! * **Spans** ([`span()`], [`span!`]): RAII guards that record one
//!   Chrome-trace "complete" event per scope, one lane per worker
//!   thread. Load the exported file in [Perfetto](https://ui.perfetto.dev)
//!   (or `chrome://tracing`) for a flame view of a run.
//! * **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]): `static`
//!   atomics that self-register into a global list on first touch and
//!   export as a Prometheus-style text snapshot
//!   ([`snapshot_prometheus`]).
//! * **Validation** ([`validate_chrome_trace`]): a dependency-free
//!   JSON parser plus structural checks (well-nested per thread) used
//!   by the test suite and the CI `trace_check` gate.
//!
//! Everything is off by default. Until [`enable_tracing`] /
//! [`enable_metrics`] is called, every span and every counter update
//! costs exactly one relaxed atomic load and one branch — no
//! allocation, no time stamp, no lock — so uninstrumented runs stay
//! bench-identical.
//!
//! ```
//! use alice_obs as obs;
//!
//! static SOLVES: obs::Counter =
//!     obs::Counter::new("alice_demo_solves_total", "Demo solve count");
//!
//! obs::enable_tracing();
//! obs::enable_metrics();
//! {
//!     obs::span!("demo.solve");
//!     SOLVES.inc();
//! }
//! let trace = obs::take_trace();
//! assert_eq!(trace.events.len(), 1);
//! assert_eq!(trace.events[0].name, "demo.solve");
//! let summary = obs::validate_chrome_trace(&trace.to_chrome_json()).unwrap();
//! assert!(summary.has_span("demo.solve"));
//! assert!(obs::snapshot_prometheus().contains("alice_demo_solves_total"));
//! obs::disable_tracing();
//! obs::disable_metrics();
//! ```

mod json;
mod metrics;
mod span;
mod validate;

pub use json::Json;
pub use metrics::{
    disable_metrics, enable_metrics, metrics_enabled, reset_metrics, snapshot_prometheus, Counter,
    Gauge, Histogram,
};
pub use span::{
    disable_tracing, enable_tracing, set_thread_name, span, span_with, take_trace,
    trace_event_count, tracing_enabled, write_chrome_trace, SpanGuard, Trace, TraceEvent,
};
pub use validate::{validate_chrome_trace, TraceSummary};

/// Opens a named span for the rest of the enclosing scope.
///
/// `span!("stage.select")` expands to a hidden [`SpanGuard`] binding
/// that records one trace event when the scope ends. A second
/// `format!`-style argument list attaches a lazily-built detail string
/// (only evaluated while tracing is enabled):
///
/// ```
/// # use alice_obs::span;
/// span!("stage.select");
/// span!("store.flush.shard", "shard {}", 3);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _alice_obs_span = $crate::span($name);
    };
    ($name:expr, $($fmt:tt)+) => {
        let _alice_obs_span = $crate::span_with($name, || format!($($fmt)+));
    };
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::{Mutex, MutexGuard};

    /// Serializes tests that toggle the global tracing/metrics
    /// switches or drain the shared event buffer.
    pub(crate) fn obs_test_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}
