//! # alice-redaction
//!
//! A complete Rust reproduction of **ALICE: An Automatic Design Flow for
//! eFPGA Redaction** (DAC 2022), including every substrate the flow needs:
//! a Verilog frontend, logic synthesis, LUT mapping, an eFPGA fabric model,
//! an ASIC cost model, and a SAT-attack security harness.
//!
//! This crate is a facade that re-exports the workspace crates under one
//! name. See the individual crates for details:
//!
//! * [`verilog`] — Verilog subset parser/printer (PyVerilog substitute)
//! * [`dataflow`] — design graph, output cones, dominator analysis
//! * [`netlist`] — gate-level IR, elaboration, optimization, LUT mapping
//! * [`fabric`] — eFPGA architecture, packing, sizing, fabric Verilog and
//!   its configuration stream (the bitstream)
//! * [`asic`] — standard-cell cost model and floorplanning
//! * [`attacks`] — CDCL SAT solver and oracle-guided SAT attack
//! * [`obs`] — spans, metrics, and trace/metrics exporters (the
//!   observability layer every crate above reports into)
//! * [`cec`] — SAT-based combinational equivalence checking (miter,
//!   bitstream binding, wrong-key corruptibility)
//! * [`store`] — persistent content-addressed artifact store (cross-
//!   process characterization + CEC proof caching)
//! * [`core`] — the ALICE flow itself (filtering, clustering, selection)
//! * [`benchmarks`] — the DAC'22 benchmark suite (Table 1)
//!
//! # Quickstart
//!
//! ```
//! use alice_redaction::core::config::AliceConfig;
//! use alice_redaction::core::flow::Flow;
//! use alice_redaction::benchmarks::gcd;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bench = gcd::benchmark();
//! let design = bench.design()?;
//! let config = bench.config(AliceConfig::cfg1()); // 64 I/O pins, ≤2 eFPGAs
//! let outcome = Flow::new(config).run(&design)?;
//! assert!(outcome.redacted.is_some());
//! # Ok(())
//! # }
//! ```

pub use alice_asic as asic;
pub use alice_attacks as attacks;
pub use alice_benchmarks as benchmarks;
pub use alice_cec as cec;
pub use alice_core as core;
pub use alice_dataflow as dataflow;
pub use alice_fabric as fabric;
pub use alice_netlist as netlist;
pub use alice_obs as obs;
pub use alice_store as store;
pub use alice_verilog as verilog;
