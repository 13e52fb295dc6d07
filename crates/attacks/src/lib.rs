//! Security evaluation substrate: a from-scratch CDCL SAT solver and the
//! oracle-guided SAT attack of Subramanyan et al. (\[16\] in the paper),
//! specialized to eFPGA-redacted LUT networks.
//!
//! The paper's threat model (§2.1) assumes an attacker with the chip
//! design, the isolated fabric, and a fully-scanned unlocked oracle. Here:
//!
//! * [`solver`] — the CDCL solver (watched literals, 1UIP learning,
//!   VSIDS, Luby restarts, LBD-scored clause-database reduction) that
//!   every SAT consumer in the flow (CEC, verify, attack) calls directly,
//! * [`oracle`] — software oracle over a mapped LUT network with scan
//!   access (DFFs as pseudo-I/O),
//! * [`attack`] — the DIP-driven attack loop recovering the bitstream,
//!   with budgets that turn "too expensive" into a resilience signal.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "module m(input wire [2:0] a, output wire y); assign y = &a; endmodule";
//! let f = alice_verilog::parse_source(src)?;
//! let n = alice_netlist::elaborate::elaborate(&f, "m")?;
//! let mapped = alice_netlist::lutmap::map_luts(&n, 4)?;
//! let report = alice_attacks::sat_attack(&mapped, Default::default());
//! println!("broke after {} DIPs over {} key bits", report.dips, report.key_bits);
//! # Ok(())
//! # }
//! ```

pub mod attack;
pub mod oracle;
pub mod solver;

pub use attack::{key_bit_names, sat_attack, AttackBudget, AttackReport, AttackStatus, Dip};
pub use oracle::{exhaustive_equiv, output_bit_names, query, state_bit_names, OracleResponse};
pub use solver::{EngineStats, SatResult, Solver, Var};
