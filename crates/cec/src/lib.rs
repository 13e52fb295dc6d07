//! # alice-cec
//!
//! SAT-based combinational equivalence checking (CEC) for the ALICE
//! flow, built on the workspace's own CDCL solver
//! ([`alice_attacks::solver`]). Where `alice_netlist::sim` spot-checks a
//! redaction by random simulation, this crate *proves* the paper's
//! functional-preservation claim and quantifies the converse security
//! claim:
//!
//! * [`encode`] — Tseitin CNF lowering of [`alice_netlist::ir::Netlist`]
//!   with constant folding and a structural hash shared across both sides
//!   of a miter, so the unchanged majority of a redacted design costs no
//!   clauses,
//! * [`miter`] — the [`Miter`] builder (shared inputs, XOR-ed outputs,
//!   scan-model next-state checks, key/bitstream inputs pinnable or
//!   free), [`CecResult`] verdicts with [`Counterexample`] witnesses, the
//!   exact per-output [`Corruption`] analysis behind the wrong-key
//!   corruptibility sweep, and the assumption-parameterized
//!   [`KeyedMiter`] that answers many keys on one long-lived solver,
//! * [`sweep`] — ABC-style SAT sweeping (signature classes from 128-bit
//!   word simulation, per-pair assumption proofs, equality lemmas) that
//!   makes redacted-arithmetic miters tractable; proven lemmas are keyed
//!   by boundary-labelled cone hashes and persisted, so familiar
//!   sub-structures start warm in later processes,
//! * [`cache`] — the persistent proof cache over `alice-store`: whole
//!   miters keyed by [`miter_fingerprint`] (name-free pair structure +
//!   pinned key bits) so identical queries skip re-proving, plus the
//!   per-pair sweep lemmas — which also serve *novel* miters (e.g. the
//!   same pair under different pinned key bits) that the whole-miter
//!   fingerprint misses.
//!
//! # Example
//!
//! ```
//! use alice_cec::{prove_equivalent, CecResult};
//! use alice_netlist::ir::Netlist;
//!
//! let mut n = Netlist::new("maj");
//! let a = n.add_input("a", 1)[0];
//! let b = n.add_input("b", 1)[0];
//! let c = n.add_input("c", 1)[0];
//! let ab = n.and(a, b);
//! let bc = n.and(b, c);
//! let ac = n.and(a, c);
//! let t = n.or(ab, bc);
//! let maj = n.or(t, ac);
//! n.add_output("y", vec![maj]);
//!
//! // A design is always equivalent to itself...
//! assert_eq!(prove_equivalent(&n, &n), Ok(CecResult::Equivalent));
//!
//! // ...and a mutated copy yields a concrete counterexample.
//! let mut bad = n.clone();
//! bad.outputs[0].1[0] = bad.outputs[0].1[0].compl();
//! assert!(matches!(
//!     prove_equivalent(&n, &bad),
//!     Ok(CecResult::NotEquivalent(_))
//! ));
//! ```

pub mod cache;
pub mod encode;
pub mod miter;
pub mod sweep;

pub use alice_attacks::EngineStats;
pub use cache::{CachedCorruption, CachedProof};
pub use encode::{EncodedDff, EncodedNetlist, Encoder};
pub use miter::{
    miter_fingerprint, prove_equivalent, CecResult, Corruption, Counterexample, KeyedMiter, Miter,
    MiterError, MiterOptions,
};
pub use sweep::SweepStats;
