//! The persistent CEC proof cache — the fourth cached oracle of the
//! flow, sharing the `alice-store` artifact store with the
//! characterization caches. Lookups decode straight out of the
//! checksum-verified buffer [`Store::get`](alice_store::Store::get)
//! returns (the `Reader` borrows it, no further copy), and writes land
//! in per-key shards so concurrent sweeps flush without contending.
//!
//! The verify stage and wrong-key sweeps repeatedly pose the *same*
//! equivalence queries across suite re-runs and CLI invocations: the
//! (golden, revised) pair hashes identically, the bitstream pins are
//! identical, and the verdict cannot change. Entries are keyed by
//! [`miter_fingerprint`](crate::miter::miter_fingerprint) — name-free
//! netlist structure plus the ordinal-resolved binding and pinned key
//! bits — so a cached result is sound for *any* renaming of the same
//! query.
//!
//! Only conclusions that are stable by construction are cached:
//!
//! * **`Equivalent` proofs** — a proof holds forever; `NotEquivalent`
//!   (a redaction bug that will be fixed) and `ResourceLimit` (budget-
//!   dependent) are recomputed.
//! * **Complete corruption counts** — the exact wrong-key corruptibility
//!   numbers; incomplete (budget-cut) analyses are recomputed.
//! * **Sweep lemmas** — per-pair internal equivalences the SAT sweeper
//!   proved, keyed by the canonical pair of boundary-labelled cone
//!   hashes (see `crate::sweep`). Unlike whole-miter proofs these
//!   transfer to *novel* miters that reuse familiar sub-structures —
//!   e.g. the same netlist pair under different pinned key bits.

use alice_intern::StableHasher;
use alice_store::{Kind, Reader, Store, Writer};

/// A cached `Equivalent` verdict, carrying the miter statistics the
/// verify report would otherwise have measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedProof {
    /// Compared difference points of the proven miter.
    pub diff_points: u64,
    /// CNF variable count of the proven miter.
    pub cnf_vars: u64,
    /// CNF clause count of the proven miter.
    pub cnf_clauses: u64,
}

/// A cached complete corruption analysis (wrong-key sweep result).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedCorruption {
    /// Difference points proven corruptible.
    pub corrupted: u64,
    /// Total difference points compared.
    pub total: u64,
}

const TAG_PROOF: u8 = 1;
const TAG_CORRUPTION: u8 = 2;
const TAG_LEMMA: u8 = 3;

/// Folds the miter fingerprint into a store key, segregated per entry
/// type so an equivalence proof and a corruption analysis of the same
/// miter cannot alias.
fn store_key(label: &str, fp: (u64, u64)) -> (u64, u64) {
    let mut h = StableHasher::new();
    h.write_str(label);
    h.write_u64(fp.0);
    h.write_u64(fp.1);
    h.finish()
}

/// Looks up a cached `Equivalent` proof for the fingerprinted miter.
pub fn lookup_proof(store: &Store, fp: (u64, u64)) -> Option<CachedProof> {
    let bytes = store.get(Kind::Cec, store_key("prove", fp))?;
    let mut r = Reader::new(&bytes);
    if r.get_u8().ok()? != TAG_PROOF {
        return None;
    }
    Some(CachedProof {
        diff_points: r.get_u64().ok()?,
        cnf_vars: r.get_u64().ok()?,
        cnf_clauses: r.get_u64().ok()?,
    })
}

/// Records an `Equivalent` proof. The write is committed on the store's
/// next flush.
pub fn record_proof(store: &Store, fp: (u64, u64), proof: CachedProof) {
    let mut w = Writer::new();
    w.put_u8(TAG_PROOF);
    w.put_u64(proof.diff_points);
    w.put_u64(proof.cnf_vars);
    w.put_u64(proof.cnf_clauses);
    store.put(Kind::Cec, store_key("prove", fp), w.into_bytes());
}

/// Looks up a cached complete corruption analysis for the fingerprinted
/// (wrong-key-pinned) miter.
pub fn lookup_corruption(store: &Store, fp: (u64, u64)) -> Option<CachedCorruption> {
    let bytes = store.get(Kind::Cec, store_key("corruption", fp))?;
    let mut r = Reader::new(&bytes);
    if r.get_u8().ok()? != TAG_CORRUPTION {
        return None;
    }
    let corrupted = r.get_u64().ok()?;
    let total = r.get_u64().ok()?;
    if corrupted > total {
        return None; // corrupt record: impossible count
    }
    Some(CachedCorruption { corrupted, total })
}

/// Records a complete corruption analysis.
pub fn record_corruption(store: &Store, fp: (u64, u64), c: CachedCorruption) {
    let mut w = Writer::new();
    w.put_u8(TAG_CORRUPTION);
    w.put_u64(c.corrupted);
    w.put_u64(c.total);
    store.put(Kind::Cec, store_key("corruption", fp), w.into_bytes());
}

/// True when a sweep lemma is persisted for the canonical cone-pair key
/// (see `crate::sweep::lemma_key`): the two cones were once proven
/// equal, so a sweeper seeing the same pair may assert the equality
/// without re-proving it.
pub fn lookup_lemma(store: &Store, pair: (u64, u64)) -> bool {
    let Some(bytes) = store.get(Kind::Lemma, store_key("lemma", pair)) else {
        return false;
    };
    let mut r = Reader::new(&bytes);
    r.get_u8().ok() == Some(TAG_LEMMA)
}

/// Records a proven sweep lemma. The write is committed on the store's
/// next flush.
pub fn record_lemma(store: &Store, pair: (u64, u64)) {
    let mut w = Writer::new();
    w.put_u8(TAG_LEMMA);
    store.put(Kind::Lemma, store_key("lemma", pair), w.into_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> (std::path::PathBuf, Store) {
        let dir = std::env::temp_dir().join(format!(
            "alice-cec-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).expect("open");
        (dir, store)
    }

    #[test]
    fn proof_round_trips_and_survives_reopen() {
        let (dir, store) = tmp_store("proof");
        let fp = (0x1234, 0x5678);
        assert_eq!(lookup_proof(&store, fp), None);
        let proof = CachedProof {
            diff_points: 12,
            cnf_vars: 3456,
            cnf_clauses: 7890,
        };
        record_proof(&store, fp, proof);
        assert_eq!(lookup_proof(&store, fp), Some(proof));
        drop(store);
        let store = Store::open(&dir).expect("reopen");
        assert_eq!(lookup_proof(&store, fp), Some(proof));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn proof_and_corruption_keys_do_not_alias() {
        let (dir, store) = tmp_store("alias");
        let fp = (7, 7);
        record_proof(
            &store,
            fp,
            CachedProof {
                diff_points: 1,
                cnf_vars: 2,
                cnf_clauses: 3,
            },
        );
        assert_eq!(lookup_corruption(&store, fp), None);
        record_corruption(
            &store,
            fp,
            CachedCorruption {
                corrupted: 4,
                total: 9,
            },
        );
        assert_eq!(
            lookup_corruption(&store, fp),
            Some(CachedCorruption {
                corrupted: 4,
                total: 9
            })
        );
        assert!(lookup_proof(&store, fp).is_some(), "proof still there");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lemma_round_trips_and_survives_reopen() {
        let (dir, store) = tmp_store("lemma");
        let pair = (0xABCD, 0xEF01);
        assert!(!lookup_lemma(&store, pair));
        record_lemma(&store, pair);
        assert!(lookup_lemma(&store, pair));
        drop(store);
        // A second process sees the lemma from its own handle.
        let store = Store::open(&dir).expect("reopen");
        assert!(lookup_lemma(&store, pair));
        assert!(!lookup_lemma(&store, (0xABCD, 0xEF02)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn impossible_counts_are_rejected() {
        let (dir, store) = tmp_store("bounds");
        let fp = (1, 2);
        let mut w = Writer::new();
        w.put_u8(TAG_CORRUPTION);
        w.put_u64(10);
        w.put_u64(3); // corrupted > total
        store.put(Kind::Cec, store_key("corruption", fp), w.into_bytes());
        assert_eq!(lookup_corruption(&store, fp), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
