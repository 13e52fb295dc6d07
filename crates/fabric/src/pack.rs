//! Packing: groups mapped LUTs and flip-flops into CLB-sized clusters.
//!
//! A logic element (LE) hosts one LUT and one optional flip-flop; a FF is
//! paired with the LUT that drives its D input (the fracturable-LE model of
//! the paper's architecture). Remaining FFs occupy their own LE. CLBs are
//! filled with a greedy connectivity-driven heuristic (VPR's AAPack in
//! spirit): seed with the unclustered LE with most connections, then absorb
//! the most-attracted LEs until the CLB is full.
//!
//! The greedy loop never rescans the unplaced LEs. An LE's attraction to
//! the open CLB (its connections to the CLB's members) is raised from the
//! neighbour list of each member as it joins and pushed onto a max-heap;
//! an entry whose LE was placed or has since gained attraction is stale
//! and skipped on pop, and the heap empties when the CLB closes. Ties go
//! to the lowest LE index throughout: seeds come from one order sorted
//! once (most connections, then lowest index), a pick is the
//! most-attracted LE (then lowest index), and when no unplaced LE is
//! attracted a cursor yields the lowest-index unplaced LE. A packing so
//! costs O(LEs·log LEs + E·log E) for E connections.

use crate::arch::FabricArch;
use alice_netlist::lutmap::{MappedNetlist, MappedSrc};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One logic element: a LUT and/or a flip-flop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogicElement {
    /// Index into [`MappedNetlist::luts`], if the LE carries a LUT.
    pub lut: Option<usize>,
    /// Index into [`MappedNetlist::dffs`], if the LE carries a FF.
    pub dff: Option<usize>,
}

/// A packed CLB: up to `les_per_clb` logic elements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Clb {
    /// The logic elements in this CLB.
    pub les: Vec<LogicElement>,
}

/// The result of packing.
#[derive(Debug, Clone, Default)]
pub struct Packing {
    /// Packed CLBs.
    pub clbs: Vec<Clb>,
    /// Total logic elements used.
    pub le_count: usize,
}

impl Packing {
    /// Number of CLBs used.
    pub fn clb_count(&self) -> usize {
        self.clbs.len()
    }
}

/// Packs a mapped netlist into CLBs for the given architecture.
///
/// An `les_per_clb` of 0 packs one LE per CLB, like 1.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let src = "module m(input wire [7:0] a, output wire y); assign y = ^a; endmodule";
/// let f = alice_verilog::parse_source(src)?;
/// let n = alice_netlist::elaborate::elaborate(&f, "m")?;
/// let mapped = alice_netlist::lutmap::map_luts(&n, 4)?;
/// let packing = alice_fabric::pack::pack(&mapped, &alice_fabric::FabricArch::default());
/// assert!(packing.clb_count() >= 1);
/// # Ok(())
/// # }
/// ```
pub fn pack(mapped: &MappedNetlist, arch: &FabricArch) -> Packing {
    // 1. Form LEs: LE i hosts LUT i, and pairs it with a FF only when that
    //    FF is the LUT's sole consumer (the LE exposes a single output, so a
    //    LUT that also feeds combinational logic cannot be registered in
    //    place). The other FFs follow, one LE each.
    let n_luts = mapped.luts.len();
    let mut lut_uses = vec![0u32; n_luts];
    let sinks = mapped
        .luts
        .iter()
        .flat_map(|l| &l.inputs)
        .chain(mapped.dffs.iter().map(|d| &d.d))
        .chain(mapped.outputs.iter().flat_map(|(_, bits)| bits));
    for s in sinks {
        if let MappedSrc::Lut(l) = *s {
            if let Some(uses) = lut_uses.get_mut(l) {
                *uses += 1;
            }
        }
    }
    let mut les: Vec<LogicElement> = (0..n_luts)
        .map(|l| LogicElement {
            lut: Some(l),
            dff: None,
        })
        .collect();
    let mut le_of_dff = Vec::with_capacity(mapped.dffs.len());
    for (di, dff) in mapped.dffs.iter().enumerate() {
        match dff.d {
            // A sole use is this FF, so no other FF claims the LUT.
            MappedSrc::Lut(li) if lut_uses.get(li) == Some(&1) => {
                les[li].dff = Some(di);
                le_of_dff.push(li);
            }
            _ => {
                le_of_dff.push(les.len());
                les.push(LogicElement {
                    lut: None,
                    dff: Some(di),
                });
            }
        }
    }

    // 2. Connectivity between LEs (shared nets attract): LE i lists the LE
    //    at the other end of each of its connections, so a neighbour's
    //    multiplicity is its weight.
    let src_le = |s: &MappedSrc| match *s {
        MappedSrc::Lut(l) if l < n_luts => Some(l),
        MappedSrc::Dff(d) => le_of_dff.get(d).copied(),
        _ => None,
    };
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); les.len()];
    for (i, le) in les.iter().enumerate() {
        let lut_inputs = le.lut.into_iter().flat_map(|l| &mapped.luts[l].inputs);
        let dff_input = le.dff.map(|d| &mapped.dffs[d].d);
        for j in lut_inputs.chain(dff_input).filter_map(src_le) {
            if j != i {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }

    // 3. Greedy clustering; the module doc gives the tie-breaks.
    let cap = (arch.les_per_clb as usize).max(1);
    let mut seeds: Vec<usize> = (0..les.len()).collect();
    seeds.sort_unstable_by_key(|&i| (Reverse(adj[i].len()), i));
    let mut placed = vec![false; les.len()];
    let mut attraction = vec![0u32; les.len()];
    let mut heap: BinaryHeap<(u32, Reverse<usize>)> = BinaryHeap::new();
    let mut lowest = 0;
    let mut clbs: Vec<Clb> = Vec::new();
    for seed in seeds {
        if placed[seed] {
            continue;
        }
        placed[seed] = true;
        let mut members = vec![seed];
        while members.len() < cap {
            for &j in &adj[members[members.len() - 1]] {
                if !placed[j] {
                    attraction[j] += 1;
                    heap.push((attraction[j], Reverse(j)));
                }
            }
            // Fill the CLB fully (density first, like the paper's
            // minimal-fabric objective); attraction only orders candidates.
            let attracted = std::iter::from_fn(|| heap.pop())
                .find(|&(a, Reverse(j))| !placed[j] && attraction[j] == a)
                .map(|(_, Reverse(j))| j);
            let Some(next) = attracted.or_else(|| {
                while lowest < les.len() && placed[lowest] {
                    lowest += 1;
                }
                (lowest < les.len()).then_some(lowest)
            }) else {
                break;
            };
            placed[next] = true;
            members.push(next);
        }
        heap.clear();
        for &m in &members {
            for &j in &adj[m] {
                attraction[j] = 0;
            }
        }
        clbs.push(Clb {
            les: members.iter().map(|&i| les[i]).collect(),
        });
    }
    Packing {
        le_count: les.len(),
        clbs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alice_intern::Symbol;
    use alice_netlist::elaborate::elaborate;
    use alice_netlist::lutmap::{map_luts, Lut, MappedDff};
    use alice_verilog::parse_source;
    use proptest::{Strategy, TestRng};

    fn mapped(src: &str, top: &str) -> MappedNetlist {
        let f = parse_source(src).expect("parse");
        let n = elaborate(&f, top).expect("elab");
        map_luts(&n, 4).expect("map")
    }

    #[test]
    fn ff_pairs_with_driving_lut() {
        let src = r#"
module m(input wire clk, input wire [3:0] a, output reg q);
  always @(posedge clk) q <= ^a;
endmodule
"#;
        let m = mapped(src, "m");
        let p = pack(&m, &FabricArch::default());
        // One LUT + one FF paired into a single LE.
        assert_eq!(p.le_count, m.lut_count().max(1));
        let paired = p
            .clbs
            .iter()
            .flat_map(|c| &c.les)
            .any(|le| le.lut.is_some() && le.dff.is_some());
        assert!(paired, "FF should share an LE with its driving LUT");
    }

    #[test]
    fn clb_capacity_respected() {
        let src = "module m(input wire [15:0] a, input wire [15:0] b, output wire [15:0] y);\
                   assign y = a ^ b; endmodule";
        let m = mapped(src, "m");
        let arch = FabricArch::default();
        let p = pack(&m, &arch);
        for clb in &p.clbs {
            assert!(clb.les.len() <= arch.les_per_clb as usize);
        }
        let total: usize = p.clbs.iter().map(|c| c.les.len()).sum();
        assert_eq!(total, p.le_count);
    }

    #[test]
    fn clb_count_close_to_optimal() {
        // 16 XOR LUTs at 4 LEs per CLB -> 4 CLBs optimal.
        let src = "module m(input wire [15:0] a, input wire [15:0] b, output wire [15:0] y);\
                   assign y = a ^ b; endmodule";
        let m = mapped(src, "m");
        let p = pack(&m, &FabricArch::default());
        assert_eq!(m.lut_count(), 16);
        assert_eq!(p.clb_count(), 4);
    }

    #[test]
    fn passthrough_dffs_get_own_les() {
        let src = r#"
module m(input wire clk, input wire [3:0] d, output reg [3:0] q);
  always @(posedge clk) q <= d;
endmodule
"#;
        let m = mapped(src, "m");
        let p = pack(&m, &FabricArch::default());
        assert_eq!(m.dff_count(), 4);
        // D comes straight from PIs: no LUT to pair with.
        assert_eq!(p.le_count, 4);
    }

    /// The greedy loop `pack` replaced, kept as its oracle: for every seed
    /// and every pick it rescans all unplaced LEs, summing each one's
    /// attraction to every member of the open CLB, over hash-map
    /// bookkeeping.
    fn rescanning_pack(mapped: &MappedNetlist, arch: &FabricArch) -> Packing {
        use std::collections::{HashMap, HashSet};
        let mut lut_uses: HashMap<usize, u32> = HashMap::new();
        let bump = |s: &MappedSrc, lut_uses: &mut HashMap<usize, u32>| {
            if let MappedSrc::Lut(l) = s {
                *lut_uses.entry(*l).or_insert(0) += 1;
            }
        };
        for lut in &mapped.luts {
            for s in &lut.inputs {
                bump(s, &mut lut_uses);
            }
        }
        for d in &mapped.dffs {
            bump(&d.d, &mut lut_uses);
        }
        for (_, bits) in &mapped.outputs {
            for s in bits {
                bump(s, &mut lut_uses);
            }
        }
        let mut lut_paired: HashMap<usize, usize> = HashMap::new();
        let mut lone_dffs: Vec<usize> = Vec::new();
        for (di, dff) in mapped.dffs.iter().enumerate() {
            match dff.d {
                MappedSrc::Lut(li)
                    if !lut_paired.contains_key(&li)
                        && lut_uses.get(&li).copied().unwrap_or(0) == 1 =>
                {
                    lut_paired.insert(li, di);
                }
                _ => lone_dffs.push(di),
            }
        }
        let mut les: Vec<LogicElement> = Vec::new();
        for li in 0..mapped.luts.len() {
            les.push(LogicElement {
                lut: Some(li),
                dff: lut_paired.get(&li).copied(),
            });
        }
        for di in lone_dffs {
            les.push(LogicElement {
                lut: None,
                dff: Some(di),
            });
        }
        let le_of_lut: HashMap<usize, usize> = les
            .iter()
            .enumerate()
            .filter_map(|(i, le)| le.lut.map(|l| (l, i)))
            .collect();
        let le_of_dff: HashMap<usize, usize> = les
            .iter()
            .enumerate()
            .filter_map(|(i, le)| le.dff.map(|d| (d, i)))
            .collect();
        let src_le = |s: &MappedSrc| -> Option<usize> {
            match s {
                MappedSrc::Lut(l) => le_of_lut.get(l).copied(),
                MappedSrc::Dff(d) => le_of_dff.get(d).copied(),
                _ => None,
            }
        };
        let mut adj: Vec<HashMap<usize, u32>> = vec![HashMap::new(); les.len()];
        let connect = |a: usize, b: usize, adj: &mut Vec<HashMap<usize, u32>>| {
            if a != b {
                *adj[a].entry(b).or_insert(0) += 1;
                *adj[b].entry(a).or_insert(0) += 1;
            }
        };
        for (i, le) in les.iter().enumerate() {
            if let Some(li) = le.lut {
                for inp in &mapped.luts[li].inputs {
                    if let Some(j) = src_le(inp) {
                        connect(i, j, &mut adj);
                    }
                }
            }
            if let Some(di) = le.dff {
                if let Some(j) = src_le(&mapped.dffs[di].d) {
                    connect(i, j, &mut adj);
                }
            }
        }
        let cap = arch.les_per_clb as usize;
        let mut unplaced: HashSet<usize> = (0..les.len()).collect();
        let mut clbs: Vec<Clb> = Vec::new();
        while !unplaced.is_empty() {
            let &seed = unplaced
                .iter()
                .max_by_key(|&&i| (adj[i].values().sum::<u32>(), Reverse(i)))
                .expect("non-empty");
            unplaced.remove(&seed);
            let mut members = vec![seed];
            while members.len() < cap {
                let best = unplaced
                    .iter()
                    .map(|&i| {
                        let attraction: u32 = members
                            .iter()
                            .map(|&m| adj[i].get(&m).copied().unwrap_or(0))
                            .sum();
                        (attraction, Reverse(i), i)
                    })
                    .max();
                match best {
                    Some((_, _, i)) => {
                        unplaced.remove(&i);
                        members.push(i);
                    }
                    None => break,
                }
            }
            clbs.push(Clb {
                les: members.iter().map(|&i| les[i]).collect(),
            });
        }
        Packing {
            le_count: les.len(),
            clbs,
        }
    }

    /// Packs `m` with both `pack` and the oracle, and checks that they
    /// agree and that every CLB but the last is full.
    fn assert_packs_like_the_oracle(m: &MappedNetlist, les_per_clb: u32, what: &str) {
        let arch = FabricArch {
            les_per_clb,
            ..FabricArch::default()
        };
        let p = pack(m, &arch);
        assert_eq!(
            p.clbs,
            rescanning_pack(m, &arch).clbs,
            "{what}, {les_per_clb} LEs per CLB"
        );
        let full = les_per_clb.max(1) as usize;
        if let Some((_, rest)) = p.clbs.split_last() {
            assert!(
                rest.iter().all(|c| c.les.len() == full),
                "{what}: a CLB before the last is not full"
            );
        }
    }

    #[test]
    fn suite_modules_pack_like_the_oracle() {
        for b in alice_benchmarks::suite() {
            let file = parse_source(&b.source).expect("parse");
            for module in file.modules.iter().filter(|m| m.name != b.top) {
                let Ok(n) = elaborate(&file, &module.name) else {
                    continue;
                };
                let m = map_luts(&n, 4).expect("map");
                assert_packs_like_the_oracle(&m, 4, &format!("{}.{}", b.name, module.name));
            }
        }
    }

    /// A random LUT/FF network. LUT inputs come from PIs, earlier LUTs and
    /// FFs, and FF inputs from LUTs, FFs and PIs; the pools are small, so
    /// FFs share drivers and many LEs tie on attraction.
    fn random_netlist(rng: &mut TestRng) -> MappedNetlist {
        let n_pis = (1usize..4).pick(rng);
        let n_luts = (0usize..24).pick(rng);
        let n_dffs = (0usize..12).pick(rng);
        let src = |rng: &mut TestRng, luts: usize| match (0u32..3).pick(rng) {
            1 if luts > 0 => MappedSrc::Lut((0..luts).pick(rng)),
            2 if n_dffs > 0 => MappedSrc::Dff((0..n_dffs).pick(rng)),
            _ => MappedSrc::Pi((0..n_pis).pick(rng)),
        };
        let mut m = MappedNetlist::default();
        for i in 0..n_luts {
            let width = (1usize..5).pick(rng);
            let inputs = (0..width).map(|_| src(rng, i)).collect();
            m.luts.push(Lut { inputs, tt: 0 });
        }
        for _ in 0..n_dffs {
            let d = src(rng, n_luts);
            m.dffs.push(MappedDff { d, init: false });
        }
        let outputs = (0..(0usize..4).pick(rng))
            .map(|_| src(rng, n_luts))
            .collect();
        m.outputs.push((Symbol::intern("y"), outputs));
        m
    }

    #[test]
    fn random_netlists_pack_like_the_oracle() {
        let mut rng = TestRng::deterministic("random_netlists_pack_like_the_oracle");
        let (mut paired, mut lone, mut shared) = (0, 0, 0);
        for case in 0..400 {
            let m = random_netlist(&mut rng);
            for les_per_clb in 0..=8 {
                assert_packs_like_the_oracle(&m, les_per_clb, &format!("case {case}"));
            }
            let clbs = pack(&m, &FabricArch::default()).clbs;
            for le in clbs.iter().flat_map(|c| &c.les) {
                paired += usize::from(le.lut.is_some() && le.dff.is_some());
                lone += usize::from(le.lut.is_none());
            }
            let lut_drivers: Vec<usize> = m
                .dffs
                .iter()
                .filter_map(|d| match d.d {
                    MappedSrc::Lut(l) => Some(l),
                    _ => None,
                })
                .collect();
            shared += lut_drivers
                .iter()
                .enumerate()
                .filter(|&(i, l)| lut_drivers[..i].contains(l))
                .count();
        }
        // Every FF case occurred: paired with its LUT, alone, and sharing
        // a driving LUT with another FF.
        assert!(
            paired > 0 && lone > 0 && shared > 0,
            "paired {paired}, lone {lone}, shared {shared}"
        );
    }
}
