//! Seeded benchmark inputs: designs from the workspace's synthetic
//! generator, multiply-accumulate designs for the proof workload, and the
//! exploration points of the design-space sweep.
//!
//! Every input is a pure function of the run seed, so the same seed gives
//! byte-identical inputs. Each workload keeps its seeded share of work
//! roughly constant across seeds (fixed sizes, seeded structure), so that
//! runs with different seeds measure comparable amounts of work.

use alice_benchmarks::generator::{generate, GeneratorParams};
use std::fmt::Write;

/// splitmix64 step (the workspace's stand-in for `rand`).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An independent sub-seed of `seed` for the input called `salt`.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut s = seed ^ salt.wrapping_mul(0xd6e8_feb8_6659_fd93);
    splitmix64(&mut s)
}

/// A named Verilog source with an optional top module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Source {
    pub name: String,
    pub verilog: String,
}

/// `count` designs from [`alice_benchmarks::generator`], named
/// `{prefix}0`, `{prefix}1`, … Leaf count, width and depth are fixed; the
/// seed picks each stage's operator and shift.
pub fn generator_designs(seed: u64, prefix: &str, count: usize) -> Vec<Source> {
    let params = GeneratorParams {
        min_width: 8,
        max_width: 8,
        ..GeneratorParams::default()
    };
    (0..count)
        .map(|i| Source {
            name: format!("{prefix}{i}"),
            verilog: generate(derive(seed, 0x6e00 + i as u64), params),
        })
        .collect()
}

/// Widths of the multiply-accumulate units in one MAC design. The seed
/// permutes them, so the redacted multipliers (and the proof effort) stay
/// the same across seeds; seeded operand slices or accumulate operators
/// made the proof time vary by up to 2× between seeds.
pub const MAC_WIDTHS: [u32; 4] = [5, 6, 7, 8];

/// A design of [`MAC_WIDTHS`]`.len()` multiply-accumulate modules.
///
/// Each `mac{i}` registers `acc <= acc + a*b` at a seeded width `w` from
/// [`MAC_WIDTHS`]; the top drives `a` from the low `w` bits of one shared
/// operand bus and `b` from the high `w` bits of the other.
pub fn mac_design(seed: u64, name: &str) -> Source {
    let mut rng = seed;
    let mut widths = MAC_WIDTHS.to_vec();
    for i in (1..widths.len()).rev() {
        let j = (splitmix64(&mut rng) % (i as u64 + 1)) as usize;
        widths.swap(i, j);
    }
    let bus = 16u32;
    let mut v = String::new();
    for (i, &w) in widths.iter().enumerate() {
        let _ = writeln!(
            v,
            "module mac{i}(\n  input wire clk,\n  input wire [{m}:0] a,\n  input wire [{m}:0] b,\n  output reg [{p}:0] acc\n);\n  wire [{p}:0] prod;\n  assign prod = {{{w}'d0, a}} * {{{w}'d0, b}};\n  always @(posedge clk) acc <= acc + prod;\nendmodule",
            m = w - 1,
            p = 2 * w - 1,
        );
    }
    let outs: Vec<String> = widths
        .iter()
        .enumerate()
        .map(|(i, w)| format!("  output wire [{}:0] o{i}", 2 * w - 1))
        .collect();
    let _ = writeln!(
        v,
        "module mac_top(\n  input wire clk,\n  input wire [{b}:0] x,\n  input wire [{b}:0] y,\n{}\n);",
        outs.join(",\n"),
        b = bus - 1
    );
    for (i, &w) in widths.iter().enumerate() {
        let _ = writeln!(
            v,
            "  mac{i} u{i}(.clk(clk), .a(x[{}:0]), .b(y[{}:{}]), .acc(o{i}));",
            w - 1,
            bus - 1,
            bus - w,
        );
    }
    let _ = writeln!(v, "endmodule");
    Source {
        name: name.to_string(),
        verilog: v,
    }
}

/// One design-space point: the I/O pin budget and the eFPGA count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    pub max_io_pins: u32,
    pub max_efpgas: u32,
}

/// Strata of the exploration sweep as `(lowest pin budget, highest pin
/// budget, eFPGA count)`. One point is drawn from each, so every seed
/// explores below, between and above the paper's two configurations (64
/// and 96 pins) with comparable work. The eFPGA count is fixed per
/// stratum: two eFPGAs at a high pin budget multiply the enumerated
/// solutions, and drawing it would make the work depend on the seed.
pub const STRATA: [(u32, u32, u32); 6] = [
    (40, 48, 2),
    (49, 56, 1),
    (57, 64, 2),
    (65, 72, 1),
    (73, 88, 1),
    (97, 112, 1),
];

/// The exploration points for `seed`: one seeded pin budget per stratum
/// of [`STRATA`].
pub fn explore_points(seed: u64) -> Vec<Point> {
    let mut rng = derive(seed, 0xe8);
    STRATA
        .iter()
        .map(|&(lo, hi, max_efpgas)| Point {
            max_io_pins: lo + (splitmix64(&mut rng) % u64::from(hi - lo + 1)) as u32,
            max_efpgas,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alice_core::design::Design;

    fn all_inputs(seed: u64) -> (Vec<Source>, Source, Vec<Point>) {
        (
            generator_designs(seed, "GEN", 2),
            mac_design(derive(seed, 1), "MAC"),
            explore_points(seed),
        )
    }

    #[test]
    fn same_seed_gives_identical_inputs_and_another_seed_differs() {
        assert_eq!(all_inputs(7), all_inputs(7));
        let (ga, ma, pa) = all_inputs(7);
        let (gb, mb, pb) = all_inputs(8);
        assert_ne!(ga, gb);
        assert_ne!(ma, mb);
        assert_ne!(pa, pb);
    }

    #[test]
    fn mac_designs_load_with_every_width() {
        for seed in 0..6 {
            let src = mac_design(seed, "MAC");
            let d = Design::from_source(&src.name, &src.verilog, Some("mac_top"))
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", src.verilog));
            assert_eq!(d.instance_paths().len(), MAC_WIDTHS.len());
            for w in MAC_WIDTHS {
                assert!(src.verilog.contains(&format!("[{}:0] acc", 2 * w - 1)));
            }
        }
    }

    #[test]
    fn explore_points_stay_in_their_strata() {
        for seed in 0..20 {
            for (p, &(lo, hi, n)) in explore_points(seed).iter().zip(&STRATA) {
                assert!((lo..=hi).contains(&p.max_io_pins), "{p:?}");
                assert_eq!(p.max_efpgas, n, "{p:?}");
            }
        }
    }
}
