//! Verilog emission of the eFPGA fabric netlist.
//!
//! Produces the "eFPGA netlist" box of Figure 2: a structural Verilog
//! module built from configurable logic-element primitives with a serial
//! configuration chain. The LUT truth tables are *not* present in the
//! netlist — they arrive through the configuration chain (the bitstream),
//! which is exactly the property redaction relies on.
//!
//! Simplification vs. OpenFPGA: routing is hardwired in the emitted
//! netlist, so the config chain holds only the logic elements: 17 bits
//! per used LE (a 4-input truth table plus the FF-bypass flag), whatever
//! the fabric's size. [`config_stream`] is that chain's contents.

use crate::pack::Packing;
use alice_intern::{HierPath, Symbol};
use alice_netlist::lutmap::{MappedNetlist, MappedSrc};
use std::fmt::Write;

/// Inputs of the emitted logic element ([`le_primitive`]): the widest
/// LUT a fabric can be configured with.
pub const LE_INPUTS: u32 = 4;

/// The configurable logic-element primitive, shared by all fabrics.
///
/// Parseable by [`alice_verilog`]; ships once per output file.
pub fn le_primitive() -> String {
    r#"module alice_le(
  input wire cfg_clk,
  input wire cfg_en,
  input wire cfg_in,
  output wire cfg_out,
  input wire clk,
  input wire [3:0] in,
  output wire out,
  output wire ff_q
);
  reg [16:0] cfg;
  always @(posedge cfg_clk) begin
    if (cfg_en) cfg <= {cfg[15:0], cfg_in};
  end
  assign cfg_out = cfg[16];
  wire lut_out;
  assign lut_out = cfg[in];
  reg ff;
  always @(posedge clk) begin
    if (~cfg_en) ff <= lut_out;
  end
  assign out = cfg[16] ? lut_out : ff;
  assign ff_q = ff;
endmodule
"#
    .to_string()
}

/// Emits the fabric netlist for a packed design.
///
/// The module is named `{name}` and exposes the cluster's original ports
/// plus `clk` (if absent) and the configuration chain
/// (`cfg_clk`, `cfg_en`, `cfg_in`, `cfg_out`).
pub fn fabric_netlist(name: &str, mapped: &MappedNetlist, packing: &Packing) -> String {
    let mut v = String::new();
    let _ = writeln!(v, "module {name}(");
    let mut port_lines = vec![
        "  input wire cfg_clk".to_string(),
        "  input wire cfg_en".to_string(),
        "  input wire cfg_in".to_string(),
        "  output wire cfg_out".to_string(),
    ];
    let mut has_clk = false;
    for (pname, bits) in &mapped.inputs {
        if pname == "clk" {
            has_clk = true;
        }
        let range = if bits.len() > 1 {
            format!(" [{}:0]", bits.len() - 1)
        } else {
            String::new()
        };
        port_lines.push(format!("  input wire{range} {pname}"));
    }
    if !has_clk {
        port_lines.push("  input wire clk".to_string());
    }
    for (pname, bits) in &mapped.outputs {
        let range = if bits.len() > 1 {
            format!(" [{}:0]", bits.len() - 1)
        } else {
            String::new()
        };
        port_lines.push(format!("  output wire{range} {pname}"));
    }
    let _ = writeln!(v, "{}", port_lines.join(",\n"));
    let _ = writeln!(v, ");");

    // Net naming helpers.
    let pi_expr = |pi: usize| -> String {
        // Find which port/bit this PI belongs to.
        let mut acc = 0usize;
        for (pname, bits) in &mapped.inputs {
            if pi < acc + bits.len() {
                let bit = pi - acc;
                return if bits.len() > 1 {
                    format!("{pname}[{bit}]")
                } else {
                    pname.to_string()
                };
            }
            acc += bits.len();
        }
        unreachable!("pi index out of range")
    };

    // Each used LE gets a combinational output wire plus the dedicated
    // register output; reading the FF through `ff_q` (instead of the
    // bypass mux) keeps self-referencing registers (`if (en) q <= f(q)`)
    // free of structural combinational cycles.
    let les: Vec<_> = packing.clbs.iter().flat_map(|c| c.les.iter()).collect();
    for (i, _) in les.iter().enumerate() {
        let _ = writeln!(v, "  wire le{i}_out;");
        let _ = writeln!(v, "  wire le{i}_ff;");
    }
    let _ = writeln!(v, "  wire [{}:0] chain;", les.len());

    // Source expression for a mapped signal. LUT outputs come from the LE
    // holding that LUT (bypass path); DFF outputs from the register pin of
    // the LE holding that FF.
    let le_of_lut = |l: usize| les.iter().position(|le| le.lut == Some(l));
    let le_of_dff = |d: usize| les.iter().position(|le| le.dff == Some(d));
    let src_expr = |s: &MappedSrc| -> String {
        match s {
            MappedSrc::Const(false) => "1'b0".into(),
            MappedSrc::Const(true) => "1'b1".into(),
            MappedSrc::Pi(p) => pi_expr(*p),
            MappedSrc::Lut(l) => format!("le{}_out", le_of_lut(*l).expect("lut packed")),
            MappedSrc::Dff(d) => format!("le{}_ff", le_of_dff(*d).expect("dff packed")),
        }
    };

    let _ = writeln!(v, "  assign chain[0] = cfg_in;");
    for (i, le) in les.iter().enumerate() {
        // LE inputs: LUT inputs if a LUT is present, else the FF's D on in[0].
        let mut ins: Vec<String> = Vec::new();
        if let Some(l) = le.lut {
            for s in &mapped.luts[l].inputs {
                ins.push(src_expr(s));
            }
        } else if let Some(d) = le.dff {
            ins.push(src_expr(&mapped.dffs[d].d));
        }
        while ins.len() < LE_INPUTS as usize {
            ins.push("1'b0".into());
        }
        // Verilog concat is MSB-first.
        let in_concat = format!("{{{}, {}, {}, {}}}", ins[3], ins[2], ins[1], ins[0]);
        let _ = writeln!(
            v,
            "  alice_le le{i}(.cfg_clk(cfg_clk), .cfg_en(cfg_en), .cfg_in(chain[{i}]), \
             .cfg_out(chain[{}]), .clk(clk), .in({in_concat}), .out(le{i}_out), .ff_q(le{i}_ff));",
            i + 1
        );
    }
    let _ = writeln!(v, "  assign cfg_out = chain[{}];", les.len());

    for (pname, bits) in &mapped.outputs {
        for (b, s) in bits.iter().enumerate() {
            let lhs = if bits.len() > 1 {
                format!("{pname}[{b}]")
            } else {
                pname.to_string()
            };
            let _ = writeln!(v, "  assign {lhs} = {};", src_expr(s));
        }
    }
    let _ = writeln!(v, "endmodule");
    v
}

/// The resolved configuration of one emitted logic element: what its
/// `cfg` register holds once the chain has been shifted in. This is the
/// bitstream-to-key binding used by equivalence checking — `cfg[b]` for
/// `b < 16` is truth-table bit `b` and `cfg[16]` is the FF-bypass flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeConfig {
    /// LUT truth table (identity `0xAAAA` for a lone-FF LE, 0 if unused).
    pub tt: u64,
    /// FF-bypass flag (`cfg[16]`): true = combinational output.
    pub bypass: bool,
    /// The mapped LUT this LE implements, if any.
    pub lut: Option<usize>,
    /// The mapped flip-flop this LE hosts, if any.
    pub dff: Option<usize>,
}

impl LeConfig {
    /// The 17 `cfg` register bit values, LSB first.
    pub fn cfg_bits(&self) -> [bool; 17] {
        let mut bits = [false; 17];
        for (b, slot) in bits.iter_mut().enumerate().take(16) {
            *slot = (self.tt >> b) & 1 == 1;
        }
        bits[16] = self.bypass;
        bits
    }
}

/// The hierarchical elaboration path of the `i`-th emitted LE instance
/// under a deployed fabric at `fabric_inst` — the naming contract
/// between [`fabric_netlist`]'s `le{i}` instances and the gate-level
/// elaborator's hierarchical register names. Binding construction
/// (`alice_core::redact`) and equivalence checking resolve bitstream
/// bits to design state through these three helpers, so the scheme
/// lives here, next to the emitter that defines it.
pub fn le_path(fabric_inst: HierPath, i: usize) -> HierPath {
    fabric_inst.join(&format!("le{i}"))
}

/// The hierarchical DFF-bit name of configuration-register bit `bit` of
/// the LE elaborated at `le`: bits `0..16` are the truth table,
/// bit 16 is the FF-bypass flag (see [`LeConfig::cfg_bits`]).
pub fn cfg_bit_name(le: HierPath, bit: usize) -> Symbol {
    Symbol::intern(&format!("{le}.cfg[{bit}]"))
}

/// The hierarchical DFF-bit name of the LE's single state flip-flop.
pub fn ff_bit_name(le: HierPath) -> Symbol {
    Symbol::intern(&format!("{le}.ff[0]"))
}

/// Resolves the per-LE configuration for an emitted fabric, in chain
/// order (the same LE order as [`fabric_netlist`]'s `le{i}` instances
/// and [`config_stream`]'s shift schedule).
pub fn le_configs(mapped: &MappedNetlist, packing: &Packing) -> Vec<LeConfig> {
    packing
        .clbs
        .iter()
        .flat_map(|c| c.les.iter())
        .map(|le| LeConfig {
            tt: match (le.lut, le.dff) {
                (Some(l), _) => mapped.luts[l].tt,
                (None, Some(_)) => 0xAAAA,
                (None, None) => 0,
            },
            bypass: le.dff.is_none(),
            lut: le.lut,
            dff: le.dff,
        })
        .collect()
}

/// Builds the serial configuration stream for the *emitted* netlist (one
/// `alice_le` per used LE, 17 bits each: 16 truth-table bits then the
/// FF-bypass flag). Shift the returned bits in order on `cfg_in`, one per
/// `cfg_clk` cycle with `cfg_en` high; after `stream.len()` cycles every LE
/// holds its configuration.
pub fn config_stream(mapped: &MappedNetlist, packing: &Packing) -> Vec<bool> {
    let configs = le_configs(mapped, packing);
    let total = configs.len() * 17;
    let mut stream = vec![false; total];
    for (j, cfg) in configs.iter().enumerate() {
        for (b, &bit) in cfg.cfg_bits().iter().enumerate() {
            // After `total` shifts, chain position 17j+b holds the bit that
            // entered at time total-1-(17j+b).
            stream[total - 1 - (17 * j + b)] = bit;
        }
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::FabricArch;
    use crate::pack::pack;
    use alice_netlist::elaborate::elaborate;
    use alice_netlist::lutmap::map_luts;
    use alice_verilog::parse_source;

    fn fixture(src: &str, top: &str) -> (MappedNetlist, Packing) {
        let f = parse_source(src).expect("parse");
        let n = elaborate(&f, top).expect("elab");
        let m = map_luts(&n, 4).expect("map");
        let p = pack(&m, &FabricArch::default());
        (m, p)
    }

    #[test]
    fn le_primitive_parses() {
        let f = parse_source(&le_primitive()).expect("LE primitive must parse");
        assert_eq!(f.modules[0].name, "alice_le");
    }

    #[test]
    fn emitted_fabric_parses_with_primitive() {
        let (m, p) = fixture(
            "module m(input wire [3:0] a, input wire [3:0] b, output wire [3:0] y);\
             assign y = a ^ b; endmodule",
            "m",
        );
        let text = format!("{}{}", le_primitive(), fabric_netlist("m_efpga", &m, &p));
        let f = parse_source(&text).expect("emitted fabric must parse");
        assert!(f.module("m_efpga").is_some());
        let fab = f.module("m_efpga").expect("exists");
        assert!(fab.port("cfg_in").is_some());
        assert!(fab.port("a").is_some());
        assert!(fab.port("y").is_some());
    }

    #[test]
    fn no_truth_tables_in_netlist() {
        let (m, p) = fixture(
            "module s(input wire [3:0] a, output wire y); assign y = ^a; endmodule",
            "s",
        );
        let text = fabric_netlist("s_efpga", &m, &p);
        // The secret must not leak: the only constants allowed are 1'b0/1'b1
        // padding, never 16-bit LUT INIT values.
        assert!(!text.contains("16'h"), "truth table leaked:\n{text}");
    }

    /// End-to-end: emit the fabric, elaborate it with the netlist crate,
    /// shift the config stream in through the chain, and check the fabric
    /// now computes the original function.
    #[test]
    fn configured_fabric_matches_original_function() {
        use alice_netlist::sim::Simulator;
        use alice_verilog::Bits;

        let src = "module f(input wire [3:0] a, input wire [3:0] b, output wire [3:0] y);\
                   assign y = (a & b) ^ {b[0], b[3:1]}; endmodule";
        let (m, p) = fixture(src, "f");
        let text = format!("{}{}", le_primitive(), fabric_netlist("f_efpga", &m, &p));
        let file = alice_verilog::parse_source(&text).expect("parse");
        let fab = alice_netlist::elaborate::elaborate(&file, "f_efpga").expect("elab fabric");

        // Reference netlist for the original RTL.
        let orig_file = alice_verilog::parse_source(src).expect("parse orig");
        let orig = alice_netlist::elaborate::elaborate(&orig_file, "f").expect("elab orig");

        let stream = config_stream(&m, &p);
        let mut sim = Simulator::new(&fab);
        sim.set_input("cfg_en", &Bits::from_u64(1, 1));
        for &bit in &stream {
            sim.set_input("cfg_in", &Bits::from_u64(bit as u64, 1));
            sim.step();
        }
        sim.set_input("cfg_en", &Bits::from_u64(0, 1));

        let mut oref = Simulator::new(&orig);
        for a in 0..16u64 {
            for b in 0..16u64 {
                sim.set_input("a", &Bits::from_u64(a, 4));
                sim.set_input("b", &Bits::from_u64(b, 4));
                sim.settle();
                oref.set_input("a", &Bits::from_u64(a, 4));
                oref.set_input("b", &Bits::from_u64(b, 4));
                oref.settle();
                assert_eq!(sim.output("y"), oref.output("y"), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn le_configs_agree_with_the_shifted_stream() {
        let (m, p) = fixture(
            "module r(input wire clk, input wire [3:0] d, output reg [3:0] q);\
             always @(posedge clk) q <= d ^ {d[0], d[3:1]}; endmodule",
            "r",
        );
        let configs = le_configs(&m, &p);
        let stream = config_stream(&m, &p);
        assert_eq!(stream.len(), configs.len() * 17);
        // Shifting the stream leaves cfg[b] of LE j = configs[j].cfg_bits()[b].
        for (j, cfg) in configs.iter().enumerate() {
            for (b, &bit) in cfg.cfg_bits().iter().enumerate() {
                assert_eq!(
                    stream[stream.len() - 1 - (17 * j + b)],
                    bit,
                    "le{j} cfg[{b}]"
                );
            }
        }
        // Every mapped FF is hosted by exactly one LE.
        let hosted: Vec<usize> = configs.iter().filter_map(|c| c.dff).collect();
        assert_eq!(hosted.len(), m.dff_count());
    }

    #[test]
    fn naming_helpers_match_the_elaborated_hierarchy() {
        // The contract: `cfg_bit_name`/`ff_bit_name` over `le_path` are
        // exactly the hierarchical DFF-bit names the gate-level
        // elaborator assigns to the emitted netlist's registers.
        let (m, p) = fixture(
            "module r(input wire clk, input wire [3:0] d, output reg [3:0] q);\
             always @(posedge clk) q <= d ^ {d[0], d[3:1]}; endmodule",
            "r",
        );
        let text = format!("{}{}", le_primitive(), fabric_netlist("r_efpga", &m, &p));
        let f = parse_source(&text).expect("parse");
        let n = elaborate(&f, "r_efpga").expect("elab");
        let dff_names: std::collections::BTreeSet<Symbol> = n
            .dff_records()
            .iter()
            .map(|(_, name, _, _)| *name)
            .collect();
        let base = HierPath::intern("r_efpga");
        for (i, lc) in le_configs(&m, &p).iter().enumerate() {
            let le = le_path(base, i);
            for b in 0..17 {
                assert!(
                    dff_names.contains(&cfg_bit_name(le, b)),
                    "missing {}",
                    cfg_bit_name(le, b)
                );
            }
            if lc.dff.is_some() {
                assert!(
                    dff_names.contains(&ff_bit_name(le)),
                    "missing {}",
                    ff_bit_name(le)
                );
            }
        }
    }

    #[test]
    fn sequential_design_emits_ff_les() {
        let (m, p) = fixture(
            "module r(input wire clk, input wire d, output reg q);\
             always @(posedge clk) q <= d; endmodule",
            "r",
        );
        let text = fabric_netlist("r_efpga", &m, &p);
        let f = parse_source(&format!("{}{}", le_primitive(), text)).expect("parses");
        // clk must not be duplicated.
        let fab = f.module("r_efpga").expect("exists");
        let clk_ports = fab.ports.iter().filter(|p| p.name == "clk").count();
        assert_eq!(clk_ports, 1);
    }
}
