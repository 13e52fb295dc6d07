//! Serializers for the artifact types the `DesignDb` oracles cache:
//! elaborated [`Netlist`]s, LUT-mapped [`MappedNetlist`]s, and fabric
//! characterizations ([`EfpgaImpl`], or the infeasibility message).
//!
//! Every decoder validates structurally — index references are bounds-
//! checked, enum tags are exhaustive — so a corrupted (but checksum-
//! passing) payload yields a [`CodecError`], never a panic downstream.
//! Interned names serialize as strings and re-intern on load.

use crate::codec::{CodecError, Reader, Writer};
use alice_fabric::pack::{Clb, LogicElement, Packing};
use alice_fabric::{EfpgaImpl, FabricSize};
use alice_netlist::ir::{Lit, Netlist, Node, NodeId};
use alice_netlist::lutmap::{Lut, MappedDff, MappedNetlist, MappedSrc};

fn bad(context: &'static str) -> CodecError {
    CodecError { context }
}

/// Writes a `Result<(), message>`-style tag: `1` then the value follows,
/// or `0` then the error string follows.
pub fn write_result_tag(w: &mut Writer, ok: bool) {
    w.put_u8(ok as u8);
}

/// Reads the tag written by [`write_result_tag`].
pub fn read_result_tag(r: &mut Reader<'_>) -> Result<bool, CodecError> {
    match r.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(bad("result tag")),
    }
}

// ---------------------------------------------------------------- netlist

/// Serializes an elaborated netlist.
pub fn write_netlist(w: &mut Writer, n: &Netlist) {
    w.put_str(&n.name);
    w.put_usize(n.nodes().len());
    for node in n.nodes() {
        match node {
            Node::Const0 => w.put_u8(0),
            Node::Input { name } => {
                w.put_u8(1);
                w.put_symbol(*name);
            }
            Node::And(a, b) => {
                w.put_u8(2);
                w.put_u32(a.raw());
                w.put_u32(b.raw());
            }
            Node::Xor(a, b) => {
                w.put_u8(3);
                w.put_u32(a.raw());
                w.put_u32(b.raw());
            }
            Node::Mux { s, t, e } => {
                w.put_u8(4);
                w.put_u32(s.raw());
                w.put_u32(t.raw());
                w.put_u32(e.raw());
            }
            Node::Dff { d, init, name } => {
                w.put_u8(5);
                w.put_u32(d.raw());
                w.put_bool(*init);
                w.put_symbol(*name);
            }
            Node::Buf(a) => {
                w.put_u8(6);
                w.put_u32(a.raw());
            }
        }
    }
    w.put_usize(n.inputs.len());
    for (name, bits) in &n.inputs {
        w.put_symbol(*name);
        w.put_usize(bits.len());
        for b in bits {
            w.put_u32(b.0);
        }
    }
    w.put_usize(n.outputs.len());
    for (name, bits) in &n.outputs {
        w.put_symbol(*name);
        w.put_usize(bits.len());
        for b in bits {
            w.put_u32(b.raw());
        }
    }
}

/// Deserializes a netlist written by [`write_netlist`].
pub fn read_netlist(r: &mut Reader<'_>) -> Result<Netlist, CodecError> {
    let name = r.get_str()?.to_string();
    let node_count = r.get_usize()?;
    // A literal is valid when its node index stays inside the list.
    let lit = |r: &mut Reader<'_>| -> Result<Lit, CodecError> {
        let raw = r.get_u32()?;
        let node = raw >> 1;
        if node as usize >= node_count {
            return Err(bad("literal node index"));
        }
        Ok(Lit::new(NodeId(node), raw & 1 == 1))
    };
    let mut nodes = Vec::new();
    // Not get_seq: node_count is validated per-item by the tag reads.
    if node_count > u32::MAX as usize {
        return Err(bad("node count"));
    }
    for i in 0..node_count {
        let node = match r.get_u8()? {
            0 => Node::Const0,
            1 => Node::Input {
                name: r.get_symbol()?,
            },
            2 => Node::And(lit(r)?, lit(r)?),
            3 => Node::Xor(lit(r)?, lit(r)?),
            4 => Node::Mux {
                s: lit(r)?,
                t: lit(r)?,
                e: lit(r)?,
            },
            5 => Node::Dff {
                d: lit(r)?,
                init: r.get_bool()?,
                name: r.get_symbol()?,
            },
            6 => Node::Buf(lit(r)?),
            _ => return Err(bad("node tag")),
        };
        if i == 0 && !matches!(node, Node::Const0) {
            return Err(bad("node 0 must be the constant"));
        }
        nodes.push(node);
    }
    let node_id = |r: &mut Reader<'_>| -> Result<NodeId, CodecError> {
        let id = r.get_u32()?;
        if id as usize >= node_count {
            return Err(bad("input node index"));
        }
        Ok(NodeId(id))
    };
    let inputs = r.get_seq(8, |r| {
        let name = r.get_symbol()?;
        let bits = r.get_seq(4, node_id)?;
        Ok((name, bits))
    })?;
    let outputs = r.get_seq(8, |r| {
        let name = r.get_symbol()?;
        let bits = r.get_seq(4, |r| lit(r))?;
        Ok((name, bits))
    })?;
    Ok(Netlist::from_parts(name, nodes, inputs, outputs))
}

// ----------------------------------------------------------- mapped netlist

fn write_src(w: &mut Writer, s: &MappedSrc) {
    match s {
        MappedSrc::Const(b) => {
            w.put_u8(0);
            w.put_bool(*b);
        }
        MappedSrc::Pi(i) => {
            w.put_u8(1);
            w.put_usize(*i);
        }
        MappedSrc::Lut(i) => {
            w.put_u8(2);
            w.put_usize(*i);
        }
        MappedSrc::Dff(i) => {
            w.put_u8(3);
            w.put_usize(*i);
        }
    }
}

fn read_src(
    r: &mut Reader<'_>,
    pis: usize,
    luts: usize,
    dffs: usize,
) -> Result<MappedSrc, CodecError> {
    let check = |i: usize, bound: usize, what: &'static str| {
        if i < bound {
            Ok(i)
        } else {
            Err(bad(what))
        }
    };
    Ok(match r.get_u8()? {
        0 => MappedSrc::Const(r.get_bool()?),
        1 => MappedSrc::Pi(check(r.get_usize()?, pis, "pi index")?),
        2 => MappedSrc::Lut(check(r.get_usize()?, luts, "lut index")?),
        3 => MappedSrc::Dff(check(r.get_usize()?, dffs, "dff index")?),
        _ => Err(bad("mapped-src tag"))?,
    })
}

/// Serializes a LUT-mapped network.
pub fn write_mapped(w: &mut Writer, m: &MappedNetlist) {
    w.put_str(&m.name);
    w.put_u32(m.k);
    w.put_usize(m.input_names.len());
    for n in &m.input_names {
        w.put_symbol(*n);
    }
    w.put_usize(m.inputs.len());
    for (name, idxs) in &m.inputs {
        w.put_symbol(*name);
        w.put_usize(idxs.len());
        for &i in idxs {
            w.put_usize(i);
        }
    }
    w.put_usize(m.luts.len());
    for lut in &m.luts {
        w.put_u64(lut.tt);
        w.put_usize(lut.inputs.len());
        for s in &lut.inputs {
            write_src(w, s);
        }
    }
    w.put_usize(m.dffs.len());
    for d in &m.dffs {
        write_src(w, &d.d);
        w.put_bool(d.init);
    }
    w.put_usize(m.dff_names.len());
    for n in &m.dff_names {
        w.put_symbol(*n);
    }
    w.put_usize(m.outputs.len());
    for (name, bits) in &m.outputs {
        w.put_symbol(*name);
        w.put_usize(bits.len());
        for s in bits {
            write_src(w, s);
        }
    }
}

/// Deserializes a network written by [`write_mapped`].
pub fn read_mapped(r: &mut Reader<'_>) -> Result<MappedNetlist, CodecError> {
    let name = r.get_str()?.to_string();
    let k = r.get_u32()?;
    let input_names = r.get_seq(8, |r| r.get_symbol())?;
    let pis = input_names.len();
    let inputs = r.get_seq(8, |r| {
        let name = r.get_symbol()?;
        let idxs = r.get_seq(8, |r| {
            let i = r.get_usize()?;
            if i >= pis {
                return Err(bad("input pi index"));
            }
            Ok(i)
        })?;
        Ok((name, idxs))
    })?;
    let lut_frames = r.get_seq(16, |r| {
        let tt = r.get_u64()?;
        // Sources may reference later LUT indices only through DFFs, but
        // the index bound needs the final count — collect raw first.
        let srcs = r.get_seq(2, |r| {
            let tag = r.get_u8()?;
            let v = match tag {
                0 => r.get_bool()? as usize,
                1..=3 => r.get_usize()?,
                _ => return Err(bad("mapped-src tag")),
            };
            Ok((tag, v))
        })?;
        Ok((tt, srcs))
    })?;
    let lut_count = lut_frames.len();
    let resolve = |(tag, v): (u8, usize), dffs: usize| -> Result<MappedSrc, CodecError> {
        Ok(match tag {
            0 => MappedSrc::Const(v != 0),
            1 if v < pis => MappedSrc::Pi(v),
            2 if v < lut_count => MappedSrc::Lut(v),
            3 if v < dffs => MappedSrc::Dff(v),
            _ => return Err(bad("mapped-src index")),
        })
    };
    let dff_frames = r.get_seq(3, |r| {
        let tag = r.get_u8()?;
        let v = match tag {
            0 => r.get_bool()? as usize,
            1..=3 => r.get_usize()?,
            _ => return Err(bad("mapped-src tag")),
        };
        let init = r.get_bool()?;
        Ok(((tag, v), init))
    })?;
    let dff_count = dff_frames.len();
    let luts = lut_frames
        .into_iter()
        .map(|(tt, srcs)| {
            let inputs = srcs
                .into_iter()
                .map(|f| resolve(f, dff_count))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Lut { inputs, tt })
        })
        .collect::<Result<Vec<_>, CodecError>>()?;
    let dffs = dff_frames
        .into_iter()
        .map(|(f, init)| {
            Ok(MappedDff {
                d: resolve(f, dff_count)?,
                init,
            })
        })
        .collect::<Result<Vec<_>, CodecError>>()?;
    let dff_names = r.get_seq(8, |r| r.get_symbol())?;
    if dff_names.len() != dff_count {
        return Err(bad("dff name count"));
    }
    let outputs = r.get_seq(8, |r| {
        let name = r.get_symbol()?;
        let bits = r.get_seq(2, |r| read_src(r, pis, lut_count, dff_count))?;
        Ok((name, bits))
    })?;
    Ok(MappedNetlist {
        name,
        k,
        input_names,
        inputs,
        luts,
        dffs,
        dff_names,
        outputs,
    })
}

// ------------------------------------------------------------------ fabric

/// Serializes a fabric characterization.
pub fn write_efpga(w: &mut Writer, e: &EfpgaImpl) {
    w.put_u32(e.size.width);
    w.put_u32(e.size.height);
    w.put_usize(e.packing.le_count);
    w.put_usize(e.packing.clbs.len());
    for clb in &e.packing.clbs {
        w.put_usize(clb.les.len());
        for le in &clb.les {
            let opt = |w: &mut Writer, v: Option<usize>| match v {
                Some(i) => {
                    w.put_u8(1);
                    w.put_usize(i);
                }
                None => w.put_u8(0),
            };
            opt(w, le.lut);
            opt(w, le.dff);
        }
    }
    w.put_f64(e.io_util);
    w.put_f64(e.clb_util);
}

/// Deserializes a characterization written by [`write_efpga`].
pub fn read_efpga(r: &mut Reader<'_>) -> Result<EfpgaImpl, CodecError> {
    let size = FabricSize {
        width: r.get_u32()?,
        height: r.get_u32()?,
    };
    let le_count = r.get_usize()?;
    let clbs = r.get_seq(8, |r| {
        let les = r.get_seq(2, |r| {
            let opt = |r: &mut Reader<'_>| -> Result<Option<usize>, CodecError> {
                match r.get_u8()? {
                    0 => Ok(None),
                    1 => Ok(Some(r.get_usize()?)),
                    _ => Err(bad("option tag")),
                }
            };
            Ok(LogicElement {
                lut: opt(r)?,
                dff: opt(r)?,
            })
        })?;
        Ok(Clb { les })
    })?;
    Ok(EfpgaImpl {
        size,
        packing: Packing { clbs, le_count },
        io_util: r.get_f64()?,
        clb_util: r.get_f64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alice_fabric::{create_efpga, FabricArch};
    use alice_netlist::elaborate::elaborate;
    use alice_netlist::lutmap::map_luts;
    use alice_verilog::parse_source;

    const SRC: &str = r#"
module m(input wire clk, input wire [7:0] a, input wire [7:0] b,
         output wire [7:0] y, output reg [7:0] q);
  assign y = (a & b) ^ (a + b);
  always @(posedge clk) q <= y + q;
endmodule
"#;

    fn substrate() -> (Netlist, MappedNetlist, EfpgaImpl) {
        let f = parse_source(SRC).expect("parse");
        let n = elaborate(&f, "m").expect("elaborate");
        let m = map_luts(&n, 4).expect("map");
        let e = create_efpga(&m, &FabricArch::default()).expect("fits");
        (n, m, e)
    }

    #[test]
    fn netlist_round_trips_exactly() {
        let (n, _, _) = substrate();
        let mut w = Writer::new();
        write_netlist(&mut w, &n);
        let bytes = w.into_bytes();
        let back = read_netlist(&mut Reader::new(&bytes)).expect("decode");
        assert_eq!(back.name, n.name);
        assert_eq!(back.len(), n.len());
        assert_eq!(back.structural_hash(), n.structural_hash());
        assert_eq!(
            back.structural_hash_namefree(),
            n.structural_hash_namefree()
        );
        // And the rebuilt netlist maps to the identical network.
        let m1 = map_luts(&n, 4).expect("map");
        let m2 = map_luts(&back, 4).expect("map");
        assert_eq!(m1.structural_hash(), m2.structural_hash());
    }

    #[test]
    fn mapped_round_trips_exactly() {
        let (_, m, _) = substrate();
        let mut w = Writer::new();
        write_mapped(&mut w, &m);
        let bytes = w.into_bytes();
        let back = read_mapped(&mut Reader::new(&bytes)).expect("decode");
        assert_eq!(back.name, m.name);
        assert_eq!(back.k, m.k);
        assert_eq!(back.luts, m.luts);
        assert_eq!(back.dffs, m.dffs);
        assert_eq!(back.dff_names, m.dff_names);
        assert_eq!(back.outputs, m.outputs);
        assert_eq!(back.structural_hash(), m.structural_hash());
    }

    #[test]
    fn efpga_round_trips_exactly() {
        let (_, _, e) = substrate();
        let mut w = Writer::new();
        write_efpga(&mut w, &e);
        let bytes = w.into_bytes();
        let back = read_efpga(&mut Reader::new(&bytes)).expect("decode");
        assert_eq!(back.size, e.size);
        assert_eq!(back.packing.clbs, e.packing.clbs);
        assert_eq!(back.packing.le_count, e.packing.le_count);
        assert_eq!(back.io_util, e.io_util);
        assert_eq!(back.clb_util, e.clb_util);
    }

    #[test]
    fn every_truncation_fails_cleanly() {
        let (n, m, e) = substrate();
        let mut w = Writer::new();
        write_netlist(&mut w, &n);
        let nb = w.into_bytes();
        let mut w = Writer::new();
        write_mapped(&mut w, &m);
        let mb = w.into_bytes();
        let mut w = Writer::new();
        write_efpga(&mut w, &e);
        let eb = w.into_bytes();
        for cut in (0..nb.len()).step_by(7) {
            assert!(read_netlist(&mut Reader::new(&nb[..cut])).is_err());
        }
        for cut in (0..mb.len()).step_by(7) {
            assert!(read_mapped(&mut Reader::new(&mb[..cut])).is_err());
        }
        for cut in (0..eb.len()).step_by(7) {
            assert!(read_efpga(&mut Reader::new(&eb[..cut])).is_err());
        }
    }

    #[test]
    fn out_of_range_indices_are_rejected() {
        let (_, m, _) = substrate();
        let mut w = Writer::new();
        write_mapped(&mut w, &m);
        let bytes = w.into_bytes();
        // A decode of the pristine bytes works; scan single-bit flips in
        // the tail section and require error-or-valid, never a panic.
        assert!(read_mapped(&mut Reader::new(&bytes)).is_ok());
        for i in (0..bytes.len()).step_by(11) {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x10;
            let _ = read_mapped(&mut Reader::new(&mutated));
        }
    }
}
