//! Redacted-design generation (§6, last paragraph of the paper).
//!
//! Replaces the selected instances with eFPGA instances:
//!
//! * the insertion point of each eFPGA is the lowest common dominator of
//!   its members in the instance hierarchy (single-parent clusters insert
//!   in place),
//! * member signals are re-routed to the fabric's GPIO ports; when
//!   members live in different sub-modules, new ports are punched through
//!   the intermediate modules (which are uniquified first so unrelated
//!   instances of the same module stay untouched),
//! * the configuration-chain controls (`cfg_clk`, `cfg_en`, per-fabric
//!   `cfg_in`/`cfg_out`) are propagated to the top module,
//! * the fabric netlists are emitted separately; their bitstreams are the
//!   secret and never appear in the ASIC-bound output.

use crate::config::AliceConfig;
use crate::db::DesignDb;
use crate::design::Design;
use crate::error::AliceError;
use crate::filter::Candidate;
use crate::select::{sanitize, ClusterMapper, SelectionResult};
use alice_fabric::emit::{
    cfg_bit_name, config_stream, fabric_netlist, ff_bit_name, le_configs, le_path, le_primitive,
    LE_INPUTS,
};
use alice_fabric::FabricSize;
use alice_intern::{HierPath, PathTree, Symbol};
use alice_verilog::ast::*;
use alice_verilog::hierarchy::const_eval;
use alice_verilog::print_source;
use std::collections::BTreeMap;

/// One deployed eFPGA in the redacted design.
#[derive(Debug, Clone)]
pub struct RedactedEfpga {
    /// Fabric module name, e.g. `alice_efpga0_4x4` (interned).
    pub module_name: Symbol,
    /// Fabric size.
    pub size: FabricSize,
    /// Redacted instance paths (typed hierarchical paths).
    pub instances: Vec<HierPath>,
    /// The bitstream (the secret): the serial stream for the emitted
    /// netlist's config chain.
    pub config_stream: Vec<bool>,
    /// Hierarchy path where the fabric was inserted.
    pub insertion_point: HierPath,
    /// Configuration/state binding for equivalence checking.
    pub binding: VerifyBinding,
}

/// How a deployed fabric's elaborated state maps back onto the original
/// design — the glue between [`alice_fabric::emit::le_configs`] and the
/// CEC miter's name-based pairing.
#[derive(Debug, Clone, Default)]
pub struct VerifyBinding {
    /// Configuration-register pins: hierarchical DFF bit name in the
    /// *redacted* elaboration (e.g. `top.u_alice_efpga0.le3.cfg[7]`) →
    /// the value the correct bitstream loads there.
    pub cfg_pins: Vec<(Symbol, bool)>,
    /// Fabric FF → original register: hierarchical DFF name in the
    /// redacted elaboration (`…le3.ff[0]`) → the original design's
    /// register-bit name it replaces (e.g. `top.u_rega.q[2]`).
    pub state_map: Vec<(Symbol, Symbol)>,
    /// Indices into `cfg_pins` of *meaningful* key bits: truth-table bits
    /// at input patterns the configured LUT can actually see. Wrong-key
    /// sweeps flip these (flipping padding bits would prove nothing).
    pub key_bits: Vec<usize>,
}

/// The output of the redaction phase.
#[derive(Debug, Clone)]
pub struct RedactedDesign {
    /// The modified design (Top ASIC module of Figure 3), fabric modules
    /// *not* included.
    pub top_asic: SourceFile,
    /// Verilog for the fabrics (LE primitive + one module per eFPGA).
    pub fabric_verilog: String,
    /// Per-eFPGA records.
    pub efpgas: Vec<RedactedEfpga>,
}

impl RedactedDesign {
    /// The redacted design as Verilog text.
    pub fn top_asic_verilog(&self) -> String {
        print_source(&self.top_asic)
    }

    /// Everything needed for simulation: redacted design + fabrics.
    pub fn combined_verilog(&self) -> String {
        format!("{}\n{}", self.top_asic_verilog(), self.fabric_verilog)
    }
}

/// Per-member port rerouting record.
#[derive(Debug, Clone)]
struct PunchPort {
    /// Unique signal name (`{sanitized_member_path}_{port}`).
    name: String,
    /// Direction *at the fabric*: `Input` = toward the fabric.
    fabric_dir: Direction,
    width: u32,
    /// The redacted member instance this signal reroutes.
    member_path: HierPath,
    /// The member's port the signal replaces.
    member_port: Symbol,
}

/// Applies the best solution of `selection` to the design.
///
/// # Errors
///
/// Returns [`AliceError::Map`] when `cfg.arch.lut_inputs` exceeds
/// [`LE_INPUTS`], and [`AliceError::NoSolution`] when the selection found
/// nothing.
pub fn redact(
    design: &Design,
    r: &[Candidate],
    selection: &SelectionResult,
    cfg: &AliceConfig,
    db: &DesignDb,
) -> Result<RedactedDesign, AliceError> {
    if cfg.arch.lut_inputs > LE_INPUTS {
        return Err(AliceError::Map(format!(
            "{}-input LUTs do not fit the emitted {LE_INPUTS}-input logic element",
            cfg.arch.lut_inputs
        )));
    }
    let best = selection.best.as_ref().ok_or(AliceError::NoSolution)?;
    let mut file = design.file.clone();
    let mut fabric_verilog = le_primitive();
    let mut efpgas = Vec::new();
    let mut mapper = ClusterMapper::new(design, cfg.arch.lut_inputs, db);
    let mut uniq_counter = 0usize;

    for (e_idx, &vi) in best.efpgas.iter().enumerate() {
        let chosen = &selection.valid[vi];
        let members: Vec<HierPath> = chosen.cluster.iter().map(|&i| r[i].path).collect();
        // Re-map the cluster to regenerate netlist + streams.
        let network = mapper
            .cluster_network(&chosen.cluster, r)
            .map_err(|e| AliceError::Map(e.to_string()))?;
        let fabric_mod = Symbol::intern(&format!("alice_efpga{e_idx}_{}", chosen.efpga.size));
        fabric_verilog.push('\n');
        fabric_verilog.push_str(&fabric_netlist(
            fabric_mod.as_str(),
            &network,
            &chosen.efpga.packing,
        ));
        let stream = config_stream(&network, &chosen.efpga.packing);

        // Punch list: every member port becomes a uniquely-named signal.
        let mut punches: Vec<PunchPort> = Vec::new();
        for &m in &members {
            let module = design
                .module_of(m)
                .ok_or_else(|| AliceError::Inconsistent(format!("no module for {m}")))?;
            let mdef = design
                .file
                .module(module.as_str())
                .ok_or_else(|| AliceError::Inconsistent(format!("no def for {module}")))?;
            for p in &mdef.ports {
                let width = port_width_of(mdef, p)
                    .ok_or_else(|| AliceError::Inconsistent(format!("width of {}", p.name)))?;
                punches.push(PunchPort {
                    name: format!("{}_{}", sanitize(m.as_str()), p.name),
                    fabric_dir: match p.dir {
                        Direction::Input => Direction::Input,
                        Direction::Output | Direction::Inout => Direction::Output,
                    },
                    width,
                    member_path: m,
                    member_port: Symbol::intern(&p.name),
                });
            }
        }

        let lca = common_parent(&design.paths, &members);
        let inst_name = format!("u_alice_efpga{e_idx}");
        let binding = build_binding(
            &mut mapper,
            &chosen.cluster,
            r,
            &network,
            &chosen.efpga.packing,
            lca.join(&inst_name),
        )?;
        rewrite_tree(
            &mut file,
            design,
            lca,
            &members,
            &punches,
            fabric_mod,
            &inst_name,
            e_idx,
            &mut uniq_counter,
        )?;
        // Propagate config pins from the LCA up to the top.
        punch_cfg_up(&mut file, design, lca, e_idx)?;

        efpgas.push(RedactedEfpga {
            module_name: fabric_mod,
            size: chosen.efpga.size,
            instances: members,
            config_stream: stream,
            insertion_point: lca,
            binding,
        });
    }
    Ok(RedactedDesign {
        top_asic: file,
        fabric_verilog,
        efpgas,
    })
}

/// Builds the [`VerifyBinding`] for one deployed fabric: resolves each
/// emitted LE's configuration ([`le_configs`]) to the hierarchical
/// `cfg`-register names of the redacted elaboration (via the emitter's
/// own naming contract — [`le_path`]/[`cfg_bit_name`]/[`ff_bit_name`]),
/// and pairs each FF-hosting LE with the original register bit it
/// replaces.
fn build_binding(
    mapper: &mut ClusterMapper<'_>,
    cluster: &crate::cluster::Cluster,
    r: &[Candidate],
    network: &alice_netlist::lutmap::MappedNetlist,
    packing: &alice_fabric::pack::Packing,
    inst_path: HierPath,
) -> Result<VerifyBinding, AliceError> {
    // Original-design register names for the merged cluster's DFFs, in
    // the same member-by-member order the merge concatenated them.
    let mut orig_dff_names: Vec<Symbol> = Vec::new();
    for &ci in cluster.iter() {
        let module = r[ci].module;
        let mm = mapper.module(module)?;
        for local in &mm.dff_names {
            // Standalone elaboration names registers `{module}.{reg}[{b}]`;
            // in the full design that instance lives at the member path.
            let local = local.as_str();
            let rest = local.strip_prefix(&format!("{module}.")).unwrap_or(local);
            orig_dff_names.push(r[ci].path.join(rest).symbol());
        }
    }
    if orig_dff_names.len() != network.dffs.len() {
        return Err(AliceError::Inconsistent(format!(
            "cluster DFF name count {} != merged DFF count {}",
            orig_dff_names.len(),
            network.dffs.len()
        )));
    }
    let mut binding = VerifyBinding::default();
    for (i, lc) in le_configs(network, packing).iter().enumerate() {
        let le = le_path(inst_path, i);
        let pin_base = binding.cfg_pins.len();
        for (b, &v) in lc.cfg_bits().iter().enumerate() {
            binding.cfg_pins.push((cfg_bit_name(le, b), v));
        }
        if let Some(l) = lc.lut {
            // Only patterns the wired inputs can reach are real key bits.
            let patterns = (1usize << network.luts[l].inputs.len()).min(16);
            binding.key_bits.extend((0..patterns).map(|p| pin_base + p));
        }
        if let Some(d) = lc.dff {
            binding.state_map.push((ff_bit_name(le), orig_dff_names[d]));
        }
    }
    Ok(binding)
}

/// Constant port width with the module's default parameters.
fn port_width_of(m: &Module, p: &Port) -> Option<u32> {
    let mut env = BTreeMap::new();
    for par in &m.params {
        env.insert(par.name.clone(), const_eval(&par.value, &env)?);
    }
    match &p.range {
        None => Some(1),
        Some(r) => {
            let msb = const_eval(&r.msb, &env)?;
            let lsb = const_eval(&r.lsb, &env)?;
            Some((msb - lsb).unsigned_abs() as u32 + 1)
        }
    }
}

/// Lowest common ancestor of the members' parents, walked on the
/// design's instance [`PathTree`] via [`PathTree::common_parent`]
/// (ancestor queries follow real hierarchy edges, so no string
/// inspection happens at all). The caller guarantees a non-empty member
/// set — a selected cluster always has members.
fn common_parent(paths: &PathTree, members: &[HierPath]) -> HierPath {
    paths
        .common_parent(members)
        .expect("a selected cluster has at least one member")
}

/// Direction of a punched signal as a port of a module *below* the LCA:
/// signals toward the fabric flow up (outputs), signals from the fabric
/// flow down (inputs).
fn punched_port_dir(fabric_dir: Direction) -> Direction {
    match fabric_dir {
        Direction::Input => Direction::Output,
        _ => Direction::Input,
    }
}

/// Rewrites the subtree rooted at `lca`: removes member instances, punches
/// their ports up to the LCA, and instantiates the fabric there. Modules
/// below the LCA on affected routes are uniquified.
#[allow(clippy::too_many_arguments)]
fn rewrite_tree(
    file: &mut SourceFile,
    design: &Design,
    lca: HierPath,
    members: &[HierPath],
    punches: &[PunchPort],
    fabric_mod: Symbol,
    fabric_inst: &str,
    e_idx: usize,
    uniq_counter: &mut usize,
) -> Result<(), AliceError> {
    // Recursive rewrite; returns the punched ports this node exposes.
    #[allow(clippy::too_many_arguments)]
    fn go(
        file: &mut SourceFile,
        design: &Design,
        node_path: HierPath,
        node_module: &str,
        members: &[HierPath],
        punches: &[PunchPort],
        is_lca: bool,
        fabric_mod: Symbol,
        fabric_inst: &str,
        e_idx: usize,
        uniq_counter: &mut usize,
    ) -> Result<(String, Vec<PunchPort>), AliceError> {
        let mdef = file
            .module(node_module)
            .ok_or_else(|| AliceError::Inconsistent(format!("missing module {node_module}")))?
            .clone();
        let mut new = mdef.clone();
        // Uniquify everything below the top (the top has a single instance).
        let new_name = if is_lca && node_path.symbol() == design.hierarchy.top {
            mdef.name.clone()
        } else {
            *uniq_counter += 1;
            format!("{}_rdt{}", mdef.name, *uniq_counter)
        };
        new.name = new_name.clone();

        let mut exposed: Vec<PunchPort> = Vec::new();
        // Fabric connections available at this node (LCA only).
        let mut fabric_conns: Vec<(String, Option<Expr>)> = Vec::new();

        let mut new_items: Vec<Item> = Vec::new();
        let old_items = std::mem::take(&mut new.items);
        for item in old_items {
            let Item::Instance(inst) = item else {
                new_items.push(item);
                continue;
            };
            let child_path = node_path.join(&inst.name);
            if members.contains(&child_path) {
                // Remove this member; its connections feed the punch list.
                let child_mod = design
                    .file
                    .module(&inst.module)
                    .ok_or_else(|| AliceError::Inconsistent(format!("missing {}", inst.module)))?;
                let conns = normalize(child_mod, &inst);
                for pp in punches.iter().filter(|p| p.member_path == child_path) {
                    let conn = conns
                        .iter()
                        .find(|(n, _)| pp.member_port == n.as_str())
                        .and_then(|(_, e)| e.clone());
                    match pp.fabric_dir {
                        Direction::Input => {
                            // Design value flows to the fabric.
                            let expr = conn.unwrap_or_else(|| Expr::sized(0, pp.width));
                            if is_lca {
                                fabric_conns.push((pp.name.clone(), Some(expr)));
                            } else {
                                // Expose as an output port driven here.
                                new_items.push(Item::Assign(Assign {
                                    lhs: LValue::Id(pp.name.clone()),
                                    rhs: expr,
                                }));
                                exposed.push(pp.clone());
                            }
                        }
                        _ => {
                            // Fabric drives the design.
                            match conn {
                                None => {
                                    if is_lca {
                                        fabric_conns.push((pp.name.clone(), None));
                                    } else {
                                        exposed.push(pp.clone());
                                    }
                                }
                                Some(expr) => {
                                    let lv = expr_to_lvalue(&expr).ok_or_else(|| {
                                        AliceError::Inconsistent(format!(
                                            "output `{}` of {} connects to a non-lvalue",
                                            pp.member_port, child_path
                                        ))
                                    })?;
                                    if is_lca {
                                        // Connect the fabric output port
                                        // straight to the member's old
                                        // target expression, exactly like
                                        // the removed instance did. (A
                                        // wire + assign indirection here
                                        // breaks feedback-through-instance
                                        // elaboration: instance outputs
                                        // are stored eagerly, assigns are
                                        // not.)
                                        let _ = lv;
                                        fabric_conns.push((pp.name.clone(), Some(expr)));
                                    } else {
                                        new_items.push(Item::Assign(Assign {
                                            lhs: lv,
                                            rhs: Expr::id(pp.name.clone()),
                                        }));
                                        exposed.push(pp.clone());
                                    }
                                }
                            }
                        }
                    }
                }
                continue; // instance removed
            }
            // Does this child's subtree contain members?
            let has_members = members.iter().any(|&m| child_path.is_ancestor_of(m));
            if !has_members {
                new_items.push(Item::Instance(inst));
                continue;
            }
            // Recurse into the child and rewire its punched ports.
            let (child_new_mod, child_ports) = go(
                file,
                design,
                child_path,
                &inst.module,
                members,
                punches,
                false,
                fabric_mod,
                fabric_inst,
                e_idx,
                uniq_counter,
            )?;
            let child_def = design
                .file
                .module(&inst.module)
                .expect("existed for recursion");
            let mut conns = normalize(child_def, &inst);
            for pp in &child_ports {
                if is_lca {
                    // Local wire between child port and fabric port.
                    new_items.push(Item::Net(NetDecl {
                        kind: NetKind::Wire,
                        name: pp.name.clone(),
                        range: range_of(pp.width),
                        init: None,
                    }));
                    fabric_conns.push((pp.name.clone(), Some(Expr::id(&pp.name))));
                    conns.push((pp.name.clone(), Some(Expr::id(&pp.name))));
                } else {
                    // Pass straight through.
                    conns.push((pp.name.clone(), Some(Expr::id(&pp.name))));
                    exposed.push(pp.clone());
                }
            }
            new_items.push(Item::Instance(Instance {
                module: child_new_mod,
                name: inst.name,
                params: inst.params,
                conns: PortConns::Named(conns),
            }));
        }

        // Expose punched ports on this module (below the LCA).
        for pp in &exposed {
            new.ports.push(Port {
                dir: punched_port_dir(pp.fabric_dir),
                is_reg: false,
                name: pp.name.clone(),
                range: range_of(pp.width),
            });
        }

        if is_lca {
            // Configuration pins and the fabric instance.
            new.ports.push(Port {
                dir: Direction::Input,
                is_reg: false,
                name: "cfg_clk".into(),
                range: None,
            });
            new.ports.push(Port {
                dir: Direction::Input,
                is_reg: false,
                name: "cfg_en".into(),
                range: None,
            });
            new.ports.push(Port {
                dir: Direction::Input,
                is_reg: false,
                name: format!("cfg_in_e{e_idx}"),
                range: None,
            });
            new.ports.push(Port {
                dir: Direction::Output,
                is_reg: false,
                name: format!("cfg_out_e{e_idx}"),
                range: None,
            });
            // De-duplicate cfg_clk/cfg_en if a previous eFPGA added them.
            dedup_ports(&mut new);
            let mut conns: Vec<(String, Option<Expr>)> = vec![
                ("cfg_clk".into(), Some(Expr::id("cfg_clk"))),
                ("cfg_en".into(), Some(Expr::id("cfg_en"))),
                ("cfg_in".into(), Some(Expr::id(format!("cfg_in_e{e_idx}")))),
                (
                    "cfg_out".into(),
                    Some(Expr::id(format!("cfg_out_e{e_idx}"))),
                ),
            ];
            // Fabric clock: reuse a redacted clock signal when one exists.
            let clk_conn = fabric_conns
                .iter()
                .find(|(n, _)| n.ends_with("_clk"))
                .and_then(|(_, e)| e.clone())
                .unwrap_or_else(|| Expr::id("cfg_clk"));
            conns.push(("clk".into(), Some(clk_conn)));
            conns.extend(fabric_conns);
            new_items.push(Item::Instance(Instance {
                module: fabric_mod.as_str().to_string(),
                name: fabric_inst.to_string(),
                params: vec![],
                conns: PortConns::Named(conns),
            }));
        }

        new.items = new_items;
        file.modules.push(new);
        Ok((new_name, exposed))
    }

    // Resolve the LCA's module name in the *current* (possibly already
    // rewritten) file: walk the hierarchy from the top following renamed
    // instances.
    let lca_module = resolve_module_at(file, design, lca)?;
    let (new_lca_mod, exposed) = go(
        file,
        design,
        lca,
        &lca_module,
        members,
        punches,
        true,
        fabric_mod,
        fabric_inst,
        e_idx,
        uniq_counter,
    )?;
    if !exposed.is_empty() {
        return Err(AliceError::Inconsistent(
            "LCA must not expose punched ports".into(),
        ));
    }
    // Re-point the instance referring to the old LCA module (if not top).
    if lca.symbol() != design.hierarchy.top {
        repoint_instance(file, design, lca, &new_lca_mod)?;
    } else {
        // Replace the top definition: the rewritten copy keeps the name, so
        // drop the stale original (the rewritten one was pushed last).
        let top_name = design.hierarchy.top.to_string();
        let last_idx = file.modules.len() - 1;
        let first_idx = file
            .modules
            .iter()
            .position(|m| m.name == top_name)
            .expect("top exists");
        if first_idx != last_idx {
            file.modules.swap_remove(first_idx);
        }
    }
    Ok(())
}

/// Follows the (possibly rewritten) hierarchy to find the module
/// implementing `path` in the current file.
fn resolve_module_at(
    file: &SourceFile,
    design: &Design,
    path: HierPath,
) -> Result<String, AliceError> {
    let mut cur = design.hierarchy.top.to_string();
    for seg in path.segments().skip(1) {
        let m = file
            .module(&cur)
            .ok_or_else(|| AliceError::Inconsistent(format!("missing module {cur}")))?;
        let inst = m
            .instances()
            .find(|i| i.name == seg)
            .ok_or_else(|| AliceError::Inconsistent(format!("no instance {seg} in {cur}")))?;
        cur = inst.module.clone();
    }
    Ok(cur)
}

/// Renames the module reference of the instance at `path` (and punches the
/// new cfg pins through every level above it).
fn repoint_instance(
    file: &mut SourceFile,
    design: &Design,
    path: HierPath,
    new_module: &str,
) -> Result<(), AliceError> {
    let parent_path = path
        .parent()
        .ok_or_else(|| AliceError::Inconsistent(format!("cannot repoint root {path}")))?;
    let parent_mod = resolve_module_at(file, design, parent_path)?;
    let pm = file
        .modules
        .iter_mut()
        .find(|m| m.name == parent_mod)
        .ok_or_else(|| AliceError::Inconsistent(format!("missing module {parent_mod}")))?;
    for item in &mut pm.items {
        if let Item::Instance(inst) = item {
            if inst.name == path.leaf() {
                inst.module = new_module.to_string();
                return Ok(());
            }
        }
    }
    Err(AliceError::Inconsistent(format!(
        "instance {path} not found for repointing"
    )))
}

/// Adds cfg passthroughs from the LCA's parent chain up to the top.
fn punch_cfg_up(
    file: &mut SourceFile,
    design: &Design,
    lca: HierPath,
    e_idx: usize,
) -> Result<(), AliceError> {
    if lca.symbol() == design.hierarchy.top {
        return Ok(());
    }
    // Walk from just above the LCA to the top: each step's holder is the
    // parent module and `child_inst` the instance the pins pass through.
    let mut cur = lca;
    while let Some(holder_path) = cur.parent() {
        let child_inst = cur.leaf();
        let holder_mod = resolve_module_at(file, design, holder_path)?;
        let hm = file
            .modules
            .iter_mut()
            .find(|m| m.name == holder_mod)
            .ok_or_else(|| AliceError::Inconsistent(format!("missing {holder_mod}")))?;
        for (name, dir) in [
            ("cfg_clk".to_string(), Direction::Input),
            ("cfg_en".to_string(), Direction::Input),
            (format!("cfg_in_e{e_idx}"), Direction::Input),
            (format!("cfg_out_e{e_idx}"), Direction::Output),
        ] {
            if hm.port(&name).is_none() {
                hm.ports.push(Port {
                    dir,
                    is_reg: false,
                    name: name.clone(),
                    range: None,
                });
            }
            for item in &mut hm.items {
                if let Item::Instance(inst) = item {
                    if inst.name == child_inst {
                        if let PortConns::Named(conns) = &mut inst.conns {
                            if !conns.iter().any(|(n, _)| *n == name) {
                                conns.push((name.clone(), Some(Expr::id(&name))));
                            }
                        }
                    }
                }
            }
        }
        cur = holder_path;
    }
    Ok(())
}

fn dedup_ports(m: &mut Module) {
    let mut seen = std::collections::BTreeSet::new();
    m.ports.retain(|p| seen.insert(p.name.clone()));
}

fn range_of(width: u32) -> Option<Range> {
    if width <= 1 {
        None
    } else {
        Some(Range {
            msb: Expr::num((width - 1) as u64),
            lsb: Expr::num(0),
        })
    }
}

fn normalize(child: &Module, inst: &Instance) -> Vec<(String, Option<Expr>)> {
    match &inst.conns {
        PortConns::Named(named) => named.clone(),
        PortConns::Ordered(exprs) => child
            .ports
            .iter()
            .zip(exprs.iter())
            .map(|(p, e)| (p.name.clone(), Some(e.clone())))
            .collect(),
    }
}

fn expr_to_lvalue(e: &Expr) -> Option<LValue> {
    match e {
        Expr::Id(s) => Some(LValue::Id(s.clone())),
        Expr::Bit(b, i) => match b.as_ref() {
            Expr::Id(s) => Some(LValue::Bit(s.clone(), (**i).clone())),
            _ => None,
        },
        Expr::Part(b, m, l) => match b.as_ref() {
            Expr::Id(s) => Some(LValue::Part(s.clone(), (**m).clone(), (**l).clone())),
            _ => None,
        },
        Expr::Concat(parts) => {
            let lvs: Option<Vec<LValue>> = parts.iter().map(expr_to_lvalue).collect();
            Some(LValue::Concat(lvs?))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::identify_clusters;
    use crate::filter::filter_modules;
    use crate::select::select_efpgas;

    const SRC: &str = r#"
module xorblk(input wire [3:0] a, input wire [3:0] b, output wire [3:0] y);
  assign y = a ^ b;
endmodule
module andblk(input wire [3:0] a, input wire [3:0] b, output wire [3:0] y);
  assign y = a & b;
endmodule
module top(input wire [3:0] p, input wire [3:0] q, output wire [3:0] o1, output wire [3:0] o2);
  xorblk x0(.a(p), .b(q), .y(o1));
  andblk a0(.a(p), .b(q), .y(o2));
endmodule
"#;

    fn run_redact(cfg: &AliceConfig) -> (Design, RedactedDesign) {
        let d = Design::from_source("t", SRC, None).expect("load");
        let db = crate::db::DesignDb::new();
        let df = alice_dataflow::analyze(&d.file, d.hierarchy.top.as_str()).expect("df");
        let r = filter_modules(&d, &df, cfg).expect("filter").candidates;
        let c = identify_clusters(&r, &d.paths, cfg).clusters;
        let sel = select_efpgas(&d, &r, &c, cfg, &db).expect("select");
        let rd = redact(&d, &r, &sel, cfg, &db).expect("redact");
        (d, rd)
    }

    #[test]
    fn redacted_design_parses_and_references_fabric() {
        let cfg = AliceConfig {
            max_io_pins: 64,
            max_efpgas: 1,
            ..AliceConfig::default()
        };
        let (_, rd) = run_redact(&cfg);
        assert_eq!(rd.efpgas.len(), 1);
        let combined = rd.combined_verilog();
        let parsed = alice_verilog::parse_source(&combined).expect("round trip");
        // The redacted top instantiates the fabric; the fabric module exists.
        let top = parsed.module("top").expect("top");
        let fab_inst = top
            .instances()
            .find(|i| i.module.starts_with("alice_efpga"))
            .expect("fabric instance");
        assert!(parsed.module(&fab_inst.module).is_some());
        // Config pins surface at the top.
        assert!(top.port("cfg_clk").is_some());
        assert!(top.port("cfg_in_e0").is_some());
    }

    #[test]
    fn redacted_members_are_gone() {
        let cfg = AliceConfig {
            max_io_pins: 64,
            max_efpgas: 2,
            ..AliceConfig::default()
        };
        let (_, rd) = run_redact(&cfg);
        let text = rd.top_asic_verilog();
        // The best solution with utilization reward includes the pair
        // cluster or both singles; either way original instances disappear.
        let parsed = alice_verilog::parse_source(&text).expect("parse");
        let top = parsed.module("top").expect("top");
        let remaining: Vec<&str> = top
            .instances()
            .map(|i| i.module.as_str())
            .filter(|m| *m == "xorblk" || *m == "andblk")
            .collect();
        let total_redacted: usize = rd.efpgas.iter().map(|e| e.instances.len()).sum();
        assert_eq!(remaining.len(), 2 - total_redacted.min(2));
    }

    #[test]
    fn common_parent_walks_tree_edges_not_prefixes() {
        let t = PathTree::from_paths(
            [
                "top.u1.core.s0",
                "top.u1.core.s1",
                "top.u2.core.s0",
                "top.a.x",
                "top.ab.y",
            ]
            .map(Symbol::intern),
        );
        let lca = |ms: &[&str]| {
            common_parent(
                &t,
                &ms.iter().map(|s| HierPath::intern(s)).collect::<Vec<_>>(),
            )
        };
        // Same parent: insert in place.
        assert_eq!(lca(&["top.u1.core.s0", "top.u1.core.s1"]), "top.u1.core");
        // Different subtrees: climb to the common dominator.
        assert_eq!(lca(&["top.u1.core.s0", "top.u2.core.s0"]), "top");
        // `top.a` is a textual prefix of `top.ab` but NOT an ancestor —
        // the tree walk cannot confuse them.
        assert_eq!(lca(&["top.a.x", "top.ab.y"]), "top");
        // Single member: its own parent.
        assert_eq!(lca(&["top.u2.core.s0"]), "top.u2.core");
    }

    #[test]
    fn secrets_stay_out_of_the_asic_output() {
        let cfg = AliceConfig {
            max_io_pins: 64,
            max_efpgas: 1,
            ..AliceConfig::default()
        };
        let (_, rd) = run_redact(&cfg);
        assert!(!rd.efpgas[0].config_stream.is_empty());
        // Neither output contains LUT INIT constants.
        assert!(!rd.top_asic_verilog().contains("16'h"));
        assert!(!rd.fabric_verilog.contains("16'h"));
    }
}
