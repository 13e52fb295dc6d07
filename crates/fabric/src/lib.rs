//! eFPGA fabric modelling for the ALICE reproduction (OpenFPGA substitute).
//!
//! Given a LUT-mapped cluster this crate answers the questions ALICE asks
//! its fabric oracle:
//!
//! * [`arch`] — the fabric architecture family (CLB = four 4-input LUTs,
//!   8-GPIO I/O tiles, `8·(W+H)` pins for a W×H array),
//! * [`mod@pack`] — LUT/FF packing into CLBs,
//! * [`sizing`] — minimal-fabric search ([`create_efpga`], the
//!   `CreateEFPGA` oracle of Algorithm 3) with I/O and CLB utilization,
//! * [`cost`] — area model calibrated on Figure 4,
//! * [`emit`] — structural Verilog fabric netlist with a config chain,
//!   and the configuration stream that chain loads (the redaction
//!   secret).
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "module mac(input wire [7:0] a, input wire [7:0] b, output wire [7:0] y);
//!              assign y = a * b;
//!            endmodule";
//! let f = alice_verilog::parse_source(src)?;
//! let n = alice_netlist::elaborate::elaborate(&f, "mac")?;
//! let mapped = alice_netlist::lutmap::map_luts(&n, 4)?;
//! let efpga = alice_fabric::create_efpga(&mapped, &alice_fabric::FabricArch::default())?;
//! let stream = alice_fabric::emit::config_stream(&mapped, &efpga.packing);
//! println!("fits a {} fabric, {} config bits", efpga.size, stream.len());
//! # Ok(())
//! # }
//! ```

pub mod arch;
pub mod cost;
pub mod emit;
pub mod pack;
pub mod sizing;

pub use arch::{FabricArch, FabricSize};
pub use cost::fabric_area_um2;
pub use pack::{pack, Clb, LogicElement, Packing};
pub use sizing::{create_efpga, EfpgaImpl, FabricError};
