//! Fabric sizing: the `CreateEFPGA` oracle of Algorithm 3.
//!
//! Given a mapped cluster, find the smallest square fabric that fits both
//! its I/O pins and its packed CLBs (OpenFPGA's "most suitable fabric"
//! search in §7) and report its utilization. The configuration stream
//! follows from the packing ([`crate::emit::config_stream`]).

use crate::arch::{FabricArch, FabricSize};
use crate::pack::{pack, Packing};
use alice_netlist::lutmap::MappedNetlist;
use std::fmt;

/// A characterized eFPGA implementation of one cluster.
#[derive(Debug, Clone)]
pub struct EfpgaImpl {
    /// Chosen fabric size.
    pub size: FabricSize,
    /// The packed design.
    pub packing: Packing,
    /// I/O utilization: used pins / fabric pin capacity (0..=1).
    pub io_util: f64,
    /// CLB utilization: used CLBs / fabric CLB capacity (0..=1).
    pub clb_util: f64,
}

/// Why a cluster cannot be implemented on any permitted fabric.
#[derive(Debug, Clone, PartialEq)]
pub enum FabricError {
    /// Pins exceed the largest permitted fabric's capacity.
    TooManyIos {
        /// Pins required.
        need: u32,
        /// Capacity of the largest permitted fabric.
        max: u32,
    },
    /// CLBs exceed the largest permitted fabric's capacity.
    TooManyClbs {
        /// CLBs required.
        need: u32,
        /// Capacity of the largest permitted fabric.
        max: u32,
    },
    /// The cluster has no logic at all (nothing to redact).
    EmptyCluster,
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::TooManyIos { need, max } => {
                write!(f, "cluster needs {need} I/O pins, largest fabric has {max}")
            }
            FabricError::TooManyClbs { need, max } => {
                write!(f, "cluster needs {need} CLBs, largest fabric has {max}")
            }
            FabricError::EmptyCluster => write!(f, "cluster contains no logic"),
        }
    }
}

impl std::error::Error for FabricError {}

/// Creates the minimal square eFPGA for a mapped cluster.
///
/// # Errors
///
/// Returns a [`FabricError`] when no fabric up to `arch.max_dim` fits.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let src = "module m(input wire [7:0] a, input wire [7:0] b, output wire [7:0] y);
///              assign y = a + b;
///            endmodule";
/// let f = alice_verilog::parse_source(src)?;
/// let n = alice_netlist::elaborate::elaborate(&f, "m")?;
/// let mapped = alice_netlist::lutmap::map_luts(&n, 4)?;
/// let arch = alice_fabric::FabricArch::default();
/// let efpga = alice_fabric::create_efpga(&mapped, &arch)?;
/// assert!(efpga.size.width >= 2);
/// assert!(efpga.io_util > 0.0 && efpga.io_util <= 1.0);
/// # Ok(())
/// # }
/// ```
pub fn create_efpga(mapped: &MappedNetlist, arch: &FabricArch) -> Result<EfpgaImpl, FabricError> {
    let io_used = mapped.io_pins() as u32;
    let packing = pack(mapped, arch);
    let clbs_used = packing.clb_count() as u32;
    if io_used == 0 && clbs_used == 0 {
        return Err(FabricError::EmptyCluster);
    }
    let max = arch.max_dim;
    let dim = (1..=max)
        .find(|&d| arch.io_capacity(d, d) >= io_used && arch.clb_capacity(d, d) >= clbs_used);
    let Some(dim) = dim else {
        if arch.io_capacity(max, max) < io_used {
            return Err(FabricError::TooManyIos {
                need: io_used,
                max: arch.io_capacity(max, max),
            });
        }
        return Err(FabricError::TooManyClbs {
            need: clbs_used,
            max: arch.clb_capacity(max, max),
        });
    };
    Ok(EfpgaImpl {
        size: FabricSize::square(dim),
        packing,
        io_util: io_used as f64 / arch.io_capacity(dim, dim) as f64,
        clb_util: clbs_used as f64 / arch.clb_capacity(dim, dim) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alice_netlist::elaborate::elaborate;
    use alice_netlist::lutmap::map_luts;
    use alice_verilog::parse_source;

    fn mapped(src: &str, top: &str) -> MappedNetlist {
        let f = parse_source(src).expect("parse");
        let n = elaborate(&f, top).expect("elab");
        map_luts(&n, 4).expect("map")
    }

    #[test]
    fn io_bound_sizing() {
        // 60 pins of pass-through wiring: I/O dominates.
        let src = "module m(input wire [29:0] a, output wire [29:0] y); assign y = ~a; endmodule";
        let m = mapped(src, "m");
        let arch = FabricArch::default();
        let e = create_efpga(&m, &arch).expect("fits");
        // 60 pins need 8*(d+d) >= 60 -> d >= 3.75 -> 4x4.
        assert_eq!(e.size, FabricSize::square(4));
        assert!(e.io_util > 0.9);
    }

    #[test]
    fn clb_bound_sizing() {
        // Few pins, lots of logic: CLBs dominate.
        let src = "module m(input wire [15:0] a, output wire y); assign y = &a ^ ^a; endmodule";
        let m = mapped(src, "m");
        let arch = FabricArch::default();
        let e = create_efpga(&m, &arch).expect("fits");
        assert!(arch.clb_capacity(e.size.width, e.size.height) >= e.packing.clb_count() as u32);
        assert!(e.size.width >= 1);
    }

    #[test]
    fn too_many_ios_rejected() {
        let src = "module m(input wire [299:0] a, output wire [299:0] y); assign y = ~a; endmodule";
        let m = mapped(src, "m");
        let arch = FabricArch {
            max_dim: 8,
            ..FabricArch::default()
        };
        // 600 pins > 8*(8+8)=128.
        assert!(matches!(
            create_efpga(&m, &arch),
            Err(FabricError::TooManyIos { .. })
        ));
    }

    #[test]
    fn utilization_in_unit_range() {
        let src =
            "module m(input wire [7:0] a, output wire [7:0] y); assign y = a + 8'd7; endmodule";
        let m = mapped(src, "m");
        let e = create_efpga(&m, &FabricArch::default()).expect("fits");
        assert!(e.io_util > 0.0 && e.io_util <= 1.0);
        assert!(e.clb_util > 0.0 && e.clb_util <= 1.0);
        assert!(e.packing.le_count > 0);
    }
}
