//! eFPGA fabric architecture parameters and geometry.
//!
//! The architecture family follows the paper's fixed configuration (§7):
//! CLBs built from four 4-input fracturable LUTs and I/O tiles carrying
//! 8 GPIOs each, so a W×H fabric exposes `8·(W+H)` I/O pins — a 4×4
//! fabric has 64, matching the "a 4×4 fabric configuration has no more
//! than 64 I/O pins" remark in §3.

use std::fmt;

/// Architecture-level parameters of the eFPGA family.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricArch {
    /// LUT input count (k). The paper fixes k = 4; a redaction needs
    /// k ≤ [`crate::emit::LE_INPUTS`].
    pub lut_inputs: u32,
    /// Logic elements (LUT+FF pairs) per CLB; at least 1. The paper
    /// fixes 4.
    pub les_per_clb: u32,
    /// GPIO pins per I/O tile. The paper fixes 8.
    pub gpio_per_tile: u32,
    /// Largest permitted fabric dimension (squares up to `max_dim × max_dim`).
    pub max_dim: u32,
}

impl Default for FabricArch {
    fn default() -> Self {
        FabricArch {
            lut_inputs: 4,
            les_per_clb: 4,
            gpio_per_tile: 8,
            max_dim: 20,
        }
    }
}

impl FabricArch {
    /// The paper's architecture (4×4-LUT CLBs, 8-GPIO I/O tiles).
    pub fn new() -> Self {
        Self::default()
    }

    /// I/O pin capacity of a W×H fabric: `gpio_per_tile · (W + H)`.
    pub fn io_capacity(&self, width: u32, height: u32) -> u32 {
        self.gpio_per_tile * (width + height)
    }

    /// CLB capacity of a W×H fabric.
    pub fn clb_capacity(&self, width: u32, height: u32) -> u32 {
        width * height
    }
}

/// A concrete fabric size chosen for one eFPGA instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FabricSize {
    /// Width in CLBs.
    pub width: u32,
    /// Height in CLBs.
    pub height: u32,
}

impl FabricSize {
    /// Creates a square fabric.
    pub fn square(dim: u32) -> Self {
        FabricSize {
            width: dim,
            height: dim,
        }
    }

    /// Total CLB count.
    pub fn clbs(&self) -> u32 {
        self.width * self.height
    }
}

impl fmt::Display for FabricSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_io_capacity_anchor() {
        let arch = FabricArch::default();
        // §3: a 4x4 fabric has no more than 64 I/O pins.
        assert_eq!(arch.io_capacity(4, 4), 64);
        assert_eq!(arch.io_capacity(5, 5), 80);
        assert_eq!(arch.io_capacity(14, 14), 224);
    }

    #[test]
    fn capacities_scale() {
        let arch = FabricArch::default();
        assert_eq!(arch.clb_capacity(8, 8), 64);
    }

    #[test]
    fn size_display() {
        assert_eq!(FabricSize::square(12).to_string(), "12x12");
        assert_eq!(FabricSize::square(12).clbs(), 144);
    }
}
