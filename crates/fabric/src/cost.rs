//! Fabric area model.
//!
//! Area is calibrated against the paper's Figure 4 data points for the
//! NanGate 45nm library: two 4×4 fabrics plus residual GCD logic occupy
//! 52,629 µm², and one 5×5 fabric with the same logic occupies 54,512 µm².
//! Those two points imply strongly super-linear growth with CLB count
//! (routing channels and configuration chains widen with the array), which
//! we model as a power law `area = K_TILE · (W·H)^AREA_EXP`; the exponent
//! reproduces the observed 4×4 → 5×5 ratio.

use crate::arch::FabricSize;

/// Calibration constant (µm² per CLB^AREA_EXP), fit to Figure 4.
pub const K_TILE: f64 = 284.5;
/// Area exponent over CLB count, fit to Figure 4.
pub const AREA_EXP: f64 = 1.63;

/// Computes the silicon area of a fabric.
///
/// # Example
///
/// ```
/// use alice_fabric::arch::FabricSize;
/// use alice_fabric::cost::fabric_area_um2;
///
/// let a44 = fabric_area_um2(FabricSize::square(4));
/// let a55 = fabric_area_um2(FabricSize::square(5));
/// // Figure 4: one 5x5 is roughly twice the area of one 4x4.
/// assert!(a55 / a44 > 1.8 && a55 / a44 < 2.3);
/// ```
pub fn fabric_area_um2(size: FabricSize) -> f64 {
    K_TILE * (size.clbs() as f64).powf(AREA_EXP)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_calibration_anchors() {
        // Figure 4(a): two 4x4 fabrics + ~500 µm² of residual logic.
        let two_small = 2.0 * fabric_area_um2(FabricSize::square(4)) + 500.0;
        assert!(
            (two_small - 52_629.0).abs() / 52_629.0 < 0.03,
            "cfg1 area {two_small}"
        );
        // Figure 4(b): one 5x5 fabric + the same residual logic.
        let one_large = fabric_area_um2(FabricSize::square(5)) + 500.0;
        assert!(
            (one_large - 54_512.0).abs() / 54_512.0 < 0.03,
            "cfg2 area {one_large}"
        );
    }

    #[test]
    fn area_monotone_in_size() {
        let mut prev = 0.0;
        for d in 1..=20 {
            let a = fabric_area_um2(FabricSize::square(d));
            assert!(a > prev);
            prev = a;
        }
    }
}
