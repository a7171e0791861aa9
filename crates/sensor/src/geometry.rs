//! Sensor array geometry and derived quantities.

use crate::{Result, SensorError};

/// Pixel columns served by one PE (and therefore i-buffers per PE and the
/// raw-Bayer block width) — fixed to 4 by the paper's design (Sec. 4.1).
pub const COLUMNS_PER_PE: usize = leca_circuit::pe::BLOCK_SIDE;

/// Kernels a PE can hold at once; `N_ch` beyond this triggers repetitive
/// readout (Sec. 4.2 step ④).
pub const KERNELS_PER_PASS: usize = leca_circuit::pe::KERNELS_PER_PASS;

/// Static geometry of a LeCA sensor instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SensorGeometry {
    /// Raw Bayer pixel rows (2x the RGB image height).
    pub rows: usize,
    /// Raw Bayer pixel columns (2x the RGB image width).
    pub cols: usize,
    /// Encoder output channels `N_ch`.
    pub n_ch: usize,
}

impl SensorGeometry {
    /// The paper's design point: a 448x448 pixel array capturing a
    /// 224x224x3 RGB frame.
    pub fn paper(n_ch: usize) -> Self {
        SensorGeometry {
            rows: 448,
            cols: 448,
            n_ch,
        }
    }

    /// A 1080p geometry (1920x1080 raw, Sec. 6.4's scaling discussion).
    pub fn hd1080(n_ch: usize) -> Self {
        SensorGeometry {
            rows: 1080,
            cols: 1920,
            n_ch,
        }
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidGeometry`] when dimensions are not
    /// positive multiples of the 4-pixel block or `n_ch` is zero.
    pub fn validate(&self) -> Result<()> {
        if self.rows == 0 || self.cols == 0 || self.n_ch == 0 {
            return Err(SensorError::InvalidGeometry(
                "rows, cols and n_ch must be positive".into(),
            ));
        }
        if !self.rows.is_multiple_of(COLUMNS_PER_PE) || !self.cols.is_multiple_of(COLUMNS_PER_PE) {
            return Err(SensorError::InvalidGeometry(format!(
                "{}x{} raw array is not a multiple of the {COLUMNS_PER_PE}-pixel block",
                self.rows, self.cols
            )));
        }
        Ok(())
    }

    /// Total raw Bayer pixels per frame.
    pub fn raw_pixels(&self) -> usize {
        self.rows * self.cols
    }

    /// Number of column-parallel PEs (one per 4 pixel columns; 112 for the
    /// paper's 448-wide array).
    pub fn num_pes(&self) -> usize {
        self.cols / COLUMNS_PER_PE
    }

    /// Ofmap spatial dimensions: each 4x4 raw block produces one element
    /// per kernel.
    pub fn ofmap_dims(&self) -> (usize, usize) {
        (self.rows / COLUMNS_PER_PE, self.cols / COLUMNS_PER_PE)
    }

    /// Ofmap elements per frame (`oh * ow * n_ch`).
    pub fn ofmap_elements(&self) -> usize {
        let (oh, ow) = self.ofmap_dims();
        oh * ow * self.n_ch
    }

    /// Readout passes over the pixel array: `ceil(n_ch / 4)` (repetitive
    /// readout when more than 4 kernels are configured).
    pub fn readout_passes(&self) -> usize {
        self.n_ch.div_ceil(KERNELS_PER_PASS)
    }

    /// MAC operations per frame: every raw pixel enters one MAC per kernel.
    pub fn macs_per_frame(&self) -> usize {
        self.raw_pixels() * self.n_ch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry() {
        let g = SensorGeometry::paper(4);
        g.validate().unwrap();
        assert_eq!(g.raw_pixels(), 448 * 448);
        assert_eq!(g.num_pes(), 112);
        assert_eq!(g.ofmap_dims(), (112, 112));
        assert_eq!(g.ofmap_elements(), 112 * 112 * 4);
        assert_eq!(g.readout_passes(), 1);
    }

    #[test]
    fn repetitive_readout_above_four_kernels() {
        assert_eq!(SensorGeometry::paper(4).readout_passes(), 1);
        assert_eq!(SensorGeometry::paper(5).readout_passes(), 2);
        assert_eq!(SensorGeometry::paper(8).readout_passes(), 2);
        assert_eq!(SensorGeometry::paper(9).readout_passes(), 3);
    }

    #[test]
    fn hd_geometry() {
        let g = SensorGeometry::hd1080(4);
        g.validate().unwrap();
        assert_eq!(g.num_pes(), 480);
        assert_eq!(g.ofmap_dims(), (270, 480));
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        assert!(SensorGeometry {
            rows: 0,
            cols: 448,
            n_ch: 4
        }
        .validate()
        .is_err());
        assert!(SensorGeometry {
            rows: 446,
            cols: 448,
            n_ch: 4
        }
        .validate()
        .is_err());
        assert!(SensorGeometry {
            rows: 448,
            cols: 448,
            n_ch: 0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn macs_count() {
        let g = SensorGeometry::paper(4);
        // 64 MACs per 4x4 block per 4 kernels = 4 MACs per raw pixel.
        assert_eq!(g.macs_per_frame(), 448 * 448 * 4);
    }
}
