//! Device geometry and linear-address ↔ (bank, row, column) mapping.
//!
//! The paper's Bank Selector exploits the fact that consecutive hash
//! buckets can be spread over the device's eight banks so that row
//! activations in different banks overlap. How a linear bucket address is
//! split into bank/row/column bits is therefore a first-class design knob,
//! exposed here as [`AddressMapping`].

use crate::error::ConfigError;

/// Physical geometry of one DDR3 memory set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Number of banks (DDR3 devices have 8).
    pub banks: u32,
    /// Number of rows per bank.
    pub rows: u32,
    /// Number of column locations per row, counted in **bursts** (one
    /// column location = one BL8 burst worth of data).
    pub cols: u32,
    /// Width of the data bus in bits (the prototype uses 32-bit DIMMs).
    pub bus_width_bits: u32,
    /// Burst length in beats.
    pub burst_length: u32,
}

impl Geometry {
    /// Geometry of the prototype's memory set: a 512 MByte, 32-bit wide
    /// DDR3 module with 8 banks.
    ///
    /// 512 MiB / 32 B per burst = 16 Mi burst locations = 8 banks ×
    /// 16 384 rows × 128 burst-columns.
    pub fn prototype_512mb() -> Self {
        Geometry {
            banks: 8,
            rows: 16_384,
            cols: 128,
            bus_width_bits: 32,
            burst_length: 8,
        }
    }

    /// A small geometry for unit tests: 4 banks × 64 rows × 16 columns.
    pub fn tiny() -> Self {
        Geometry {
            banks: 4,
            rows: 64,
            cols: 16,
            bus_width_bits: 32,
            burst_length: 8,
        }
    }

    /// Bytes carried by one burst (`bus_width_bits / 8 * burst_length`).
    #[inline]
    pub fn burst_bytes(&self) -> usize {
        (self.bus_width_bits as usize / 8) * self.burst_length as usize
    }

    /// Total number of addressable burst locations.
    #[inline]
    pub fn total_bursts(&self) -> u64 {
        u64::from(self.banks) * u64::from(self.rows) * u64::from(self.cols)
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any dimension is zero or the bus width is
    /// not a multiple of 8 bits.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.banks == 0 || self.rows == 0 || self.cols == 0 {
            return Err(ConfigError::new("geometry dimensions must be non-zero"));
        }
        if self.bus_width_bits == 0 || !self.bus_width_bits.is_multiple_of(8) {
            return Err(ConfigError::new(
                "bus width must be a non-zero multiple of 8",
            ));
        }
        if self.burst_length == 0 || !self.burst_length.is_multiple_of(2) {
            return Err(ConfigError::new("burst length must be even and non-zero"));
        }
        Ok(())
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Geometry::prototype_512mb()
    }
}

/// A decomposed device address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemAddress {
    /// Bank index, `0..geometry.banks`.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u32,
    /// Column index within the row, in bursts.
    pub col: u32,
}

/// Policy for splitting a linear burst address into bank/row/column.
///
/// The choice decides which access patterns interleave across banks —
/// exactly the property the paper's Bank Selector leans on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AddressMapping {
    /// `row : bank : col` — consecutive addresses walk columns within one
    /// bank first, then banks, then rows. Sequential streams sweep all
    /// banks within a row "stripe": good bank interleave for strided hash
    /// buckets. This is the default.
    #[default]
    RowBankCol,
    /// `bank : row : col` — the device is split into `banks` contiguous
    /// regions. Sequential streams hammer a single bank; useful as the
    /// pathological comparison in bank-selection experiments.
    BankRowCol,
    /// `row : col : bank` — consecutive addresses alternate banks on every
    /// burst (bank bits are the lowest bits). Maximal fine-grained
    /// interleave; matches the paper's "bank addresses incremented by 1"
    /// test pattern.
    RowColBank,
}

impl AddressMapping {
    /// Decomposes a linear burst address.
    ///
    /// # Panics
    ///
    /// Panics if `linear >= geometry.total_bursts()`; callers hold the
    /// invariant that addresses are produced by [`compose`](Self::compose)
    /// or reduced modulo the geometry.
    pub fn decompose(self, geometry: &Geometry, linear: u64) -> MemAddress {
        assert!(
            linear < geometry.total_bursts(),
            "address {linear} out of range ({} bursts)",
            geometry.total_bursts()
        );
        let banks = u64::from(geometry.banks);
        let rows = u64::from(geometry.rows);
        let cols = u64::from(geometry.cols);
        let (bank, row, col) = match self {
            AddressMapping::RowBankCol => {
                let col = linear % cols;
                let bank = (linear / cols) % banks;
                let row = linear / (cols * banks);
                (bank, row, col)
            }
            AddressMapping::BankRowCol => {
                let col = linear % cols;
                let row = (linear / cols) % rows;
                let bank = linear / (cols * rows);
                (bank, row, col)
            }
            AddressMapping::RowColBank => {
                let bank = linear % banks;
                let col = (linear / banks) % cols;
                let row = linear / (banks * cols);
                (bank, row, col)
            }
        };
        MemAddress {
            bank: bank as u32,
            row: row as u32,
            col: col as u32,
        }
    }

    /// Composes a linear burst address from its parts; inverse of
    /// [`decompose`](Self::decompose).
    ///
    /// # Panics
    ///
    /// Panics if any component exceeds the geometry.
    pub fn compose(self, geometry: &Geometry, addr: MemAddress) -> u64 {
        assert!(
            addr.bank < geometry.banks,
            "bank {} out of range",
            addr.bank
        );
        assert!(addr.row < geometry.rows, "row {} out of range", addr.row);
        assert!(addr.col < geometry.cols, "col {} out of range", addr.col);
        let banks = u64::from(geometry.banks);
        let rows = u64::from(geometry.rows);
        let cols = u64::from(geometry.cols);
        let (bank, row, col) = (
            u64::from(addr.bank),
            u64::from(addr.row),
            u64::from(addr.col),
        );
        match self {
            AddressMapping::RowBankCol => (row * banks + bank) * cols + col,
            AddressMapping::BankRowCol => (bank * rows + row) * cols + col,
            AddressMapping::RowColBank => (row * cols + col) * banks + bank,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAPPINGS: [AddressMapping; 3] = [
        AddressMapping::RowBankCol,
        AddressMapping::BankRowCol,
        AddressMapping::RowColBank,
    ];

    #[test]
    fn prototype_geometry_is_512_mib() {
        let g = Geometry::prototype_512mb();
        g.validate().unwrap();
        assert_eq!(g.total_bursts() * g.burst_bytes() as u64, 512 * 1024 * 1024);
        assert_eq!(g.burst_bytes(), 32);
    }

    #[test]
    fn compose_decompose_roundtrip() {
        let g = Geometry::tiny();
        for mapping in MAPPINGS {
            for linear in 0..g.total_bursts() {
                let a = mapping.decompose(&g, linear);
                assert!(a.bank < g.banks);
                assert!(a.row < g.rows);
                assert!(a.col < g.cols);
                assert_eq!(mapping.compose(&g, a), linear, "{mapping:?} @ {linear}");
            }
        }
    }

    #[test]
    fn row_col_bank_alternates_banks() {
        let g = Geometry::tiny();
        let m = AddressMapping::RowColBank;
        for linear in 0..16 {
            let a = m.decompose(&g, linear);
            assert_eq!(u64::from(a.bank), linear % u64::from(g.banks));
        }
    }

    #[test]
    fn bank_row_col_is_contiguous_per_bank() {
        let g = Geometry::tiny();
        let m = AddressMapping::BankRowCol;
        let per_bank = u64::from(g.rows) * u64::from(g.cols);
        let a = m.decompose(&g, per_bank - 1);
        assert_eq!(a.bank, 0);
        let b = m.decompose(&g, per_bank);
        assert_eq!(b.bank, 1);
    }

    #[test]
    fn row_bank_col_sweeps_banks_within_stripe() {
        let g = Geometry::tiny();
        let m = AddressMapping::RowBankCol;
        // Walking in steps of `cols` bursts should advance the bank.
        for i in 0..u64::from(g.banks) {
            let a = m.decompose(&g, i * u64::from(g.cols));
            assert_eq!(u64::from(a.bank), i);
            assert_eq!(a.row, 0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn decompose_out_of_range_panics() {
        let g = Geometry::tiny();
        AddressMapping::RowBankCol.decompose(&g, g.total_bursts());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn compose_out_of_range_panics() {
        let g = Geometry::tiny();
        AddressMapping::RowBankCol.compose(
            &g,
            MemAddress {
                bank: g.banks,
                row: 0,
                col: 0,
            },
        );
    }

    #[test]
    fn invalid_geometry_rejected() {
        let mut g = Geometry::tiny();
        g.rows = 0;
        assert!(g.validate().is_err());
        let mut g = Geometry::tiny();
        g.bus_width_bits = 12;
        assert!(g.validate().is_err());
    }
}
