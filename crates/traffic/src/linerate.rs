//! Layer-1 Ethernet packet-rate arithmetic.
//!
//! Section V-B of the paper derives the lookup-rate requirement for
//! 40 GbE: with 72-byte minimum Layer-1 packets (64-byte frame plus
//! 8-byte preamble/SFD, per IEEE 802.3) and the standard 12-byte
//! inter-frame gap, 40 Gbit/s carries 59.52 Mpps; shrinking the IFG to
//! one byte-time pushes the worst case to 68.49 Mpps. These functions
//! reproduce that arithmetic for any link speed and framing.

/// IEEE 802.3 minimum Layer-1 packet: 64-byte frame + 8-byte preamble/SFD.
pub const MIN_L1_PACKET_BYTES: u32 = 72;

/// Standard inter-frame gap in byte-times.
pub const STANDARD_IFG_BYTES: u32 = 12;

/// An Ethernet link of a given speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EthernetLink {
    /// Line rate in gigabits per second.
    pub gbps: f64,
}

impl EthernetLink {
    /// A 40 GbE link (the paper's target).
    pub fn forty_gbe() -> Self {
        EthernetLink { gbps: 40.0 }
    }

    /// A 100 GbE link — beyond the paper's single-channel reach; the
    /// operating point the multi-channel engine targets.
    pub fn hundred_gbe() -> Self {
        EthernetLink { gbps: 100.0 }
    }

    /// Packets per second at the given Layer-1 packet size and IFG, in
    /// millions (Mpps).
    ///
    /// # Panics
    ///
    /// Panics if `l1_packet_bytes + ifg_bytes` is zero.
    pub fn packet_rate_mpps(&self, l1_packet_bytes: u32, ifg_bytes: u32) -> f64 {
        let slot_bits = f64::from(8 * (l1_packet_bytes + ifg_bytes));
        assert!(slot_bits > 0.0, "packet slot must be non-zero");
        self.gbps * 1000.0 / slot_bits
    }

    /// The paper's headline requirement: minimum packets with standard
    /// IFG (59.52 Mpps at 40 G).
    pub fn min_packet_rate_standard_ifg_mpps(&self) -> f64 {
        self.packet_rate_mpps(MIN_L1_PACKET_BYTES, STANDARD_IFG_BYTES)
    }

    /// The paper's worst case: minimum packets with the IFG shrunk to one
    /// byte-time (68.49 Mpps at 40 G).
    pub fn min_packet_rate_worst_case_mpps(&self) -> f64 {
        self.packet_rate_mpps(MIN_L1_PACKET_BYTES, 1)
    }

    /// The throughput in Gbit/s that a processing rate of `mdesc_per_s`
    /// million descriptors per second sustains at the given framing —
    /// the inverse question the discussion answers ("94 Mdesc/s enables
    /// over 50 Gbps").
    pub fn achievable_gbps(mdesc_per_s: f64, l1_packet_bytes: u32, ifg_bytes: u32) -> f64 {
        mdesc_per_s * f64::from(8 * (l1_packet_bytes + ifg_bytes)) / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_standard_ifg_rate() {
        // "the packet processing rate is required to be 59.52 Mpps".
        let r = EthernetLink::forty_gbe().min_packet_rate_standard_ifg_mpps();
        assert!((r - 59.52).abs() < 0.01, "got {r}");
    }

    #[test]
    fn paper_worst_case_rate() {
        // "if the IPG is reduced to 1-byte time … 68.49 Mpps".
        let r = EthernetLink::forty_gbe().min_packet_rate_worst_case_mpps();
        assert!((r - 68.49).abs() < 0.01, "got {r}");
    }

    #[test]
    fn ninety_four_mdesc_exceeds_fifty_gig() {
        // "flow processing capabilities of over 94 Mdesc/s … enables a
        // network throughput of over 50 Gbps".
        let gbps = EthernetLink::achievable_gbps(94.36, MIN_L1_PACKET_BYTES, STANDARD_IFG_BYTES);
        assert!(gbps > 50.0, "got {gbps}");
    }

    #[test]
    fn hundred_gig_requirement() {
        // 100 Gbit/s at 72-byte packets + 12-byte IFG: 100e3 / 672 bits.
        let r = EthernetLink::hundred_gbe().min_packet_rate_standard_ifg_mpps();
        assert!((r - 148.81).abs() < 0.01, "got {r}");
    }

    #[test]
    fn rate_scales_linearly_with_speed() {
        let g40 = EthernetLink::forty_gbe().min_packet_rate_standard_ifg_mpps();
        let g10 = EthernetLink { gbps: 10.0 }.min_packet_rate_standard_ifg_mpps();
        assert!((g40 / g10 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bigger_packets_mean_fewer_packets() {
        let link = EthernetLink::forty_gbe();
        assert!(link.packet_rate_mpps(1526, 12) < link.packet_rate_mpps(72, 12));
    }
}
