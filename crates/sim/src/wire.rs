//! Wire-level accounting.
//!
//! The paper's first motivation is that "header overhead of the current IP
//! protocol is relatively high" for tiny sensor readings (§II.1). To make
//! that claim measurable we model protocol stacks at byte granularity: a
//! payload of `n` bytes is fragmented into MTU-sized packets, each carrying
//! the stack's full header chain, and the bytes-on-wire are accounted in
//! [`crate::metrics::Metrics`].
//!
//! A payload's size is counted by whoever sends it (a registry item, an
//! exertion, a reading); nothing is encoded to learn it.

/// Maximum transmission unit of the simulated links, in payload bytes per
/// packet (Ethernet-class default).
pub const DEFAULT_MTU: usize = 1500;

/// A protocol stack determines the per-packet header overhead and the
/// framing behaviour used when a message is sent.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ProtocolStack {
    /// Ethernet + IPv4 + UDP: fire-and-forget datagrams.
    Udp,
    /// Ethernet + IPv4 + TCP: per-packet TCP header plus connection
    /// handshake/teardown segments amortized per logical message exchange.
    Tcp,
    /// A 6LoWPAN-style compressed stack for constrained links: an IEEE
    /// 802.15.4 MAC header with compressed IPv6/UDP (LOWPAN_NHC) headers.
    Compact,
}

/// Ethernet framing: 14-byte header + 4-byte FCS. (Preamble and inter-frame
/// gap are line coding, not header bytes; we exclude them consistently for
/// every stack so comparisons stay fair.)
const ETHERNET: usize = 18;
const IPV4: usize = 20;
const UDP: usize = 8;
const TCP: usize = 20;
/// 802.15.4 MAC header+FCS (short addressing) for the compact stack.
const MAC_154: usize = 11;
/// Compressed IPv6+UDP header (LOWPAN_IPHC + NHC), typical best case.
const LOWPAN: usize = 7;

/// TCP control segments exchanged per logical message when a fresh
/// connection is made: SYN, SYN-ACK, ACK, FIN, FIN-ACK (header-only frames).
const TCP_CONTROL_SEGMENTS: usize = 5;

impl ProtocolStack {
    /// Header bytes prepended to every data packet.
    pub fn header_bytes(self) -> usize {
        match self {
            ProtocolStack::Udp => ETHERNET + IPV4 + UDP,
            ProtocolStack::Tcp => ETHERNET + IPV4 + TCP,
            ProtocolStack::Compact => MAC_154 + LOWPAN,
        }
    }

    /// Maximum payload bytes carried per packet.
    pub fn mtu(self) -> usize {
        match self {
            // 802.15.4 frames are 127 bytes total.
            ProtocolStack::Compact => 127 - (MAC_154 + LOWPAN),
            _ => DEFAULT_MTU,
        }
    }

    /// Whether the stack retransmits lost packets (reliable delivery).
    pub fn is_reliable(self) -> bool {
        matches!(self, ProtocolStack::Tcp)
    }

    /// Number of data packets needed for a payload of `payload` bytes.
    /// A zero-byte payload still costs one packet (the request must travel).
    pub fn packets_for(self, payload: usize) -> usize {
        let mtu = self.mtu();
        if payload == 0 {
            1
        } else {
            payload.div_ceil(mtu)
        }
    }

    /// Total bytes on the wire for a one-way transfer of `payload` bytes,
    /// excluding connection setup (see [`ProtocolStack::setup_bytes`]).
    pub fn bytes_on_wire(self, payload: usize) -> usize {
        payload + self.packets_for(payload) * self.header_bytes()
    }

    /// Extra bytes for connection management, charged once per logical
    /// request/response exchange.
    pub fn setup_bytes(self) -> usize {
        match self {
            ProtocolStack::Tcp => TCP_CONTROL_SEGMENTS * (ETHERNET + IPV4 + TCP),
            _ => 0,
        }
    }

    /// Header overhead ratio for a one-way payload: wasted bytes over total.
    pub fn overhead_ratio(self, payload: usize) -> f64 {
        let total = self.bytes_on_wire(payload) + self.setup_bytes();
        (total - payload) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_single_packet_overhead() {
        // 8 payload bytes in one packet: 18 + 20 + 8 = 46 header bytes.
        assert_eq!(ProtocolStack::Udp.bytes_on_wire(8), 8 + 46);
        assert_eq!(ProtocolStack::Udp.packets_for(8), 1);
    }

    #[test]
    fn tcp_charges_setup() {
        assert_eq!(ProtocolStack::Tcp.setup_bytes(), 5 * 58);
        assert_eq!(ProtocolStack::Udp.setup_bytes(), 0);
        assert_eq!(ProtocolStack::Compact.setup_bytes(), 0);
    }

    #[test]
    fn fragmentation_multiplies_headers() {
        let stack = ProtocolStack::Udp;
        let payload = DEFAULT_MTU * 3 + 1; // forces 4 packets
        assert_eq!(stack.packets_for(payload), 4);
        assert_eq!(
            stack.bytes_on_wire(payload),
            payload + 4 * stack.header_bytes()
        );
    }

    #[test]
    fn compact_stack_fragments_at_127() {
        let stack = ProtocolStack::Compact;
        assert_eq!(stack.mtu(), 127 - 18);
        assert_eq!(stack.packets_for(stack.mtu()), 1);
        assert_eq!(stack.packets_for(stack.mtu() + 1), 2);
    }

    #[test]
    fn small_payload_overhead_ordering() {
        // For an 8-byte reading the paper's complaint holds: TCP worst,
        // then UDP, and the compact stack best.
        let tcp = ProtocolStack::Tcp.overhead_ratio(8);
        let udp = ProtocolStack::Udp.overhead_ratio(8);
        let compact = ProtocolStack::Compact.overhead_ratio(8);
        assert!(tcp > udp, "tcp {tcp} udp {udp}");
        assert!(udp > compact, "udp {udp} compact {compact}");
        assert!(tcp > 0.9, "tiny readings over TCP are >90% overhead: {tcp}");
    }

    #[test]
    fn zero_payload_still_costs_a_packet() {
        assert_eq!(ProtocolStack::Udp.bytes_on_wire(0), 46);
    }
}
