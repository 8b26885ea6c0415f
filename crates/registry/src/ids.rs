//! Identifiers used across the registry.

use std::sync::Arc;

use sensorcer_sim::rng::SimRng;
use sensorcer_sim::wire::{Bytes, BytesMut};
use sensorcer_sim::wire::{WireDecode, WireEncode, WireError};

/// A 128-bit universally unique service identifier, like Jini's
/// `ServiceID` (the paper's browser shows one in Fig. 3:
/// `267c67a0-dd67-4b95-beb0-e6763e117b03`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SvcUuid(pub u128);

impl SvcUuid {
    /// Generate a fresh id from the deterministic RNG.
    pub fn generate(rng: &mut SimRng) -> SvcUuid {
        let hi = rng.next_u64() as u128;
        let lo = rng.next_u64() as u128;
        SvcUuid((hi << 64) | lo)
    }

    /// The all-zero id, used by Jini for "assign me one" registrations.
    pub const NIL: SvcUuid = SvcUuid(0);

    pub fn is_nil(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for SvcUuid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:08x}-{:04x}-{:04x}-{:04x}-{:012x}",
            (b >> 96) as u32,
            (b >> 80) as u16,
            (b >> 64) as u16,
            (b >> 48) as u16,
            b & 0xFFFF_FFFF_FFFF
        )
    }
}

impl WireEncode for SvcUuid {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u128(self.0);
    }
    fn encoded_len(&self) -> usize {
        16
    }
}

impl WireDecode for SvcUuid {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if buf.remaining() < 16 {
            return Err(WireError::Truncated {
                needed: 16,
                available: buf.remaining(),
            });
        }
        Ok(SvcUuid(buf.get_u128()))
    }
}

/// The name of a remote interface a service implements — the unit of
/// type-based lookup (Jini looks services up "by object types
/// (interfaces)", §IV.B).
///
/// The name is shared, not owned: a clone is a reference-count bump, and
/// a lookup service keeps one copy of each name for every item that
/// implements it.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct InterfaceId(pub Arc<str>);

impl InterfaceId {
    pub fn new(name: impl Into<Arc<str>>) -> InterfaceId {
        InterfaceId(name.into())
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for InterfaceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for InterfaceId {
    fn from(s: &str) -> Self {
        InterfaceId(s.into())
    }
}

impl WireEncode for InterfaceId {
    fn encode(&self, buf: &mut BytesMut) {
        self.as_str().encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.as_str().encoded_len()
    }
}

impl WireDecode for InterfaceId {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(InterfaceId::new(String::decode(buf)?))
    }
}

/// Well-known interface names used throughout the reproduction. These are
/// the remote interfaces from the paper's component diagram (Fig. 1).
pub mod interfaces {
    /// The common sensor-value interface implemented by every ESP and CSP.
    pub const SENSOR_DATA_ACCESSOR: &str = "SensorDataAccessor";
    /// The top-level SORCER peer interface (`service(Exertion, Txn)`).
    pub const SERVICER: &str = "Servicer";
    /// Composite-management operations (add/remove child, set expression).
    pub const COMPOSITE_MANAGEMENT: &str = "CompositeManagement";
    /// The façade entry point.
    pub const SENSORCER_FACADE: &str = "SensorcerFacade";
    /// Rio compute node.
    pub const CYBERNODE: &str = "Cybernode";
    /// Rio provision monitor.
    pub const PROVISION_MONITOR: &str = "ProvisionMonitor";
    /// Jini infrastructure.
    pub const LOOKUP_SERVICE: &str = "LookupService";
    pub const TRANSACTION_MANAGER: &str = "TransactionManager";
    pub const EVENT_MAILBOX: &str = "EventMailbox";
    pub const LEASE_RENEWAL: &str = "LeaseRenewalService";
    /// SORCER rendezvous peers.
    pub const JOBBER: &str = "Jobber";
    pub const SPACER: &str = "Spacer";
    pub const EXERTION_SPACE: &str = "ExertionSpace";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uuid_display_matches_rfc_shape() {
        let id = SvcUuid(0x267c67a0_dd67_4b95_beb0_e6763e117b03);
        assert_eq!(id.to_string(), "267c67a0-dd67-4b95-beb0-e6763e117b03");
    }

    #[test]
    fn generated_ids_are_distinct_and_deterministic() {
        let mut rng = SimRng::new(1);
        let a = SvcUuid::generate(&mut rng);
        let b = SvcUuid::generate(&mut rng);
        assert_ne!(a, b);
        let mut rng2 = SimRng::new(1);
        assert_eq!(SvcUuid::generate(&mut rng2), a);
        assert!(!a.is_nil());
        assert!(SvcUuid::NIL.is_nil());
    }

    #[test]
    fn uuid_wire_round_trip() {
        let id = SvcUuid(0xDEAD_BEEF_0123_4567_89AB_CDEF_0000_FFFF);
        let mut b = id.to_wire();
        assert_eq!(b.len(), 16);
        assert_eq!(SvcUuid::decode(&mut b).unwrap(), id);
    }

    #[test]
    fn interface_id_round_trip() {
        let i: InterfaceId = interfaces::SENSOR_DATA_ACCESSOR.into();
        let mut b = i.to_wire();
        assert_eq!(InterfaceId::decode(&mut b).unwrap(), i);
        assert_eq!(i.to_string(), "SensorDataAccessor");
    }
}
