//! Identifiers used across the registry.

use std::sync::Arc;

use sensorcer_sim::rng::SimRng;

/// Bytes a [`SvcUuid`] takes on the simulated wire.
pub(crate) const UUID_WIRE_BYTES: usize = 16;

/// The length prefix ahead of every string and list on the simulated wire.
pub(crate) const LEN_PREFIX_BYTES: usize = 4;

/// What `text` weighs on the simulated wire: its length prefix and its
/// UTF-8 bytes.
pub(crate) fn text_wire_size(text: &str) -> usize {
    LEN_PREFIX_BYTES + text.len()
}

/// What a list weighs on the simulated wire: its length prefix and each
/// element's `size`.
pub(crate) fn list_wire_size<T>(items: &[T], size: impl Fn(&T) -> usize) -> usize {
    LEN_PREFIX_BYTES + items.iter().map(size).sum::<usize>()
}

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

    /// Bytes on the simulated wire: the name as length-prefixed text.
    pub fn wire_size(&self) -> usize {
        text_wire_size(self.as_str())
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

/// Well-known interface names used throughout the reproduction. These are
/// the remote interfaces from the paper's component diagram (Fig. 1).
pub mod interfaces {
    /// The common sensor-value interface implemented by every ESP and CSP.
    pub const SENSOR_DATA_ACCESSOR: &str = "SensorDataAccessor";
    /// The top-level SORCER peer interface (the paper's
    /// `service(Exertion, Transaction)`; here no exertion carries one).
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
    fn interface_id_displays_its_name() {
        let i: InterfaceId = interfaces::SENSOR_DATA_ACCESSOR.into();
        assert_eq!(i.to_string(), "SensorDataAccessor");
        assert_eq!(i.wire_size(), 4 + "SensorDataAccessor".len());
    }
}
