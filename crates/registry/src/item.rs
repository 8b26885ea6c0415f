//! Service items and lookup templates.

use sensorcer_sim::env::ServiceId;
use sensorcer_sim::topology::HostId;
use sensorcer_sim::wire::{Bytes, BytesMut};
use sensorcer_sim::wire::{WireDecode, WireEncode, WireError};

use crate::attributes::{name_of, AttrMatch, Entry};
use crate::ids::{InterfaceId, SvcUuid};

/// A registered service: identity, where it runs, the sim-level handle to
/// reach it, the remote interfaces it implements, and its attributes.
///
/// The `service` handle plays the role of Jini's downloaded proxy object:
/// whoever holds a `ServiceItem` can invoke the service.
#[derive(Clone, PartialEq, Debug)]
pub struct ServiceItem {
    pub uuid: SvcUuid,
    pub host: HostId,
    pub service: ServiceId,
    pub interfaces: Vec<InterfaceId>,
    pub attributes: Vec<Entry>,
}

impl ServiceItem {
    pub fn new(
        uuid: SvcUuid,
        host: HostId,
        service: ServiceId,
        interfaces: Vec<InterfaceId>,
        attributes: Vec<Entry>,
    ) -> ServiceItem {
        ServiceItem {
            uuid,
            host,
            service,
            interfaces,
            attributes,
        }
    }

    /// The `Name` attribute, if present (how the browser labels services).
    pub fn name(&self) -> Option<&str> {
        name_of(&self.attributes)
    }

    pub fn implements(&self, iface: &str) -> bool {
        self.interfaces.iter().any(|i| i.as_str() == iface)
    }
}

impl WireEncode for ServiceItem {
    fn encode(&self, buf: &mut BytesMut) {
        self.uuid.encode(buf);
        self.host.0.encode(buf);
        self.service.0.encode(buf);
        self.interfaces.encode(buf);
        self.attributes.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.uuid.encoded_len()
            + self.host.0.encoded_len()
            + self.service.0.encoded_len()
            + self.interfaces.encoded_len()
            + self.attributes.encoded_len()
    }
}

impl WireDecode for ServiceItem {
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(ServiceItem {
            uuid: SvcUuid::decode(buf)?,
            host: HostId(u32::decode(buf)?),
            service: ServiceId(u64::decode(buf)?),
            interfaces: Vec::decode(buf)?,
            attributes: Vec::decode(buf)?,
        })
    }
}

/// A lookup template, matching Jini `ServiceTemplate` semantics:
///
/// * `ids` — if non-empty, the item's uuid must be among them;
/// * `interfaces` — every listed interface must be implemented;
/// * `attributes` — every listed [`AttrMatch`] must be satisfied by at
///   least one of the item's entries.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ServiceTemplate {
    pub ids: Vec<SvcUuid>,
    pub interfaces: Vec<InterfaceId>,
    pub attributes: Vec<AttrMatch>,
}

impl ServiceTemplate {
    /// Match-anything template.
    pub fn any() -> ServiceTemplate {
        ServiceTemplate::default()
    }

    /// Template matching one interface.
    pub fn by_interface(iface: impl Into<InterfaceId>) -> ServiceTemplate {
        ServiceTemplate {
            interfaces: vec![iface.into()],
            ..Default::default()
        }
    }

    /// Template matching a service name (`Name` attribute).
    pub fn by_name(name: impl Into<String>) -> ServiceTemplate {
        ServiceTemplate {
            attributes: vec![AttrMatch::name(name)],
            ..Default::default()
        }
    }

    /// Template matching a specific uuid.
    pub fn by_id(id: SvcUuid) -> ServiceTemplate {
        ServiceTemplate {
            ids: vec![id],
            ..Default::default()
        }
    }

    /// Add an interface requirement.
    pub fn and_interface(mut self, iface: impl Into<InterfaceId>) -> ServiceTemplate {
        self.interfaces.push(iface.into());
        self
    }

    /// Add an attribute requirement.
    pub fn and_attr(mut self, m: AttrMatch) -> ServiceTemplate {
        self.attributes.push(m);
        self
    }

    /// Jini matching semantics.
    pub fn matches(&self, item: &ServiceItem) -> bool {
        if !self.ids.is_empty() && !self.ids.contains(&item.uuid) {
            return false;
        }
        for iface in &self.interfaces {
            if !item.implements(iface.as_str()) {
                return false;
            }
        }
        for attr in &self.attributes {
            if !item.attributes.iter().any(|e| attr.matches(e)) {
                return false;
            }
        }
        true
    }
}

impl WireEncode for ServiceTemplate {
    fn encode(&self, buf: &mut BytesMut) {
        self.ids.encode(buf);
        self.interfaces.encode(buf);
        // Attribute templates are encoded coarsely (debug text) — only
        // their size matters on the wire, matching is always local.
        let rendered: Vec<String> = self.attributes.iter().map(|a| format!("{a:?}")).collect();
        rendered.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.ids.encoded_len()
            + self.interfaces.encoded_len()
            + 4
            + self
                .attributes
                .iter()
                .map(|a| 4 + a.debug_len())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::interfaces;

    fn item() -> ServiceItem {
        ServiceItem::new(
            SvcUuid(7),
            HostId(1),
            ServiceId(3),
            vec![
                interfaces::SENSOR_DATA_ACCESSOR.into(),
                interfaces::SERVICER.into(),
            ],
            vec![
                Entry::Name("Neem-Sensor".into()),
                Entry::ServiceType("ELEMENTARY".into()),
                Entry::Location {
                    building: "CP TTU".into(),
                    floor: "3".into(),
                    room: "310".into(),
                },
            ],
        )
    }

    #[test]
    fn any_template_matches() {
        assert!(ServiceTemplate::any().matches(&item()));
    }

    #[test]
    fn interface_matching_requires_all() {
        assert!(ServiceTemplate::by_interface(interfaces::SENSOR_DATA_ACCESSOR).matches(&item()));
        assert!(
            ServiceTemplate::by_interface(interfaces::SENSOR_DATA_ACCESSOR)
                .and_interface(interfaces::SERVICER)
                .matches(&item())
        );
        assert!(!ServiceTemplate::by_interface(interfaces::CYBERNODE).matches(&item()));
        assert!(
            !ServiceTemplate::by_interface(interfaces::SENSOR_DATA_ACCESSOR)
                .and_interface(interfaces::CYBERNODE)
                .matches(&item())
        );
    }

    #[test]
    fn name_and_id_matching() {
        assert!(ServiceTemplate::by_name("Neem-Sensor").matches(&item()));
        assert!(!ServiceTemplate::by_name("Coral-Sensor").matches(&item()));
        assert!(ServiceTemplate::by_id(SvcUuid(7)).matches(&item()));
        assert!(!ServiceTemplate::by_id(SvcUuid(8)).matches(&item()));
    }

    #[test]
    fn attribute_conjunction() {
        let t = ServiceTemplate::any()
            .and_attr(AttrMatch::service_type("ELEMENTARY"))
            .and_attr(AttrMatch::Location {
                building: Some("CP TTU".into()),
                floor: None,
                room: None,
            });
        assert!(t.matches(&item()));
        let t2 = t.and_attr(AttrMatch::service_type("COMPOSITE"));
        assert!(!t2.matches(&item()));
    }

    #[test]
    fn item_helpers() {
        let it = item();
        assert_eq!(it.name(), Some("Neem-Sensor"));
        assert!(it.implements(interfaces::SERVICER));
        assert!(!it.implements("Nope"));
    }

    #[test]
    fn item_wire_round_trip() {
        let it = item();
        let mut wire = it.to_wire();
        let back = ServiceItem::decode(&mut wire).unwrap();
        assert_eq!(back, it);
    }

    #[test]
    fn template_encodes_nonzero_bytes() {
        let t = ServiceTemplate::by_name("Neem-Sensor");
        assert!(t.encoded_len() > 10);
    }
}
