//! Service items and lookup templates.

use sensorcer_sim::env::ServiceId;
use sensorcer_sim::topology::HostId;

use crate::attributes::{name_of, AttrMatch, Entry};
use crate::ids::{list_wire_size, InterfaceId, SvcUuid, LEN_PREFIX_BYTES, UUID_WIRE_BYTES};

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

    /// A provider's item as it first joins: no uuid yet, the interfaces it
    /// implements, then its `Name` and `ServiceType`.
    pub fn provider(
        host: HostId,
        service: ServiceId,
        interfaces: &[&str],
        name: &str,
        service_type: &str,
    ) -> ServiceItem {
        let attributes = vec![
            Entry::Name(name.to_string()),
            Entry::ServiceType(service_type.to_string()),
        ];
        let interfaces = interfaces.iter().map(|&iface| iface.into()).collect();
        ServiceItem::new(SvcUuid::NIL, host, service, interfaces, attributes)
    }

    /// The `Name` attribute, if present (how the browser labels services).
    pub fn name(&self) -> Option<&str> {
        name_of(&self.attributes)
    }

    pub fn implements(&self, iface: &str) -> bool {
        self.interfaces.iter().any(|i| i.as_str() == iface)
    }

    /// Bytes on the simulated wire: the uuid, the host (4 bytes) and
    /// service (8 bytes) handles, then the interfaces and the attributes
    /// as length-prefixed lists.
    pub fn wire_size(&self) -> usize {
        UUID_WIRE_BYTES
            + size_of_val(&self.host.0)
            + size_of_val(&self.service.0)
            + list_wire_size(&self.interfaces, InterfaceId::wire_size)
            + list_wire_size(&self.attributes, Entry::wire_size)
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

    /// Rewrite in place the text the first attribute requirement pins (a
    /// `Name`, or a `Custom` entry's value), keeping its buffer: a lender
    /// that binds many providers through one template builds none per bind.
    pub fn repin(&mut self, text: &str) {
        if let Some(
            AttrMatch::Name(Some(pinned))
            | AttrMatch::Custom {
                value: Some(pinned),
                ..
            },
        ) = self.attributes.first_mut()
        {
            pinned.clear();
            pinned.push_str(text);
        }
    }

    /// Bytes on the simulated wire: the ids and the interfaces as
    /// length-prefixed lists, then each attribute matcher as
    /// length-prefixed `Debug` text. Only its size matters: matching is
    /// always done where the template arrives.
    pub fn wire_size(&self) -> usize {
        list_wire_size(&self.ids, |_| UUID_WIRE_BYTES)
            + list_wire_size(&self.interfaces, InterfaceId::wire_size)
            + list_wire_size(&self.attributes, |a| LEN_PREFIX_BYTES + a.debug_len())
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
}
