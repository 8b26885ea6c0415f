//! Operational strings — Rio's deployment descriptors.
//!
//! "The Rio provisioning framework provides a model to dynamically
//! instantiate, monitor and manage service components as described in a
//! deployment descriptor called an Operational-String" (§IV.C). An
//! [`OperationalString`] lists [`ServiceElement`]s with planned instance
//! counts and QoS requirements; the provision monitor keeps actual counts
//! equal to planned counts.

use std::collections::BTreeMap;

use crate::qos::QosRequirements;

/// One deployable service kind within an opstring.
#[derive(Clone, PartialEq, Debug)]
pub struct ServiceElement {
    /// Deployment name (instances get `name`, `name-2`, ... as needed).
    pub name: String,
    /// Factory key: which registered service factory instantiates this
    /// element (e.g. `"composite-sensor"`).
    pub type_key: String,
    /// How many instances the monitor must keep alive.
    pub planned: u32,
    /// At most this many instances per cybernode (Rio's per-node cap).
    pub max_per_node: u32,
    pub qos: QosRequirements,
    /// Free-form configuration handed to the factory (e.g. the compute
    /// expression and child names for a provisioned composite).
    pub config: BTreeMap<String, String>,
}

impl ServiceElement {
    /// A single-instance element with modest QoS.
    pub fn singleton(name: impl Into<String>, type_key: impl Into<String>) -> ServiceElement {
        ServiceElement {
            name: name.into(),
            type_key: type_key.into(),
            planned: 1,
            max_per_node: 1,
            qos: QosRequirements::modest(),
            config: BTreeMap::new(),
        }
    }

    pub fn with_planned(mut self, n: u32) -> Self {
        self.planned = n;
        self
    }

    pub fn with_max_per_node(mut self, n: u32) -> Self {
        self.max_per_node = n;
        self
    }

    pub fn with_qos(mut self, qos: QosRequirements) -> Self {
        self.qos = qos;
        self
    }

    pub fn with_config(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.config.insert(key.into(), value.into());
        self
    }

    /// Validate the element definition.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("service element needs a name".into());
        }
        if self.type_key.is_empty() {
            return Err(format!("element '{}' needs a factory type key", self.name));
        }
        if self.planned == 0 {
            return Err(format!("element '{}' plans zero instances", self.name));
        }
        if self.max_per_node == 0 {
            return Err(format!(
                "element '{}' allows zero instances per node",
                self.name
            ));
        }
        Ok(())
    }
}

/// A named collection of service elements deployed and managed together.
#[derive(Clone, PartialEq, Debug)]
pub struct OperationalString {
    pub name: String,
    pub elements: Vec<ServiceElement>,
}

impl OperationalString {
    pub fn new(name: impl Into<String>) -> OperationalString {
        OperationalString {
            name: name.into(),
            elements: Vec::new(),
        }
    }

    pub fn with_element(mut self, element: ServiceElement) -> Self {
        self.elements.push(element);
        self
    }

    /// Validate the whole opstring (non-empty, unique element names, valid
    /// elements).
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("operational string needs a name".into());
        }
        if self.elements.is_empty() {
            return Err(format!("opstring '{}' has no elements", self.name));
        }
        let mut seen = std::collections::BTreeSet::new();
        for e in &self.elements {
            e.validate()?;
            if !seen.insert(&e.name) {
                return Err(format!("duplicate element name '{}'", e.name));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let os = OperationalString::new("sensor-net").with_element(
            ServiceElement::singleton("New-Composite", "composite-sensor")
                .with_planned(2)
                .with_max_per_node(1)
                .with_config("expression", "(a + b)/2"),
        );
        assert_eq!(os.elements[0].planned, 2);
        assert!(os.validate().is_ok());
        assert_eq!(os.elements[0].config["expression"], "(a + b)/2");
    }

    #[test]
    fn validation_failures() {
        assert!(
            OperationalString::new("x").validate().is_err(),
            "no elements"
        );
        assert!(OperationalString::new("")
            .with_element(ServiceElement::singleton("a", "t"))
            .validate()
            .is_err());
        let dup = OperationalString::new("x")
            .with_element(ServiceElement::singleton("a", "t"))
            .with_element(ServiceElement::singleton("a", "t"));
        assert!(dup.validate().is_err());
        assert!(ServiceElement::singleton("", "t").validate().is_err());
        assert!(ServiceElement::singleton("a", "").validate().is_err());
        assert!(ServiceElement::singleton("a", "t")
            .with_planned(0)
            .validate()
            .is_err());
        assert!(ServiceElement::singleton("a", "t")
            .with_max_per_node(0)
            .validate()
            .is_err());
    }
}
