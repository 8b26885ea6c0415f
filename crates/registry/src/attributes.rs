//! Attribute entries attached to service registrations.
//!
//! Jini lookups match on "object types (interfaces) and associated
//! complementary attributes" (§IV.B). Fig. 2 of the paper shows the entry
//! kinds a SenSORCER registration carries: `Comment`, `Location`
//! (building/floor/room — "CP TTU", floor 3, room 310), service-type
//! metadata and UI descriptors. [`Entry`] reproduces those; [`AttrMatch`]
//! is the template form with per-field wildcards (Jini's `null` fields).

use crate::ids::text_wire_size;

/// The tag byte that says which kind of [`Entry`] follows on the wire.
const ENTRY_TAG_BYTES: usize = 1;

/// A concrete attribute on a service item.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Entry {
    /// Human-facing service name (Jini's `Name` entry).
    Name(String),
    /// Free-form comment (Fig. 2 shows `Comment.comment = SenSORCER Facade`).
    Comment(String),
    /// Physical location (Fig. 2: building "CP TTU", floor "3", room "310").
    Location {
        building: String,
        floor: String,
        room: String,
    },
    /// SenSORCER service kind shown in the browser ("ELEMENTARY",
    /// "COMPOSITE", "FACADE", ...).
    ServiceType(String),
    /// Arbitrary key/value pair for extensions.
    Custom { key: String, value: String },
}

impl Entry {
    /// Bytes on the simulated wire: the tag byte, then each field as
    /// length-prefixed text.
    pub fn wire_size(&self) -> usize {
        ENTRY_TAG_BYTES
            + match self {
                Entry::Name(s) | Entry::Comment(s) | Entry::ServiceType(s) => text_wire_size(s),
                Entry::Location {
                    building,
                    floor,
                    room,
                } => text_wire_size(building) + text_wire_size(floor) + text_wire_size(room),
                Entry::Custom { key, value } => text_wire_size(key) + text_wire_size(value),
            }
    }
}

/// A template over attributes: each field is `Some(expected)` or `None`
/// (wildcard), mirroring Jini's null-field matching.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum AttrMatch {
    /// Matches any entry (vacuous — useful as a placeholder).
    #[default]
    Any,
    Name(Option<String>),
    Comment(Option<String>),
    Location {
        building: Option<String>,
        floor: Option<String>,
        room: Option<String>,
    },
    ServiceType(Option<String>),
    Custom {
        key: Option<String>,
        value: Option<String>,
    },
}

impl AttrMatch {
    /// Convenience: exact-name template.
    pub fn name(n: impl Into<String>) -> AttrMatch {
        AttrMatch::Name(Some(n.into()))
    }

    /// Convenience: exact service-type template.
    pub fn service_type(t: impl Into<String>) -> AttrMatch {
        AttrMatch::ServiceType(Some(t.into()))
    }

    /// Does a concrete entry satisfy this template? Same-variant rule with
    /// `None` as per-field wildcard (Jini semantics).
    pub fn matches(&self, entry: &Entry) -> bool {
        fn field(want: &Option<String>, have: &str) -> bool {
            want.as_deref().is_none_or(|w| w == have)
        }
        match (self, entry) {
            (AttrMatch::Any, _) => true,
            (AttrMatch::Name(w), Entry::Name(h)) => field(w, h),
            (AttrMatch::Comment(w), Entry::Comment(h)) => field(w, h),
            (
                AttrMatch::Location {
                    building,
                    floor,
                    room,
                },
                Entry::Location {
                    building: hb,
                    floor: hf,
                    room: hr,
                },
            ) => field(building, hb) && field(floor, hf) && field(room, hr),
            (AttrMatch::ServiceType(w), Entry::ServiceType(h)) => field(w, h),
            (AttrMatch::Custom { key, value }, Entry::Custom { key: hk, value: hv }) => {
                field(key, hk) && field(value, hv)
            }
            _ => false,
        }
    }

    /// The length of `format!("{self:?}")`, counted without formatting:
    /// what a template's matcher costs on the wire.
    pub(crate) fn debug_len(&self) -> usize {
        // `Debug` for `str` quotes the text and escapes `"`, `\`, control
        // characters and grapheme extenders as `char::escape_debug` does,
        // but leaves `'` alone; a character it keeps is written as its
        // UTF-8 bytes.
        fn text(s: &str) -> usize {
            let escaped = |c: char| match c {
                '\'' => 1,
                c => match c.escape_debug().len() {
                    1 => c.len_utf8(),
                    n => n,
                },
            };
            2 + s.chars().map(escaped).sum::<usize>()
        }
        fn opt(field: &Option<String>) -> usize {
            field
                .as_deref()
                .map_or("None".len(), |s| "Some()".len() + text(s))
        }
        match self {
            AttrMatch::Any => "Any".len(),
            AttrMatch::Name(n) => "Name()".len() + opt(n),
            AttrMatch::Comment(c) => "Comment()".len() + opt(c),
            AttrMatch::ServiceType(t) => "ServiceType()".len() + opt(t),
            AttrMatch::Location {
                building,
                floor,
                room,
            } => {
                "Location { building: , floor: , room:  }".len()
                    + opt(building)
                    + opt(floor)
                    + opt(room)
            }
            AttrMatch::Custom { key, value } => {
                "Custom { key: , value:  }".len() + opt(key) + opt(value)
            }
        }
    }
}

/// Extract the `Name` attribute from an entry list, if present.
pub fn name_of(entries: &[Entry]) -> Option<&str> {
    entries.iter().find_map(|e| match e {
        Entry::Name(n) => Some(n.as_str()),
        _ => None,
    })
}

/// Extract the `ServiceType` attribute from an entry list, if present.
pub fn service_type_of(entries: &[Entry]) -> Option<&str> {
    entries.iter().find_map(|e| match e {
        Entry::ServiceType(t) => Some(t.as_str()),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc() -> Entry {
        Entry::Location {
            building: "CP TTU".into(),
            floor: "3".into(),
            room: "310".into(),
        }
    }

    #[test]
    fn exact_matching() {
        assert!(AttrMatch::name("Neem-Sensor").matches(&Entry::Name("Neem-Sensor".into())));
        assert!(!AttrMatch::name("Neem-Sensor").matches(&Entry::Name("Jade-Sensor".into())));
        assert!(!AttrMatch::name("Neem-Sensor").matches(&Entry::Comment("Neem-Sensor".into())));
    }

    #[test]
    fn wildcard_fields() {
        let any_name = AttrMatch::Name(None);
        assert!(any_name.matches(&Entry::Name("anything".into())));
        assert!(!any_name.matches(&loc()));

        let same_building = AttrMatch::Location {
            building: Some("CP TTU".into()),
            floor: None,
            room: None,
        };
        assert!(same_building.matches(&loc()));
        let wrong_room = AttrMatch::Location {
            building: Some("CP TTU".into()),
            floor: None,
            room: Some("999".into()),
        };
        assert!(!wrong_room.matches(&loc()));
    }

    #[test]
    fn any_matches_everything() {
        assert!(AttrMatch::Any.matches(&loc()));
        assert!(AttrMatch::Any.matches(&Entry::Name("x".into())));
    }

    #[test]
    fn custom_matching() {
        let e = Entry::Custom {
            key: "zone".into(),
            value: "north".into(),
        };
        assert!(AttrMatch::Custom {
            key: Some("zone".into()),
            value: None
        }
        .matches(&e));
        assert!(AttrMatch::Custom {
            key: None,
            value: Some("north".into())
        }
        .matches(&e));
        assert!(!AttrMatch::Custom {
            key: Some("region".into()),
            value: None
        }
        .matches(&e));
    }

    #[test]
    fn extraction_helpers() {
        let entries = vec![
            Entry::Comment("c".into()),
            Entry::Name("N".into()),
            Entry::ServiceType("ELEMENTARY".into()),
        ];
        assert_eq!(name_of(&entries), Some("N"));
        assert_eq!(service_type_of(&entries), Some("ELEMENTARY"));
        assert_eq!(name_of(&[]), None);
    }
}
