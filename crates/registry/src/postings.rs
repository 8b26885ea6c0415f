//! Posting sets: which registrations carry a given interface or attribute.
//!
//! The lookup service narrows a template to the smallest posting among its
//! constraints and runs [`crate::item::ServiceTemplate::matches`] on those
//! candidates only. Postings iterate in uuid order, the order of the item
//! map itself, so a narrowed lookup visits what a full scan would.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};

use crate::attributes::{AttrMatch, Entry};
use crate::ids::SvcUuid;

/// The uuids under one key. Most keys (every service name) have exactly
/// one, and that one is held inline: no tree node is allocated until a
/// second uuid arrives.
#[derive(Debug)]
pub(crate) enum Posting {
    One(SvcUuid),
    Many(BTreeSet<SvcUuid>),
}

impl Posting {
    pub(crate) fn len(&self) -> usize {
        match self {
            Posting::One(_) => 1,
            Posting::Many(set) => set.len(),
        }
    }

    /// The uuids in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &SvcUuid> {
        let (one, many) = match self {
            Posting::One(uuid) => (Some(uuid), None),
            Posting::Many(set) => (None, Some(set)),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }

    fn insert(&mut self, uuid: SvcUuid) -> bool {
        match self {
            Posting::One(held) if *held == uuid => false,
            Posting::One(held) => {
                *self = Posting::Many(BTreeSet::from([*held, uuid]));
                true
            }
            Posting::Many(set) => set.insert(uuid),
        }
    }
}

/// Add `uuid` under `key`; `false` if it was there already. The key is
/// cloned only when it is new to the map.
pub(crate) fn post<K, Q>(map: &mut BTreeMap<K, Posting>, key: &Q, uuid: SvcUuid) -> bool
where
    K: Ord + Borrow<Q>,
    Q: Ord + ToOwned<Owned = K> + ?Sized,
{
    match map.get_mut(key) {
        Some(posting) => posting.insert(uuid),
        None => {
            map.insert(key.to_owned(), Posting::One(uuid));
            true
        }
    }
}

/// Remove `uuid` from under `key`, and the key with its last uuid; `false`
/// if it was not there.
pub(crate) fn unpost<K, Q>(map: &mut BTreeMap<K, Posting>, key: &Q, uuid: SvcUuid) -> bool
where
    K: Ord + Borrow<Q>,
    Q: Ord + ?Sized,
{
    let (removed, emptied) = match map.get_mut(key) {
        None => return false,
        Some(Posting::One(held)) => (*held == uuid, *held == uuid),
        Some(Posting::Many(set)) => (set.remove(&uuid), set.is_empty()),
    };
    if emptied {
        map.remove(key);
    }
    removed
}

/// What an attribute is posted under. `Comment` is free text that changes
/// often and is never looked up exactly, so it has no postings.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum AttrKey<'a> {
    Name(&'a str),
    ServiceType(&'a str),
    Building(&'a str),
    Custom(&'a str, &'a str),
}

impl<'a> AttrKey<'a> {
    fn of_entry(entry: &'a Entry) -> Option<AttrKey<'a>> {
        match entry {
            Entry::Name(n) => Some(AttrKey::Name(n)),
            Entry::ServiceType(t) => Some(AttrKey::ServiceType(t)),
            Entry::Location { building, .. } => Some(AttrKey::Building(building)),
            Entry::Custom { key, value } => Some(AttrKey::Custom(key, value)),
            Entry::Comment(_) => None,
        }
    }

    /// The key every entry satisfying `m` is posted under, if there is one
    /// such key: a matcher with a wildcard where the key has a field spans
    /// many postings and is left to `matches`.
    fn of_match(m: &'a AttrMatch) -> Option<AttrKey<'a>> {
        match m {
            AttrMatch::Name(Some(n)) => Some(AttrKey::Name(n)),
            AttrMatch::ServiceType(Some(t)) => Some(AttrKey::ServiceType(t)),
            AttrMatch::Location {
                building: Some(b), ..
            } => Some(AttrKey::Building(b)),
            AttrMatch::Custom {
                key: Some(k),
                value: Some(v),
            } => Some(AttrKey::Custom(k, v)),
            _ => None,
        }
    }
}

/// The attribute postings of one lookup service: exact `Name`,
/// `ServiceType`, `Location.building` and `Custom` key + value.
#[derive(Debug, Default)]
pub(crate) struct AttrPostings {
    name: BTreeMap<String, Posting>,
    service_type: BTreeMap<String, Posting>,
    building: BTreeMap<String, Posting>,
    /// Key, then value.
    custom: BTreeMap<String, BTreeMap<String, Posting>>,
}

impl AttrPostings {
    fn insert(&mut self, key: AttrKey<'_>, uuid: SvcUuid) {
        let (map, key) = match key {
            AttrKey::Name(n) => (&mut self.name, n),
            AttrKey::ServiceType(t) => (&mut self.service_type, t),
            AttrKey::Building(b) => (&mut self.building, b),
            AttrKey::Custom(k, v) => match self.custom.get_mut(k) {
                Some(values) => (values, v),
                None => {
                    let values = BTreeMap::from([(v.to_string(), Posting::One(uuid))]);
                    self.custom.insert(k.to_string(), values);
                    return;
                }
            },
        };
        post(map, key, uuid);
    }

    fn remove(&mut self, key: AttrKey<'_>, uuid: SvcUuid) {
        let (map, key) = match key {
            AttrKey::Name(n) => (&mut self.name, n),
            AttrKey::ServiceType(t) => (&mut self.service_type, t),
            AttrKey::Building(b) => (&mut self.building, b),
            AttrKey::Custom(k, v) => {
                let Some(values) = self.custom.get_mut(k) else {
                    return;
                };
                unpost(values, v, uuid);
                if values.is_empty() {
                    self.custom.remove(k);
                }
                return;
            }
        };
        unpost(map, key, uuid);
    }

    /// Post `uuid` under every indexed attribute in `entries`.
    pub(crate) fn index(&mut self, uuid: SvcUuid, entries: &[Entry]) {
        self.reindex(uuid, &[], entries);
    }

    /// Remove `uuid` from under every indexed attribute in `entries`.
    pub(crate) fn unindex(&mut self, uuid: SvcUuid, entries: &[Entry]) {
        self.reindex(uuid, entries, &[]);
    }

    /// Move `uuid` from the postings of `old` to those of `new`, touching
    /// only the keys one list has and the other lacks.
    pub(crate) fn reindex(&mut self, uuid: SvcUuid, old: &[Entry], new: &[Entry]) {
        fn keys(entries: &[Entry]) -> impl Iterator<Item = AttrKey<'_>> {
            entries.iter().filter_map(AttrKey::of_entry)
        }
        for key in keys(old) {
            if !keys(new).any(|k| k == key) {
                self.remove(key, uuid);
            }
        }
        for key in keys(new) {
            if !keys(old).any(|k| k == key) {
                self.insert(key, uuid);
            }
        }
    }

    /// The posting that holds every item able to satisfy `m`: `None` if
    /// `m` is not served by one posting, `Some(None)` if it is and nobody
    /// carries the value.
    pub(crate) fn candidates(&self, m: &AttrMatch) -> Option<Option<&Posting>> {
        Some(match AttrKey::of_match(m)? {
            AttrKey::Name(n) => self.name.get(n),
            AttrKey::ServiceType(t) => self.service_type.get(t),
            AttrKey::Building(b) => self.building.get(b),
            AttrKey::Custom(k, v) => self.custom.get(k).and_then(|values| values.get(v)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uuids(p: Option<&Posting>) -> Vec<u128> {
        p.map(|p| p.iter().map(|u| u.0).collect())
            .unwrap_or_default()
    }

    #[test]
    fn a_posting_grows_from_inline_to_a_set_in_uuid_order() {
        let mut map: BTreeMap<String, Posting> = BTreeMap::new();
        assert!(post(&mut map, "k", SvcUuid(9)));
        assert!(matches!(map["k"], Posting::One(_)));
        assert!(!post(&mut map, "k", SvcUuid(9)), "already there");
        assert!(post(&mut map, "k", SvcUuid(3)));
        assert!(post(&mut map, "k", SvcUuid(5)));
        assert_eq!(map["k"].len(), 3);
        assert_eq!(uuids(map.get("k")), vec![3, 5, 9]);

        assert!(!unpost(&mut map, "k", SvcUuid(4)), "never there");
        assert!(!unpost(&mut map, "other", SvcUuid(3)));
        for u in [3, 5, 9] {
            assert!(unpost(&mut map, "k", SvcUuid(u)));
        }
        assert!(map.is_empty(), "the key leaves with its last uuid");
    }

    #[test]
    fn reindex_touches_only_what_changed() {
        let loc = |floor: &str| Entry::Location {
            building: "B1".into(),
            floor: floor.into(),
            room: "1".into(),
        };
        let custom = |v: &str| Entry::Custom {
            key: "zone".into(),
            value: v.into(),
        };
        let building = AttrMatch::Location {
            building: Some("B1".into()),
            floor: None,
            room: None,
        };
        let zone = |v: &str| AttrMatch::Custom {
            key: Some("zone".into()),
            value: Some(v.into()),
        };
        let mut idx = AttrPostings::default();
        let id = SvcUuid(1);
        // Two entries under one key: posted once, and still posted while
        // either of them remains.
        let old = vec![Entry::Name("a".into()), loc("1"), loc("2"), custom("north")];
        idx.index(id, &old);
        let new = vec![
            Entry::Name("b".into()),
            loc("2"),
            custom("south"),
            Entry::Comment("x".into()),
        ];
        idx.reindex(id, &old, &new);
        assert_eq!(
            uuids(idx.candidates(&AttrMatch::name("a")).unwrap()),
            vec![]
        );
        assert_eq!(
            uuids(idx.candidates(&AttrMatch::name("b")).unwrap()),
            vec![1]
        );
        assert_eq!(uuids(idx.candidates(&building).unwrap()), vec![1]);
        assert_eq!(uuids(idx.candidates(&zone("north")).unwrap()), vec![]);
        assert_eq!(uuids(idx.candidates(&zone("south")).unwrap()), vec![1]);
        // Wildcards and comments are not served by a posting.
        assert!(idx.candidates(&AttrMatch::Name(None)).is_none());
        assert!(idx
            .candidates(&AttrMatch::Comment(Some("x".into())))
            .is_none());
        assert!(idx
            .candidates(&AttrMatch::Custom {
                key: Some("zone".into()),
                value: None
            })
            .is_none());

        idx.unindex(id, &new);
        assert!(idx.name.is_empty() && idx.building.is_empty() && idx.custom.is_empty());
    }
}
