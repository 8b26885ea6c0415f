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

/// The FNV-1a offset basis: where a hash starts.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a of `bytes`, continuing from `h`: hashing two slices one
/// after the other hashes their concatenation.
pub(crate) fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
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

    /// FNV-1a of the kind, then the text. A custom key and its value are
    /// split by 0xFF, a byte UTF-8 never contains, so no two keys feed the
    /// hash the same bytes.
    fn hash(self) -> u64 {
        let (kind, text, value) = match self {
            AttrKey::Name(n) => (0, n, None),
            AttrKey::ServiceType(t) => (1, t, None),
            AttrKey::Building(b) => (2, b, None),
            AttrKey::Custom(k, v) => (3, k, Some(v)),
        };
        let h = fnv1a(fnv1a(FNV_OFFSET, &[kind]), text.as_bytes());
        match value {
            Some(v) => fnv1a(fnv1a(h, &[0xFF]), v.as_bytes()),
            None => h,
        }
    }
}

/// The attribute postings of one lookup service: exact `Name`,
/// `ServiceType`, `Location.building` and `Custom` key + value, each kept
/// under a 64-bit hash of the key rather than a copy of its text.
///
/// A posting is a candidate set that `matches` filters, so two keys that
/// hash alike only widen it: both keys' items sit in one posting, and a
/// lookup on either skips the other's. Diffs and removals go by hash too,
/// so an item is posted under each of its hashes exactly once, however many
/// of its keys share one.
#[derive(Debug)]
pub(crate) struct AttrPostings {
    map: BTreeMap<u64, Posting>,
    key_hash: fn(AttrKey<'_>) -> u64,
}

impl Default for AttrPostings {
    fn default() -> Self {
        AttrPostings {
            map: BTreeMap::new(),
            key_hash: |key| key.hash(),
        }
    }
}

impl AttrPostings {
    /// Postings whose keys all collide: every indexed item in one posting.
    /// A test seam for the worst a hash can do.
    pub(crate) fn one_bucket() -> AttrPostings {
        AttrPostings {
            map: BTreeMap::new(),
            key_hash: |_| 0,
        }
    }

    fn hashes<'e>(&self, entries: &'e [Entry]) -> impl Iterator<Item = u64> + 'e {
        let key_hash = self.key_hash;
        entries.iter().filter_map(AttrKey::of_entry).map(key_hash)
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
    /// only the hashes one list has and the other lacks.
    pub(crate) fn reindex(&mut self, uuid: SvcUuid, old: &[Entry], new: &[Entry]) {
        for h in self.hashes(old) {
            if !self.hashes(new).any(|n| n == h) {
                unpost(&mut self.map, &h, uuid);
            }
        }
        for h in self.hashes(new) {
            if !self.hashes(old).any(|o| o == h) {
                post(&mut self.map, &h, uuid);
            }
        }
    }

    /// The posting that holds every item able to satisfy `m`: `None` if
    /// `m` is not served by one posting, `Some(None)` if it is and nobody
    /// carries a key with its hash.
    pub(crate) fn candidates(&self, m: &AttrMatch) -> Option<Option<&Posting>> {
        let key = AttrKey::of_match(m)?;
        Some(self.map.get(&(self.key_hash)(key)))
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
    fn the_shared_fnv_is_the_reference_fnv1a() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }

    #[test]
    fn kinds_and_custom_splits_hash_apart() {
        let keys = [
            AttrKey::Name("CP TTU"),
            AttrKey::ServiceType("CP TTU"),
            AttrKey::Building("CP TTU"),
            AttrKey::Custom("CP TTU", ""),
            AttrKey::Custom("CP", " TTU"),
            AttrKey::Custom("", "CP TTU"),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a.hash(), b.hash(), "{a:?} and {b:?}");
            }
        }
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
        assert!(idx.map.is_empty());
    }

    #[test]
    fn in_one_bucket_an_item_is_posted_while_any_key_remains() {
        let mut idx = AttrPostings::one_bucket();
        let (a, b) = (SvcUuid(1), SvcUuid(2));
        let old = vec![Entry::Name("a".into()), Entry::ServiceType("T".into())];
        idx.index(a, &old);
        idx.index(b, &[Entry::Name("b".into())]);
        // Every key shares the one posting: a lookup sees both items and
        // leaves the choice to `matches`.
        assert_eq!(
            uuids(idx.candidates(&AttrMatch::name("zzz")).unwrap()),
            vec![1, 2]
        );
        // Dropping one of `a`'s two keys leaves it posted.
        idx.reindex(a, &old, &old[..1]);
        assert_eq!(
            uuids(idx.candidates(&AttrMatch::name("a")).unwrap()),
            vec![1, 2]
        );
        idx.unindex(a, &old[..1]);
        idx.unindex(b, &[Entry::Name("b".into())]);
        assert!(idx.map.is_empty());
    }
}
