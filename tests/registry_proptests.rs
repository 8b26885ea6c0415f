//! Property tests for the registry: lease-table invariants under random
//! operation sequences, template-matching laws, the wire codec of every
//! registry type, and `encoded_len` against the bytes it stands for. Driven
//! by the deterministic harness in `sensorcer_sim::check`.

use sensorcer_suite::registry::attributes::{AttrMatch, Entry};
use sensorcer_suite::registry::ids::{InterfaceId, SvcUuid};
use sensorcer_suite::registry::item::{ServiceItem, ServiceTemplate};
use sensorcer_suite::registry::lease::{LeaseError, LeaseId, LeasePolicy, LeaseTable};
use sensorcer_suite::sim::check::{run_cases, Gen};
use sensorcer_suite::sim::env::ServiceId;
use sensorcer_suite::sim::time::{SimDuration, SimTime};
use sensorcer_suite::sim::topology::HostId;
use sensorcer_suite::sim::wire::{Bytes, BytesMut, WireDecode, WireEncode};

/// A randomized lease-table operation.
#[derive(Debug, Clone)]
enum Op {
    Grant { dur_s: u64 },
    RenewNth { idx: usize },
    CancelNth { idx: usize },
    Advance { secs: u64 },
    Reap,
}

fn gen_op(g: &mut Gen) -> Op {
    match g.u64_in(0, 5) {
        0 => Op::Grant {
            dur_s: g.u64_in(1, 100),
        },
        1 => Op::RenewNth {
            idx: g.usize_in(0, 16),
        },
        2 => Op::CancelNth {
            idx: g.usize_in(0, 16),
        },
        3 => Op::Advance {
            secs: g.u64_in(1, 50),
        },
        _ => Op::Reap,
    }
}

/// Whatever the operation sequence, the table never lies: live leases
/// are exactly the granted-not-cancelled-not-expired ones, and
/// `next_expiry` is a true minimum.
#[test]
fn lease_table_invariants() {
    run_cases("lease_table_invariants", 96, |g| {
        let ops = g.vec_of(1, 80, gen_op);
        let mut table: LeaseTable<u32> = LeaseTable::new(LeasePolicy {
            max_duration: SimDuration::from_secs(1_000),
            default_duration: SimDuration::from_secs(10),
        });
        let mut now = SimTime::ZERO;
        let mut granted: Vec<(LeaseId, SimTime)> = Vec::new();
        let mut counter = 0u32;

        for op in ops {
            match op {
                Op::Grant { dur_s } => {
                    let lease = table.grant(now, Some(SimDuration::from_secs(dur_s)), counter);
                    counter += 1;
                    assert!(lease.expires > now);
                    assert!(lease.expires <= now + SimDuration::from_secs(1_000));
                    granted.push((lease.id, lease.expires));
                }
                Op::RenewNth { idx } => {
                    if let Some((id, exp)) = granted.get(idx % granted.len().max(1)).copied() {
                        match table.renew(now, id, None) {
                            Ok(renewed) => {
                                assert!(renewed.expires >= now);
                                granted.retain(|(i, _)| *i != id);
                                granted.push((id, renewed.expires));
                            }
                            Err(LeaseError::Expired) => assert!(now >= exp),
                            Err(LeaseError::Unknown) => {
                                assert!(
                                    !granted.iter().any(|(i, _)| *i == id)
                                        || table.get(now, id).is_err()
                                );
                            }
                        }
                    }
                }
                Op::CancelNth { idx } => {
                    if !granted.is_empty() {
                        let (id, _) = granted[idx % granted.len()];
                        let _ = table.cancel(id);
                        granted.retain(|(i, _)| *i != id);
                    }
                }
                Op::Advance { secs } => now += SimDuration::from_secs(secs),
                Op::Reap => {
                    let reaped = table.reap(now);
                    for (id, _) in &reaped {
                        assert!(
                            granted.iter().any(|(i, exp)| i == id && now >= *exp),
                            "reaped a live or unknown lease"
                        );
                    }
                    granted.retain(|(i, _)| !reaped.iter().any(|(r, _)| r == i));
                }
            }
            // Core invariant: `live()` equals our model of unexpired,
            // uncancelled grants.
            let live: Vec<_> = table.live(now).map(|(id, _)| id).collect();
            let mut model: Vec<_> = granted
                .iter()
                .filter(|(_, exp)| now < *exp)
                .map(|(id, _)| *id)
                .collect();
            model.sort();
            let mut live_sorted = live.clone();
            live_sorted.sort();
            assert_eq!(live_sorted, model);
            if let Some(next) = table.next_expiry() {
                assert!(granted.iter().any(|(_, exp)| *exp == next));
            }
        }
    });
}

/// Matching laws: `by_id` matches exactly its item; adding constraints
/// never widens a template; `any()` matches everything.
#[test]
fn template_matching_laws() {
    run_cases("template_matching_laws", 128, |g| {
        let names = g.vec_of(1, 12, |g| g.alpha_string(1, 12));
        let pick = g.usize_in(0, 12);
        let items: Vec<ServiceItem> = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                ServiceItem::new(
                    SvcUuid((i + 1) as u128),
                    HostId(0),
                    ServiceId(i as u64),
                    vec!["SensorDataAccessor".into()],
                    vec![Entry::Name(n.clone())],
                )
            })
            .collect();

        let target = &items[pick % items.len()];
        let by_id = ServiceTemplate::by_id(target.uuid);
        for item in &items {
            assert_eq!(by_id.matches(item), item.uuid == target.uuid);
            assert!(ServiceTemplate::any().matches(item));
        }

        // Narrowing: template T ∧ extra-attr matches a subset of T.
        let base = ServiceTemplate::by_interface("SensorDataAccessor");
        let narrowed = base.clone().and_attr(AttrMatch::name(names[0].clone()));
        for item in &items {
            if narrowed.matches(item) {
                assert!(base.matches(item), "narrowing must not widen");
            }
        }
    });
}

/// Text that exercises `Debug`'s escaping: quotes, backslashes, control
/// characters, `'` (which `str`'s `Debug` leaves alone), printable
/// non-ASCII, a combining accent (a grapheme extender, escaped), and the
/// zero-width space and byte-order mark (not printable, escaped).
fn text(g: &mut Gen) -> String {
    match g.u64_in(0, 4) {
        0 => String::new(),
        1 => g
            .vec_of(1, 8, |g| {
                *g.pick(&[
                    '"', '\\', '\n', '\t', '\u{7f}', 'é', '温', '\'', '\u{301}', '\u{200b}',
                    '\u{feff}', 'a',
                ])
            })
            .into_iter()
            .collect(),
        _ => g.ascii_string(24),
    }
}

fn opt(g: &mut Gen) -> Option<String> {
    g.bool().then(|| text(g))
}

fn gen_entry(g: &mut Gen) -> Entry {
    match g.u64_in(0, 5) {
        0 => Entry::Name(text(g)),
        1 => Entry::Comment(text(g)),
        2 => Entry::Location {
            building: text(g),
            floor: text(g),
            room: text(g),
        },
        3 => Entry::ServiceType(text(g)),
        _ => Entry::Custom {
            key: text(g),
            value: text(g),
        },
    }
}

fn gen_match(g: &mut Gen) -> AttrMatch {
    match g.u64_in(0, 6) {
        0 => AttrMatch::Any,
        1 => AttrMatch::Name(opt(g)),
        2 => AttrMatch::Comment(opt(g)),
        3 => AttrMatch::Location {
            building: opt(g),
            floor: opt(g),
            room: opt(g),
        },
        4 => AttrMatch::ServiceType(opt(g)),
        _ => AttrMatch::Custom {
            key: opt(g),
            value: opt(g),
        },
    }
}

fn gen_item(g: &mut Gen) -> ServiceItem {
    ServiceItem::new(
        SvcUuid(g.u128()),
        HostId(g.u64() as u32),
        ServiceId(g.u64()),
        g.vec_of(0, 4, |g| text(g).as_str().into()),
        g.vec_of(0, 6, gen_entry),
    )
}

/// Wire round trip for arbitrary service items and entries.
#[test]
fn service_item_codec() {
    run_cases("service_item_codec", 128, |g| {
        let item = gen_item(g);
        let mut wire = item.to_wire();
        assert_eq!(ServiceItem::decode(&mut wire).unwrap(), item);
        assert_eq!(wire.remaining(), 0);
        let entry = gen_entry(g);
        assert_eq!(Entry::decode(&mut entry.to_wire()).unwrap(), entry);
    });
}

fn bytes(raw: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(raw.len());
    buf.put_slice(raw);
    buf.freeze()
}

/// Whether `raw` decodes as a `T`; a panic fails the test.
fn decodes<T: WireDecode>(raw: &[u8]) -> bool {
    T::decode(&mut bytes(raw)).is_ok()
}

/// Every registry type a peer can send decodes any byte string to a value
/// or an error: every prefix of an encoding, one with a bit flipped, and
/// noise. A proper prefix of an encoding is refused.
#[test]
fn registry_decoders_never_panic() {
    let mut attempts = 0usize;
    run_cases("registry_decoders_never_panic", 256, |g| {
        let item = gen_item(g).to_wire().to_vec();
        let entry = gen_entry(g).to_wire().to_vec();
        let iface = InterfaceId::new(text(g)).to_wire().to_vec();
        let uuid = SvcUuid(g.u128()).to_wire().to_vec();
        let noise: Vec<u8> = (0..g.usize_in(0, 64)).map(|_| g.u64() as u8).collect();
        let mut flipped = item.clone();
        let at = g.usize_in(0, flipped.len());
        flipped[at] ^= 1 << g.u64_in(0, 8);

        for raw in [&item, &entry, &iface, &uuid, &noise, &flipped] {
            for len in 0..=raw.len() {
                let prefix = &raw[..len];
                decodes::<ServiceItem>(prefix);
                decodes::<Entry>(prefix);
                decodes::<InterfaceId>(prefix);
                decodes::<SvcUuid>(prefix);
                attempts += 4;
            }
        }
        for (raw, decoded) in [
            (&item, decodes::<ServiceItem> as fn(&[u8]) -> bool),
            (&entry, decodes::<Entry>),
            (&iface, decodes::<InterfaceId>),
            (&uuid, decodes::<SvcUuid>),
        ] {
            assert!(decoded(raw));
            let len = g.usize_in(0, raw.len());
            assert!(!decoded(&raw[..len]), "a {len}-byte prefix decoded");
        }
    });
    assert!(attempts > 100_000, "{attempts} decodes tried");
}

/// The wire is charged `encoded_len()` without encoding anything: for
/// items, entries, templates (whose matchers go out as `Debug` text, quotes
/// and escapes included) and events it must be the size of the encoding.
#[test]
fn encoded_len_is_the_length_of_the_encoding() {
    use sensorcer_suite::registry::events::{event_wire_size, ServiceEvent, Transition};

    run_cases("encoded_len_is_the_length_of_the_encoding", 256, |g| {
        let entry = gen_entry(g);
        assert_eq!(entry.encoded_len(), entry.to_wire().len(), "{entry:?}");

        let item = gen_item(g);
        assert_eq!(item.encoded_len(), item.to_wire().len(), "{item:?}");

        let template = ServiceTemplate {
            ids: g.vec_of(0, 3, |g| SvcUuid(g.u128())),
            interfaces: g.vec_of(0, 3, |g| text(g).as_str().into()),
            attributes: g.vec_of(0, 4, gen_match),
        };
        assert_eq!(
            template.encoded_len(),
            template.to_wire().len(),
            "{template:?}"
        );

        // An event goes out as seq, instant, uuid, transition and the item
        // if there is one.
        let event = ServiceEvent {
            seq: g.u64(),
            at: SimTime(g.u64()),
            uuid: item.uuid,
            transition: Transition::MatchToMatch,
            item: g.bool().then(|| item.clone()),
        };
        let payload = event.item.as_ref().map_or(0, |i| i.to_wire().len());
        assert_eq!(event_wire_size(&event), 8 + 8 + 16 + 1 + payload);
    });
}
