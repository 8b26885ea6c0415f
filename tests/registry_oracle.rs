//! The lookup service answers templates from posting sets (interface,
//! `Name`, `ServiceType`, `Location.building`, `Custom` key + value) and
//! hands out the items it stores. Whatever it has been through, a lookup
//! must visit exactly what a linear scan of a shadow model visits, in uuid
//! order, and a result already handed out must not change under its holder.
//! Attribute postings are keyed by a hash, so the same must hold when every
//! key collides; and each interface name is stored once.

use std::collections::BTreeMap;
use std::sync::Arc;

use sensorcer_suite::exertion::fmi::ServiceAccessor;
use sensorcer_suite::registry::prelude::*;
use sensorcer_suite::sim::check::{run_cases, Gen};
use sensorcer_suite::sim::prelude::*;

const NAMES: [&str; 4] = ["Neem", "Jade", "Coral", "Diamond"];
const IFACES: [&str; 3] = ["SensorDataAccessor", "Servicer", "Cybernode"];
const TYPES: [&str; 2] = ["ELEMENTARY", "COMPOSITE"];
const BUILDINGS: [&str; 2] = ["CP TTU", "Annex"];
const FLOORS: [&str; 2] = ["3", "4"];
const ROOMS: [&str; 2] = ["310", "311"];
const KEYS: [&str; 2] = ["equivalence-group", "zone"];
const VALUES: [&str; 2] = ["north", "south"];
const NOBODY: &str = "Nobody";

fn s(g: &mut Gen, from: &[&str]) -> String {
    g.pick(from).to_string()
}

fn gen_entry(g: &mut Gen) -> Entry {
    match g.u64_in(0, 5) {
        0 => Entry::Name(s(g, &NAMES)),
        1 => Entry::Comment(s(g, &VALUES)),
        2 => Entry::Location {
            building: s(g, &BUILDINGS),
            floor: s(g, &FLOORS),
            room: s(g, &ROOMS),
        },
        3 => Entry::ServiceType(s(g, &TYPES)),
        _ => Entry::Custom {
            key: s(g, &KEYS),
            value: s(g, &VALUES),
        },
    }
}

/// Up to five entries of any kind: two of one kind, or the same entry
/// twice, are legal and land under one posting. A `sparse` item carries,
/// seven times in ten, comments only, which nothing is posted under.
fn gen_item(g: &mut Gen, uuid: SvcUuid, sparse: bool) -> ServiceItem {
    let mut ifaces: Vec<InterfaceId> = Vec::new();
    for _ in 0..g.usize_in(0, 4) {
        let pick: InterfaceId = (*g.pick(&IFACES)).into();
        if !ifaces.contains(&pick) {
            ifaces.push(pick);
        }
    }
    let attrs = if sparse && g.chance(0.7) {
        g.vec_of(0, 2, |g| Entry::Comment(s(g, &VALUES)))
    } else {
        g.vec_of(0, 5, gen_entry)
    };
    ServiceItem::new(uuid, HostId(0), ServiceId(0), ifaces, attrs)
}

/// `Some(value)` drawn from `from` (or one nobody carries), or a wildcard.
fn field(g: &mut Gen, from: &[&str], wild: bool) -> Option<String> {
    if wild {
        None
    } else if g.chance(0.1) {
        Some(NOBODY.to_string())
    } else {
        Some(s(g, from))
    }
}

/// Every `AttrMatch` variant, `Location` and `Custom` in every wildcard
/// combination.
fn attr_matches(g: &mut Gen) -> Vec<AttrMatch> {
    let mut out = vec![AttrMatch::Any];
    for wild in [false, true] {
        out.push(AttrMatch::Name(field(g, &NAMES, wild)));
        out.push(AttrMatch::Comment(field(g, &VALUES, wild)));
        out.push(AttrMatch::ServiceType(field(g, &TYPES, wild)));
    }
    for bits in 0..8u8 {
        out.push(AttrMatch::Location {
            building: field(g, &BUILDINGS, bits & 1 != 0),
            floor: field(g, &FLOORS, bits & 2 != 0),
            room: field(g, &ROOMS, bits & 4 != 0),
        });
    }
    for bits in 0..4u8 {
        out.push(AttrMatch::Custom {
            key: field(g, &KEYS, bits & 1 != 0),
            value: field(g, &VALUES, bits & 2 != 0),
        });
    }
    out
}

fn templates(g: &mut Gen, known: &[SvcUuid]) -> Vec<ServiceTemplate> {
    let iface = |g: &mut Gen| *g.pick(&IFACES);
    let mut tpls = vec![
        ServiceTemplate::any(),
        ServiceTemplate::by_interface(iface(g)),
        ServiceTemplate::by_interface(IFACES[0]).and_interface(IFACES[1]),
        ServiceTemplate::by_interface("UnimplementedInterface"),
        ServiceTemplate::by_name(NOBODY),
        ServiceTemplate::by_interface("UnimplementedInterface")
            .and_attr(AttrMatch::name(s(g, &NAMES))),
        ServiceTemplate::by_id(SvcUuid(0xDEAD_BEEF)),
    ];
    let attrs = attr_matches(g);
    for attr in &attrs {
        // Alone, beside an interface, and beside another attribute: the
        // scan runs over whichever posting is smallest.
        tpls.push(ServiceTemplate::any().and_attr(attr.clone()));
        tpls.push(ServiceTemplate::by_interface(iface(g)).and_attr(attr.clone()));
        tpls.push(
            ServiceTemplate::any()
                .and_attr(attr.clone())
                .and_attr(g.pick(&attrs).clone()),
        );
    }
    if !known.is_empty() {
        // Explicit ids, out of order and repeated, alone and constrained.
        let ids: Vec<SvcUuid> = (0..g.usize_in(1, 4)).map(|_| *g.pick(known)).collect();
        tpls.push(ServiceTemplate {
            ids: ids.clone(),
            ..Default::default()
        });
        tpls.push(ServiceTemplate {
            ids,
            interfaces: vec![iface(g).into()],
            attributes: vec![g.pick(&attrs).clone()],
        });
    }
    tpls
}

/// Every template of the step must visit, through the postings, what a
/// scan of the model visits, in uuid order; capped lookups take its
/// prefix. Returns how many templates narrowed and how many matched.
fn assert_scan_parity(
    g: &mut Gen,
    lus: &LookupService,
    model: &BTreeMap<SvcUuid, ServiceItem>,
) -> (usize, usize) {
    assert_eq!(lus.item_count(), model.len());
    let (mut narrowed, mut nonempty) = (0, 0);
    let known: Vec<SvcUuid> = model.keys().copied().collect();
    for tpl in templates(g, &known) {
        let scanned: Vec<&ServiceItem> = model.values().filter(|i| tpl.matches(i)).collect();
        let mut visited: Vec<Arc<ServiceItem>> = Vec::new();
        lus.lookup_visit(&tpl, usize::MAX, |item| {
            visited.push(Arc::clone(item));
            true
        });
        // Same items (attributes included), same order.
        assert!(
            visited.iter().map(|i| &**i).eq(scanned.iter().copied()),
            "template {tpl:?} diverged"
        );
        narrowed += usize::from(scanned.len() < model.len());
        nonempty += usize::from(!scanned.is_empty());
        // A capped lookup is the scan's prefix.
        for max in [0, 1, 2, 5] {
            let capped = lus.lookup(&tpl, max);
            assert!(capped
                .iter()
                .map(|i| i.uuid)
                .eq(scanned.iter().take(max).map(|i| i.uuid)));
        }
        assert_eq!(
            lus.lookup_one(&tpl).map(|i| i.uuid),
            scanned.first().map(|i| i.uuid)
        );
    }
    (narrowed, nonempty)
}

#[derive(Default)]
struct Seen {
    narrowed: usize,
    nonempty: usize,
    modified_heard: usize,
}

/// Register, re-register, cancel, edit attributes (a fresh list, or the
/// current one with an entry dropped) and reap at random, checking every
/// lookup against the model after each step.
fn churn(g: &mut Gen, make: fn(HostId) -> LookupService, sparse: bool, seen: &mut Seen) {
    let mut env = Env::with_seed(g.u64());
    let lab = env.add_host("lab", HostKind::Server);
    let client = env.add_host("client", HostKind::Workstation);
    let mut lus = make(lab);
    // A listener for the first ten seconds or so: attribute updates
    // take the snapshot-and-fire path while it lives and the in-place
    // swap once it has lapsed.
    let heard = std::rc::Rc::new(std::cell::Cell::new(0usize));
    if g.bool() {
        let heard = std::rc::Rc::clone(&heard);
        lus.notify(
            env.now(),
            ServiceTemplate::any(),
            vec![Transition::MatchToMatch],
            EventSink {
                host: client,
                deliver: Box::new(move |_e, _ev| heard.set(heard.get() + 1)),
            },
            None,
        );
    }

    let mut model: BTreeMap<SvcUuid, ServiceItem> = BTreeMap::new();
    let mut leases: Vec<(Lease, SvcUuid)> = Vec::new();
    for _ in 0..g.usize_in(10, 50) {
        let live: Vec<SvcUuid> = model.keys().copied().collect();
        match g.u64_in(0, 10) {
            // Register: a fresh uuid, or over a live registration (the
            // old postings go, the old lease still points at the uuid).
            0..=3 => {
                let uuid = if !live.is_empty() && g.chance(0.25) {
                    *g.pick(&live)
                } else {
                    SvcUuid::NIL
                };
                let item = gen_item(g, uuid, sparse);
                let dur = g.bool().then(|| SimDuration::from_secs(g.u64_in(1, 30)));
                let reg = lus.register(&mut env, item.clone(), dur);
                model.insert(
                    reg.uuid,
                    ServiceItem {
                        uuid: reg.uuid,
                        ..item
                    },
                );
                leases.push((reg.lease, reg.uuid));
            }
            4 => {
                if !leases.is_empty() {
                    let (lease, uuid) = leases.remove(g.usize_in(0, leases.len()));
                    if lus.cancel(&mut env, lease.id).is_ok() {
                        model.remove(&uuid);
                    }
                }
            }
            5..=7 => {
                if !live.is_empty() {
                    let uuid = *g.pick(&live);
                    let mut attrs = model[&uuid].attributes.clone();
                    if attrs.is_empty() || g.bool() {
                        attrs = gen_item(g, uuid, sparse).attributes;
                    } else {
                        attrs.remove(g.usize_in(0, attrs.len()));
                    }
                    assert!(lus.modify_attributes(&mut env, uuid, attrs.clone()));
                    model.get_mut(&uuid).expect("live").attributes = attrs;
                }
            }
            _ => {
                env.run_for(SimDuration::from_secs(g.u64_in(1, 12)));
                lus.reap(&mut env);
                let now = env.now();
                leases.retain(|(lease, uuid)| {
                    let live = now < lease.expires;
                    if !live {
                        model.remove(uuid);
                    }
                    live
                });
            }
        }
        let (narrowed, nonempty) = assert_scan_parity(g, &lus, &model);
        seen.narrowed += narrowed;
        seen.nonempty += nonempty;
    }
    seen.modified_heard += heard.get();
}

fn policy() -> LeasePolicy {
    LeasePolicy {
        max_duration: SimDuration::from_secs(1_000),
        default_duration: SimDuration::from_secs(10),
    }
}

#[test]
fn indexed_lookup_visits_what_a_linear_scan_visits() {
    let mut seen = Seen::default();
    run_cases("registry-oracle", 48, |g| {
        churn(
            g,
            |host| LookupService::new(host, "public", policy()),
            false,
            &mut seen,
        );
    });
    assert!(
        seen.narrowed > 10_000 && seen.nonempty > 10_000 && seen.modified_heard > 20,
        "{} narrowed, {} non-empty, {} updates heard",
        seen.narrowed,
        seen.nonempty,
        seen.modified_heard
    );
}

/// Attribute postings are keyed by a hash of the key. Sending every key
/// to one posting, the worst a collision can do, must change no answer:
/// lookups still visit what the scan visits, in uuid order, through
/// registrations, edits that drop one of several keys, cancels and reaps.
/// Most items here carry no posted attribute, so the one posting stays
/// narrower than the registry and lookups are served from it.
#[test]
fn colliding_attribute_keys_change_no_answer() {
    let mut seen = Seen::default();
    run_cases("registry-oracle-collisions", 48, |g| {
        churn(
            g,
            |host| LookupService::with_colliding_attribute_keys(host, "public", policy()),
            true,
            &mut seen,
        );
    });
    assert!(
        seen.narrowed > 10_000 && seen.nonempty > 10_000,
        "{} narrowed, {} non-empty",
        seen.narrowed,
        seen.nonempty
    );
}

/// Keys one item repeats, or shares across kinds, are posted once and
/// unposted once: two `Location`s in one building, one `Custom` key with
/// two values, a name equal to a building. Under both the real hash and
/// the all-colliding one.
#[test]
fn repeated_keys_of_one_item_are_posted_once_and_unposted_once() {
    let repeated = vec![
        Entry::Name("CP TTU".into()),
        Entry::Location {
            building: "CP TTU".into(),
            floor: "3".into(),
            room: "310".into(),
        },
        Entry::Location {
            building: "CP TTU".into(),
            floor: "4".into(),
            room: "311".into(),
        },
        Entry::Custom {
            key: "zone".into(),
            value: "north".into(),
        },
        Entry::Custom {
            key: "zone".into(),
            value: "south".into(),
        },
    ];
    let makers: [fn(HostId) -> LookupService; 2] = [
        |host| LookupService::new(host, "public", policy()),
        |host| LookupService::with_colliding_attribute_keys(host, "public", policy()),
    ];
    for make in makers {
        run_cases("registry-oracle-repeated", 16, |g| {
            let mut env = Env::with_seed(g.u64());
            let lab = env.add_host("lab", HostKind::Server);
            let mut lus = make(lab);
            let mut model: BTreeMap<SvcUuid, ServiceItem> = BTreeMap::new();
            let register = |env: &mut Env,
                            lus: &mut LookupService,
                            model: &mut BTreeMap<SvcUuid, ServiceItem>,
                            uuid: SvcUuid,
                            attrs: Vec<Entry>,
                            secs: u64| {
                let item = ServiceItem::new(uuid, lab, ServiceId(0), vec![IFACES[0].into()], attrs);
                let reg = lus.register(env, item.clone(), Some(SimDuration::from_secs(secs)));
                model.insert(
                    reg.uuid,
                    ServiceItem {
                        uuid: reg.uuid,
                        ..item
                    },
                );
                reg
            };
            // Bystanders with no posted attribute keep the one posting of
            // the colliding table narrower than the registry.
            for _ in 0..g.usize_in(6, 12) {
                let attrs = vec![Entry::Comment(s(g, &VALUES))];
                register(&mut env, &mut lus, &mut model, SvcUuid::NIL, attrs, 1_000);
            }
            let a = register(
                &mut env,
                &mut lus,
                &mut model,
                SvcUuid::NIL,
                repeated.clone(),
                1_000,
            );
            let b = register(
                &mut env,
                &mut lus,
                &mut model,
                SvcUuid::NIL,
                repeated.clone(),
                5,
            );
            assert_scan_parity(g, &lus, &model);

            // Re-register `a` with its keys shuffled and one repeat gone.
            let mut shuffled = repeated.clone();
            g.rng().shuffle(&mut shuffled);
            shuffled.remove(g.usize_in(0, shuffled.len()));
            register(&mut env, &mut lus, &mut model, a.uuid, shuffled, 1_000);
            assert_scan_parity(g, &lus, &model);

            // Drop the entries one at a time: the item stays posted under a
            // key while any entry carrying it remains.
            let mut attrs = model[&a.uuid].attributes.clone();
            while !attrs.is_empty() {
                attrs.remove(g.usize_in(0, attrs.len()));
                assert!(lus.modify_attributes(&mut env, a.uuid, attrs.clone()));
                model.get_mut(&a.uuid).expect("live").attributes = attrs.clone();
                assert_scan_parity(g, &lus, &model);
            }
            assert!(lus.modify_attributes(&mut env, a.uuid, repeated.clone()));
            model.get_mut(&a.uuid).expect("live").attributes = repeated.clone();
            assert_scan_parity(g, &lus, &model);

            // Cancel one, let the other lapse.
            lus.cancel(&mut env, a.lease.id).expect("live lease");
            model.remove(&a.uuid);
            assert_scan_parity(g, &lus, &model);
            env.run_for(SimDuration::from_secs(10));
            lus.reap(&mut env);
            model.remove(&b.uuid);
            assert_scan_parity(g, &lus, &model);
        });
    }
}

/// Every item registered under an interface points at the one copy of its
/// name the lookup service keeps, and a result a requestor holds keeps its
/// names after the last registration of the interface is gone.
#[test]
fn items_share_one_copy_of_each_interface_name() {
    let mut env = Env::with_seed(5);
    let (lab, lus) = deploy(&mut env);
    let client = env.add_host("client", HostKind::Workstation);
    let item = |name: &str, iface: String| {
        ServiceItem::new(
            SvcUuid::NIL,
            lab,
            ServiceId(1),
            vec![InterfaceId::new(iface), interfaces::SERVICER.into()],
            vec![Entry::Name(name.into())],
        )
    };
    // Two names built apart, equal in text.
    let first = lus
        .register(&mut env, lab, item("a", "ProbeV2".to_string()), None)
        .expect("LAN");
    let second = lus
        .register(&mut env, lab, item("b", format!("Probe{}", "V2")), None)
        .expect("LAN");
    let found = lus
        .lookup(
            &mut env,
            client,
            &ServiceTemplate::by_interface("ProbeV2"),
            10,
        )
        .expect("LAN");
    assert_eq!(found.len(), 2);
    for i in 0..2 {
        assert!(
            Arc::ptr_eq(&found[0].interfaces[i].0, &found[1].interfaces[i].0),
            "interface {i} is stored twice"
        );
    }

    for reg in [first, second] {
        lus.cancel(&mut env, client, reg.lease.id)
            .expect("LAN")
            .expect("live lease");
    }
    assert!(lus
        .lookup(
            &mut env,
            client,
            &ServiceTemplate::by_interface("ProbeV2"),
            10
        )
        .expect("LAN")
        .is_empty());
    for held in &found {
        assert_eq!(held.interfaces[0].as_str(), "ProbeV2");
        assert_eq!(held.interfaces[1].as_str(), interfaces::SERVICER);
        assert!(held.implements("ProbeV2"));
    }
}

fn deploy(env: &mut Env) -> (HostId, LusHandle) {
    let lab = env.add_host("lab", HostKind::Server);
    let lus = LookupService::deploy(
        env,
        lab,
        "Lookup Service",
        "public",
        LeasePolicy::default(),
        SimDuration::from_millis(500),
    );
    (lab, lus)
}

/// A requestor holds what the registry holds, not a copy — until the
/// registration changes, when the holder keeps what it was given.
#[test]
fn a_lookup_result_is_a_snapshot() {
    for with_listener in [false, true] {
        let mut env = Env::with_seed(3);
        let (lab, lus) = deploy(&mut env);
        let client = env.add_host("client", HostKind::Workstation);
        if with_listener {
            lus.notify(
                &mut env,
                client,
                ServiceTemplate::any(),
                vec![Transition::MatchToMatch],
                EventSink {
                    host: client,
                    deliver: Box::new(|_e, _ev| {}),
                },
                None,
            )
            .expect("LAN");
        }
        let before = vec![Entry::Name("Neem".into()), Entry::Comment("rev 0".into())];
        let after = vec![Entry::Name("Neem".into()), Entry::Comment("rev 1".into())];
        let item = ServiceItem::new(
            SvcUuid::NIL,
            lab,
            ServiceId(9),
            vec![interfaces::SENSOR_DATA_ACCESSOR.into()],
            before.clone(),
        );
        let reg = lus.register(&mut env, lab, item, None).expect("LAN");

        let tpl = ServiceTemplate::by_name("Neem");
        let one = lus.lookup_one(&mut env, client, &tpl).unwrap().unwrap();
        let many = lus.lookup(&mut env, client, &tpl, 10).unwrap();
        assert!(Arc::ptr_eq(&one, &many[0]), "one stored item, shared");

        env.with_service(lus.service, |env, l: &mut LookupService| {
            assert!(l.modify_attributes(env, reg.uuid, after.clone()));
        })
        .unwrap();
        assert_eq!(one.attributes, before, "listener: {with_listener}");
        assert_eq!(many[0].attributes, before);
        let fresh = lus.lookup_one(&mut env, client, &tpl).unwrap().unwrap();
        assert_eq!(fresh.attributes, after);
        assert!(!Arc::ptr_eq(&one, &fresh));
    }
}

/// The CSP's failover bind: first provider of the interface in the
/// equivalence group, in uuid order, that is not the one that just failed.
#[test]
fn equivalence_group_bind_is_the_linear_scan() {
    const GROUP_KEY: &str = "equivalence-group";
    let mut bound = 0usize;
    run_cases("equivalence-bind", 48, |g| {
        let mut env = Env::with_seed(g.u64());
        let (lab, lus) = deploy(&mut env);
        let accessor = ServiceAccessor::new(vec![lus]);
        let mut model: BTreeMap<SvcUuid, ServiceItem> = BTreeMap::new();
        for i in 0..g.usize_in(1, 40) {
            let mut attrs = vec![Entry::Name(s(g, &NAMES))];
            if g.chance(0.7) {
                attrs.push(Entry::Custom {
                    key: GROUP_KEY.into(),
                    value: s(g, &VALUES),
                });
            }
            let iface = if g.chance(0.8) { IFACES[0] } else { IFACES[1] };
            let item = ServiceItem::new(
                SvcUuid::NIL,
                lab,
                ServiceId(100 + i as u64),
                vec![iface.into()],
                attrs,
            );
            let reg = lus
                .register(&mut env, lab, item.clone(), None)
                .expect("LAN");
            model.insert(
                reg.uuid,
                ServiceItem {
                    uuid: reg.uuid,
                    ..item
                },
            );
        }
        for _ in 0..20 {
            let group = field(g, &VALUES, false);
            let attr = AttrMatch::Custom {
                key: Some(GROUP_KEY.into()),
                value: group,
            };
            let exclude = g.bool().then(|| s(g, &NAMES));
            let tpl = ServiceTemplate::by_interface(IFACES[0]).and_attr(attr.clone());
            let expected = model
                .values()
                .find(|i| tpl.matches(i) && (exclude.is_none() || i.name() != exclude.as_deref()));
            let got =
                accessor.bind_by_attr_excluding(&mut env, lab, IFACES[0], attr, exclude.as_deref());
            assert_eq!(got.as_deref(), expected);
            bound += usize::from(got.is_some());
        }
    });
    assert!(bound > 200, "{bound} binds found a provider");
}
