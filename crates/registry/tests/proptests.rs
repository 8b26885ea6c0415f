//! Property tests for the registry: lease-table invariants under random
//! operation sequences, and template-matching laws. Driven by the
//! deterministic harness in `sensorcer_sim::check`.

use sensorcer_sim::check::{run_cases, Gen};

use sensorcer_registry::attributes::{AttrMatch, Entry};
use sensorcer_registry::ids::SvcUuid;
use sensorcer_registry::item::{ServiceItem, ServiceTemplate};
use sensorcer_registry::lease::{LeaseError, LeasePolicy, LeaseTable};
use sensorcer_sim::env::ServiceId;
use sensorcer_sim::time::{SimDuration, SimTime};
use sensorcer_sim::topology::HostId;

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
        let mut granted: Vec<(sensorcer_registry::lease::LeaseId, SimTime)> = Vec::new();
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

/// Index-vs-scan equivalence: whatever interleaving of register,
/// unregister, lease expiry and attribute update the registry has seen,
/// its indexed `lookup` returns exactly the items a brute-force linear
/// scan over a shadow model finds, in the same (uuid) order.
#[test]
fn indexed_lookup_matches_linear_scan() {
    use sensorcer_registry::events::{EventSink, Transition};
    use sensorcer_registry::lus::LookupService;
    use sensorcer_sim::env::Env;
    use sensorcer_sim::topology::HostKind;

    const NAMES: [&str; 4] = ["Neem", "Jade", "Coral", "Diamond"];
    const IFACES: [&str; 3] = ["SensorDataAccessor", "Servicer", "Cybernode"];

    fn gen_item(g: &mut Gen) -> ServiceItem {
        let n_ifaces = g.usize_in(0, 4);
        let mut ifaces: Vec<&str> = Vec::new();
        for _ in 0..n_ifaces {
            let pick = IFACES[g.usize_in(0, IFACES.len())];
            if !ifaces.contains(&pick) {
                ifaces.push(pick);
            }
        }
        let mut attrs = Vec::new();
        if g.chance(0.8) {
            attrs.push(Entry::Name(NAMES[g.usize_in(0, NAMES.len())].to_string()));
        }
        if g.chance(0.3) {
            attrs.push(Entry::ServiceType("ELEMENTARY".to_string()));
        }
        ServiceItem::new(
            SvcUuid::NIL,
            HostId(0),
            ServiceId(0),
            ifaces.into_iter().map(Into::into).collect(),
            attrs,
        )
    }

    fn templates(g: &mut Gen, known: &[SvcUuid]) -> Vec<ServiceTemplate> {
        let mut tpls = vec![
            ServiceTemplate::any(),
            ServiceTemplate::by_interface(IFACES[g.usize_in(0, IFACES.len())]),
            ServiceTemplate::by_name(NAMES[g.usize_in(0, NAMES.len())]),
            ServiceTemplate::by_interface(IFACES[0]).and_interface(IFACES[1]),
            ServiceTemplate::by_interface(IFACES[g.usize_in(0, IFACES.len())])
                .and_attr(AttrMatch::name(NAMES[g.usize_in(0, NAMES.len())])),
            ServiceTemplate::by_name("Nobody"),
            ServiceTemplate::by_interface("UnimplementedInterface"),
            // Interface and exact name together: the name's posting set is
            // a candidate beside the interfaces', whichever is smaller.
            ServiceTemplate::by_interface(IFACES[0])
                .and_interface(IFACES[g.usize_in(1, IFACES.len())])
                .and_attr(AttrMatch::name(NAMES[g.usize_in(0, NAMES.len())])),
            ServiceTemplate::by_interface(IFACES[g.usize_in(0, IFACES.len())])
                .and_attr(AttrMatch::name("Nobody")),
            ServiceTemplate::by_interface("UnimplementedInterface")
                .and_attr(AttrMatch::name(NAMES[g.usize_in(0, NAMES.len())])),
        ];
        if !known.is_empty() {
            tpls.push(ServiceTemplate::by_id(known[g.usize_in(0, known.len())]));
        }
        tpls.push(ServiceTemplate::by_id(SvcUuid(0xDEAD_BEEF)));
        tpls
    }

    run_cases("indexed_lookup_matches_linear_scan", 64, |g| {
        let mut env = Env::with_seed(g.u64());
        let lab = env.add_host("lab", HostKind::Server);
        let client = env.add_host("client", HostKind::Workstation);
        let mut lus = LookupService::new(
            lab,
            "public",
            LeasePolicy {
                max_duration: SimDuration::from_secs(1_000),
                default_duration: SimDuration::from_secs(10),
            },
        );
        // Sometimes add a live listener so attribute updates exercise the
        // snapshot-and-fire path rather than the in-place swap.
        if g.bool() {
            lus.notify(
                env.now(),
                ServiceTemplate::any(),
                vec![
                    Transition::NoMatchToMatch,
                    Transition::MatchToMatch,
                    Transition::MatchToNoMatch,
                ],
                EventSink {
                    host: client,
                    deliver: Box::new(|_e, _ev| {}),
                },
                None,
            );
        }

        // Shadow model: uuid -> live item, plus outstanding lease expiries.
        let mut model: std::collections::BTreeMap<SvcUuid, ServiceItem> = Default::default();
        let mut leases: Vec<(sensorcer_registry::lease::Lease, SvcUuid)> = Vec::new();

        let steps = g.usize_in(10, 60);
        for _ in 0..steps {
            match g.u64_in(0, 10) {
                // Register a fresh item (sometimes with a short lease).
                0..=3 => {
                    let item = gen_item(g);
                    let dur = if g.bool() {
                        Some(SimDuration::from_secs(g.u64_in(1, 30)))
                    } else {
                        None
                    };
                    let reg = lus.register(&mut env, item.clone(), dur);
                    let mut stored = item;
                    stored.uuid = reg.uuid;
                    model.insert(reg.uuid, stored);
                    leases.push((reg.lease, reg.uuid));
                }
                // Cancel a random outstanding lease.
                4 => {
                    if !leases.is_empty() {
                        let (lease, uuid) = leases.remove(g.usize_in(0, leases.len()));
                        if lus.cancel(&mut env, lease.id).is_ok() {
                            model.remove(&uuid);
                        }
                    }
                }
                // Replace the attributes of a random live registration.
                5..=6 => {
                    if !model.is_empty() {
                        let uuids: Vec<SvcUuid> = model.keys().copied().collect();
                        let uuid = uuids[g.usize_in(0, uuids.len())];
                        let attrs = gen_item(g).attributes;
                        assert!(lus.modify_attributes(&mut env, uuid, attrs.clone()));
                        model.get_mut(&uuid).unwrap().attributes = attrs;
                    }
                }
                // Let time pass and reap expired leases.
                _ => {
                    env.run_for(SimDuration::from_secs(g.u64_in(1, 15)));
                    lus.reap(&mut env);
                    let now = env.now();
                    leases.retain(|(lease, uuid)| {
                        if now >= lease.expires {
                            model.remove(uuid);
                            false
                        } else {
                            true
                        }
                    });
                }
            }

            // After every step, indexed lookup == linear scan of the model.
            let known: Vec<SvcUuid> = model.keys().copied().collect();
            for tpl in templates(g, &known) {
                let indexed: Vec<SvcUuid> = lus
                    .lookup(&tpl, usize::MAX)
                    .iter()
                    .map(|i| i.uuid)
                    .collect();
                let scanned: Vec<SvcUuid> = model
                    .values()
                    .filter(|i| tpl.matches(i))
                    .map(|i| i.uuid)
                    .collect();
                assert_eq!(indexed, scanned, "template {tpl:?} diverged");
                // Truncated lookups agree with the scan prefix.
                let capped: Vec<SvcUuid> = lus.lookup(&tpl, 2).iter().map(|i| i.uuid).collect();
                assert_eq!(capped, scanned.into_iter().take(2).collect::<Vec<_>>());
            }
        }
    });
}

/// Wire round trip for arbitrary service items.
#[test]
fn service_item_codec() {
    run_cases("service_item_codec", 128, |g| {
        use sensorcer_sim::wire::{WireDecode, WireEncode};
        let name = g.ascii_string(32);
        let uuid = g.u128();
        let host = g.u64() as u32;
        let ifaces = g.vec_of(0, 4, |g| g.alpha_string(1, 16));
        let item = ServiceItem::new(
            SvcUuid(uuid),
            HostId(host),
            ServiceId(7),
            ifaces.iter().map(|s| s.as_str().into()).collect(),
            vec![Entry::Name(name), Entry::ServiceType("ELEMENTARY".into())],
        );
        let mut wire = item.to_wire();
        assert_eq!(ServiceItem::decode(&mut wire).unwrap(), item);
    });
}
