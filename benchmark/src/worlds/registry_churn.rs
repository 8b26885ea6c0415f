//! `registry_churn`: writes beside reads on a 10 000-item lookup service.
//!
//! The read workloads only ever look up. Here every op is one tick of 100
//! seeded registry actions — 64 lookups of five kinds, 8 registrations, 4
//! cancellations, 4 silent departures, 16 renewals, 4 attribute edits —
//! followed by one simulated second in which the reaper runs. An index
//! that speeds lookup but taxes register, cancel or reap (or the reverse)
//! shows here and nowhere else.
//!
//! The ISSUE asked for 8 cancellations per tick. With 8 registrations in
//! and 8 cancellations out nothing would ever lapse and `reap` would have
//! no work, so half of the departures are silent: the provider is simply
//! never renewed again and the reaper collects it when its lease runs out.

use sensorcer_registry::prelude::*;
use sensorcer_sim::prelude::*;

use super::{long_lease_policy, OpResult, Outcome, ShapeCount, Targets, World, LONG_LEASE};
use crate::gen::{Op, OpGen, Rng};

pub const ITEMS: usize = 10_000;
pub const SUBNETS: usize = 16;
const RARE_ITEMS: usize = 32;
const BUILDINGS: usize = 8;
const FLOORS: usize = 5;
const TEMPLATE_MAX: usize = 16;
/// Dynamic registrations the world keeps alive between ticks.
const POOL: usize = 64;
const POOL_LEASE: SimDuration = SimDuration::from_secs(60);

const UNIVERSAL: &str = interfaces::SENSOR_DATA_ACCESSOR;
const RARE: &str = "RareProbe";
const DYNAMIC: &str = "DynamicProbe";

/// How a tick spends its 100 draws, in order.
const BY_NAME: usize = 16;
const BY_IFACE: usize = 16;
const BY_TEMPLATE: usize = 16;
const HIER_RARE: usize = 8;
const HIER_UNIVERSAL: usize = 8;
const REGISTER: usize = 8;
const CANCEL: usize = 4;
const ABANDON: usize = 4;
const RENEW_POOL: usize = 8;
const RENEW_BASE: usize = 8;
const MODIFY: usize = 4;
pub const DRAWS: usize = BY_NAME
    + BY_IFACE
    + BY_TEMPLATE
    + HIER_RARE
    + HIER_UNIVERSAL
    + REGISTER
    + CANCEL
    + ABANDON
    + RENEW_POOL
    + RENEW_BASE
    + MODIFY;

pub struct Gen(Rng);

impl Gen {
    pub fn new(seed: u64) -> Gen {
        Gen(Rng::new(seed))
    }
}

impl OpGen for Gen {
    fn next_op(&mut self) -> Op {
        Op::Tick {
            draws: (0..DRAWS).map(|_| self.0.next_u32()).collect(),
        }
    }
}

fn base_name(i: usize) -> String {
    format!("Svc-{i:05}")
}

fn base_interfaces(i: usize) -> Vec<InterfaceId> {
    let subnet = i % SUBNETS;
    let mut ifaces: Vec<InterfaceId> = vec![
        UNIVERSAL.into(),
        InterfaceId::new(format!("Subnet{subnet}Probe")),
    ];
    if subnet == 0 && i / SUBNETS < RARE_ITEMS {
        ifaces.push(RARE.into());
    }
    ifaces
}

fn base_attributes(i: usize, revision: u32) -> Vec<Entry> {
    vec![
        Entry::Name(base_name(i)),
        Entry::ServiceType("ELEMENTARY".into()),
        Entry::Location {
            building: format!("B{}", i % BUILDINGS),
            floor: ((i / BUILDINGS) % FLOORS).to_string(),
            room: (i % 200).to_string(),
        },
        Entry::Comment(format!("rev {revision}")),
    ]
}

/// The attribute template of the tick. One item in eight matches, so a
/// lookup visits about 128 of the 10 000 before it has its 16. Matching on
/// the floor as well (one in forty, 640 visited) made the sixteen scans
/// half of the tick and, being the part of it that misses the cache,
/// nearly all of its run-to-run noise on a shared host.
fn in_building(b: usize) -> ServiceTemplate {
    ServiceTemplate::by_interface(UNIVERSAL).and_attr(AttrMatch::Location {
        building: Some(format!("B{b}")),
        floor: None,
        room: None,
    })
}

fn base_item(i: usize, host: HostId) -> ServiceItem {
    ServiceItem::new(
        SvcUuid::NIL,
        host,
        ServiceId(i as u64),
        base_interfaces(i),
        base_attributes(i, 0),
    )
}

pub struct ChurnWorld {
    env: Env,
    client: HostId,
    /// Where providers register from.
    provider: HostId,
    lus: LusHandle,
    root: HierHandle,
    base: Vec<ServiceRegistration>,
    pool: Vec<Lease>,
    registered: u64,
    revision: u32,
}

impl ChurnWorld {
    pub fn new(seed: u64) -> ChurnWorld {
        let mut env = Env::with_seed(seed);
        let lab = env.add_host("lab", HostKind::Server);
        let client = env.add_host("client", HostKind::Workstation);
        let provider = env.add_host("provider", HostKind::Server);
        let lus = LookupService::deploy(
            &mut env,
            lab,
            "Lookup Service",
            "public",
            long_lease_policy(),
            SimDuration::from_secs(1),
        );
        let base = env
            .with_service(lus.service, |env, l: &mut LookupService| {
                (0..ITEMS)
                    .map(|i| l.register(env, base_item(i, provider), Some(LONG_LEASE)))
                    .collect::<Vec<_>>()
            })
            .expect("lookup service deployed");

        // The same population again, split over 16 subnet registries under
        // a root, for the hierarchical queries.
        let root_host = env.add_host("root", HostKind::Server);
        let root = RootRegistry::deploy(&mut env, root_host, "RootRegistry");
        for s in 0..SUBNETS {
            let gw = env.add_host(format!("gw{s}"), HostKind::Server);
            env.topo.set_subnet(gw, SubnetId(s as u32));
            let sub = LookupService::deploy(
                &mut env,
                gw,
                &format!("LUS-{s}"),
                &format!("subnet-{s}"),
                long_lease_policy(),
                SimDuration::from_secs(3_600),
            );
            env.with_service(sub.service, |env, l: &mut LookupService| {
                for i in (s..ITEMS).step_by(SUBNETS) {
                    l.register(env, base_item(i, gw), Some(LONG_LEASE));
                }
            })
            .expect("subnet registry deployed");
            // Attached after the bulk load, so the root is seeded from one
            // snapshot instead of 625 pushed deltas.
            root.attach_subnet(&mut env, SubnetId(s as u32), sub)
                .expect("subnet attaches");
        }

        let mut world = ChurnWorld {
            env,
            client,
            provider,
            lus,
            root,
            base,
            pool: Vec::with_capacity(POOL + REGISTER),
            registered: 0,
            revision: 0,
        };
        for _ in 0..POOL {
            world.register_dynamic().expect("LAN registration");
        }
        world
    }

    fn register_dynamic(&mut self) -> Result<(), NetError> {
        let item = ServiceItem::new(
            SvcUuid::NIL,
            self.provider,
            ServiceId(1_000_000 + self.registered),
            vec![DYNAMIC.into()],
            vec![
                Entry::Name(format!("Dyn-{}", self.registered)),
                Entry::ServiceType("ELEMENTARY".into()),
            ],
        );
        self.registered += 1;
        let reg = self
            .lus
            .register(&mut self.env, self.provider, item, Some(POOL_LEASE))?;
        self.pool.push(reg.lease);
        Ok(())
    }

    /// Take a live lease out of the pool. One that lapsed unrenewed is
    /// dropped: the reaper has it, and it is nobody's failure.
    fn take_live(&mut self, draw: u32) -> Option<Lease> {
        while !self.pool.is_empty() {
            let lease = self.pool.swap_remove(draw as usize % self.pool.len());
            if !lease.is_expired(self.env.now()) {
                return Some(lease);
            }
        }
        None
    }

    /// Run one tick; `Err` names the first call that failed or returned
    /// the wrong number of items.
    fn tick(&mut self, draws: &[u32]) -> Result<f64, String> {
        assert_eq!(draws.len(), DRAWS, "a tick spends exactly {DRAWS} draws");
        let mut rest = draws;
        let mut take = |n: usize| {
            let (head, tail) = rest.split_at(n);
            rest = tail;
            head
        };
        let mut found = 0usize;
        let net = |e: NetError| e.to_string();

        for &d in take(BY_NAME) {
            let tpl = ServiceTemplate::by_name(base_name(d as usize % ITEMS));
            let hit = self
                .lus
                .lookup_one(&mut self.env, self.client, &tpl)
                .map_err(net)?;
            found += usize::from(hit.is_some());
        }
        for &d in take(BY_IFACE) {
            let iface = InterfaceId::new(format!("Subnet{}Probe", d as usize % SUBNETS));
            let uuids = self
                .lus
                .lookup_interface_uuids(&mut self.env, self.client, &iface)
                .map_err(net)?;
            found += uuids.len();
        }
        for &d in take(BY_TEMPLATE) {
            let tpl = in_building(d as usize % BUILDINGS);
            let items = self
                .lus
                .lookup(&mut self.env, self.client, &tpl, TEMPLATE_MAX)
                .map_err(net)?;
            found += items.len();
        }
        let hier = |world: &mut ChurnWorld, iface: &str| -> Result<usize, String> {
            let hits = world
                .root
                .lookup_all_by_interface(&mut world.env, world.client, &iface.into())
                .map_err(net)?;
            Ok(hits.iter().map(|(_, uuids)| uuids.len()).sum())
        };
        for _ in take(HIER_RARE) {
            found += hier(self, RARE)?;
        }
        for _ in take(HIER_UNIVERSAL) {
            found += hier(self, UNIVERSAL)?;
        }
        let expected = BY_NAME
            + BY_IFACE * (ITEMS / SUBNETS)
            + BY_TEMPLATE * TEMPLATE_MAX
            + HIER_RARE * RARE_ITEMS
            + HIER_UNIVERSAL * ITEMS;
        if found != expected {
            return Err(format!("lookups found {found} items, expected {expected}"));
        }

        for _ in take(REGISTER) {
            self.register_dynamic().map_err(net)?;
        }
        for &d in take(CANCEL) {
            if let Some(lease) = self.take_live(d) {
                self.lus
                    .cancel(&mut self.env, self.provider, lease.id)
                    .map_err(net)?
                    .map_err(|e| format!("cancel: {e}"))?;
            }
        }
        for &d in take(ABANDON) {
            // Only down to the target size, so a pool thinned by lapses
            // grows back.
            if self.pool.len() > POOL {
                self.take_live(d);
            }
        }
        for &d in take(RENEW_POOL) {
            if let Some(lease) = self.take_live(d) {
                let renewed = self
                    .lus
                    .renew(&mut self.env, self.provider, lease.id, Some(POOL_LEASE))
                    .map_err(net)?
                    .map_err(|e| format!("renew: {e}"))?;
                self.pool.push(renewed);
            }
        }
        for &d in take(RENEW_BASE) {
            let lease = self.base[d as usize % ITEMS].lease.id;
            self.lus
                .renew(&mut self.env, self.provider, lease, Some(LONG_LEASE))
                .map_err(net)?
                .map_err(|e| format!("renew: {e}"))?;
        }
        for &d in take(MODIFY) {
            let i = d as usize % ITEMS;
            self.revision += 1;
            let (uuid, attributes) = (self.base[i].uuid, base_attributes(i, self.revision));
            let known = self
                .env
                .with_service(self.lus.service, |env, l: &mut LookupService| {
                    l.modify_attributes(env, uuid, attributes)
                })
                .map_err(net)?;
            if !known {
                return Err(format!("modify: {} is gone", base_name(i)));
            }
        }

        self.env.run_for(SimDuration::from_secs(1));
        Ok(found as f64)
    }
}

impl World for ChurnWorld {
    fn env(&mut self) -> &mut Env {
        &mut self.env
    }

    fn apply(&mut self, op: &Op) -> Option<OpResult> {
        let Op::Tick { draws } = op else {
            panic!("the registry has no step {op:?}");
        };
        Some(match self.tick(draws) {
            Ok(found) => OpResult {
                outcome: Outcome::Ok,
                value: found,
                valid: true,
            },
            Err(why) => {
                eprintln!("registry_churn: {why}");
                OpResult {
                    outcome: Outcome::Failed,
                    value: 0.0,
                    valid: false,
                }
            }
        })
    }

    fn targets(&self) -> Targets {
        Targets {
            client: self.client,
            lus: self.lus,
            registrar: self.provider,
            accessor: None,
            lookup_name: base_name(0),
            lookup_template: in_building(0),
            leaf: None,
            composite: None,
            facade: None,
            admission: None,
            hier: Some(self.root),
            slo_specs: Vec::new(),
            expr_arity: 0,
            shape_counts: vec![
                ShapeCount::remote("registry.lus.lookup_one_ns", BY_NAME as f64),
                ShapeCount::remote("registry.lus.lookup_iface_ns", BY_IFACE as f64),
                ShapeCount::remote("registry.lus.lookup_template_ns", BY_TEMPLATE as f64),
                // The root, then each subnet that can match: one, or all.
                ShapeCount {
                    metric: "registry.hier.rare_query_ns",
                    per_op: HIER_RARE as f64,
                    env_calls: 2.0,
                },
                ShapeCount {
                    metric: "registry.hier.universal_query_ns",
                    per_op: HIER_UNIVERSAL as f64,
                    env_calls: 1.0 + SUBNETS as f64,
                },
                ShapeCount::remote("registry.lus.register_ns", REGISTER as f64),
                ShapeCount::remote("registry.lus.cancel_ns", CANCEL as f64),
                ShapeCount::remote("registry.lus.renew_ns", (RENEW_POOL + RENEW_BASE) as f64),
                // Edited in place, as the provider's host would.
                ShapeCount::local("registry.lus.modify_attributes_ns", MODIFY as f64),
                ShapeCount::local("registry.lus.reap_ns", 1.0),
            ],
        }
    }

    /// The base population is intact, and the dynamic part is the pool
    /// plus at most the departures still waiting for the reaper.
    fn verify(&mut self) -> Result<(), String> {
        let items = self
            .env
            .with_service(self.lus.service, |_env, l: &mut LookupService| {
                l.item_count()
            })
            .map_err(|e| e.to_string())?;
        // +1: the lookup service lists itself.
        let floor = ITEMS + 1 + self.pool.len();
        let ceiling = floor + (ABANDON + 1) * POOL_LEASE.as_secs_f64() as usize;
        if (floor..=ceiling).contains(&items) {
            Ok(())
        } else {
            Err(format!(
                "{items} items registered, expected {floor}..={ceiling}"
            ))
        }
    }
}
