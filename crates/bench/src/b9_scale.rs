//! B9 — scaling curve: lookup latency vs mote count (10³ / 10⁴ / 10⁵),
//! the bench behind the ROADMAP's "hierarchical registries" item.
//!
//! A flat single-LUS federation against a 16-subnet hierarchical one
//! ([`sensorcer_registry::hier`]), same total mote count.
//! `flat_uuid_arc` answers an interface query from the memoized
//! `Arc` slice; `hier_universal_query` fans out to all subnets;
//! `hier_rare_query` targets an interface held by a constant 32 motes in
//! one subnet, so the root's Bloom/count summaries prune the fan-out to a
//! single LUS — the sub-linear curve the acceptance criteria pin.
//!
//! The event-engine side of the curve is the yardstick's `mote_scale`
//! workload and its `sim.shard.overhead_ratio` row.
//!
//! The sweep is `1000,10000,100000` motes by default; CI sets
//! `SENSORCER_SCALE_MOTES=1000` for a bounded pass.

use std::time::Duration;

use crate::microbench::{results_to_json, BenchmarkId, Criterion};
use sensorcer_registry::prelude::*;
use sensorcer_sim::prelude::*;

/// Default output path for `harness scale` (the committed baseline).
pub const DEFAULT_OUT: &str = "BENCH_2.json";

/// Subnets in the hierarchical worlds; constant across the sweep so the
/// fan-out ceiling is fixed while per-subnet population grows.
const SUBNETS: u32 = 16;

/// Motes holding the rare interface (all in subnet 0) — a constant
/// population, so a sub-linear per-query curve is visible against it.
const RARE_MOTES: usize = 32;

const UNIVERSAL: &str = interfaces::SENSOR_DATA_ACCESSOR;
const RARE: &str = "RareProbe";

fn mote_item(host: HostId, svc: u64, ifaces: Vec<InterfaceId>) -> ServiceItem {
    ServiceItem::new(SvcUuid::NIL, host, ServiceId(svc), ifaces, vec![])
}

fn item_interfaces(i: usize, n: usize) -> Vec<InterfaceId> {
    let subnet = (i % SUBNETS as usize) as u32;
    let mut ifaces: Vec<InterfaceId> = vec![
        UNIVERSAL.into(),
        InterfaceId::new(format!("Subnet{subnet}Probe")),
    ];
    // The rare interface lives on the first RARE_MOTES items of subnet 0.
    if subnet == 0 && i / (SUBNETS as usize) < RARE_MOTES && n >= RARE_MOTES * SUBNETS as usize {
        ifaces.push(RARE.into());
    }
    ifaces
}

/// One LUS, `n` motes registered into it.
struct FlatWorld {
    env: Env,
    client: HostId,
    lus: LusHandle,
}

fn flat_world(n: usize, seed: u64) -> FlatWorld {
    let mut env = Env::with_seed(seed);
    let lab = env.add_host("lab", HostKind::Server);
    let client = env.add_host("client", HostKind::Workstation);
    let lus = LookupService::deploy(
        &mut env,
        lab,
        "LUS",
        "public",
        LeasePolicy {
            max_duration: SimDuration::from_secs(360_000),
            default_duration: SimDuration::from_secs(36_000),
        },
        SimDuration::from_secs(3_600),
    );
    env.with_service(lus.service, |env, l: &mut LookupService| {
        for i in 0..n {
            l.register(env, mote_item(lab, i as u64, item_interfaces(i, n)), None);
        }
    })
    .expect("flat world populated");
    FlatWorld { env, client, lus }
}

/// 16 subnet LUSes under a root registry, `n` motes spread across them.
struct HierWorld {
    env: Env,
    client: HostId,
    root: HierHandle,
}

fn hier_world(n: usize, seed: u64) -> HierWorld {
    let mut env = Env::with_seed(seed);
    let root_host = env.add_host("root", HostKind::Server);
    let client = env.add_host("client", HostKind::Workstation);
    let root = RootRegistry::deploy(&mut env, root_host, "RootRegistry");
    let mut subnet_lus = Vec::new();
    for s in 0..SUBNETS {
        let gw = env.add_host(format!("gw{s}"), HostKind::Server);
        env.topo.set_subnet(gw, SubnetId(s));
        let lus = LookupService::deploy(
            &mut env,
            gw,
            &format!("LUS-{s}"),
            &format!("subnet-{s}"),
            LeasePolicy {
                max_duration: SimDuration::from_secs(360_000),
                default_duration: SimDuration::from_secs(36_000),
            },
            SimDuration::from_secs(3_600),
        );
        subnet_lus.push((gw, lus));
    }
    for i in 0..n {
        let (gw, lus) = subnet_lus[i % SUBNETS as usize];
        env.with_service(lus.service, |env, l: &mut LookupService| {
            l.register(env, mote_item(gw, i as u64, item_interfaces(i, n)), None);
        })
        .expect("hier world populated");
    }
    // Attach after the bulk load: the seed snapshot carries the counts,
    // and per-registration summary pushes stay off the build path.
    for (s, (_, lus)) in subnet_lus.iter().enumerate() {
        root.attach_subnet(&mut env, SubnetId(s as u32), *lus)
            .expect("subnet attached");
    }
    HierWorld { env, client, root }
}

/// The mote-count sweep: `SENSORCER_SCALE_MOTES` (comma-separated)
/// overrides the default 10³/10⁴/10⁵ — CI uses a reduced sweep.
fn sweep() -> Vec<usize> {
    match std::env::var("SENSORCER_SCALE_MOTES") {
        Ok(s) => s
            .split(',')
            .filter_map(|t| t.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .collect(),
        Err(_) => vec![1_000, 10_000, 100_000],
    }
}

/// Run the scaling sweep and write JSON to `out_path`.
pub fn run(seed: u64, out_path: &str) -> Result<String, String> {
    let motes = sweep();
    if motes.is_empty() {
        return Err("scale: SENSORCER_SCALE_MOTES parsed to an empty sweep".into());
    }
    let mut c = Criterion::from_env();
    let mut transcript = String::new();

    {
        let mut g = c.benchmark_group("scale_b9");
        g.sample_size(5);
        g.warm_up_time(Duration::from_millis(50));
        g.measurement_time(Duration::from_millis(250));

        for &n in &motes {
            // One flat registry, the shared uuid slice.
            g.bench_with_input(BenchmarkId::new("flat_uuid_arc", n), &n, |b, &n| {
                let mut w = flat_world(n, seed);
                let iface: InterfaceId = UNIVERSAL.into();
                b.iter(|| {
                    let all = w
                        .lus
                        .lookup_interface_uuids(&mut w.env, w.client, &iface)
                        .expect("flat uuids");
                    assert_eq!(all.len(), n);
                });
            });
            // Hierarchical, universal interface: bounded fan-out (16).
            g.bench_with_input(BenchmarkId::new("hier_universal_query", n), &n, |b, &n| {
                let mut w = hier_world(n, seed);
                let iface: InterfaceId = UNIVERSAL.into();
                b.iter(|| {
                    let hits = w
                        .root
                        .lookup_all_by_interface(&mut w.env, w.client, &iface)
                        .expect("hier universal");
                    let total: usize = hits.iter().map(|(_, u)| u.len()).sum();
                    assert_eq!(total, n);
                });
            });
            // Hierarchical, rare interface: the summaries prune the
            // fan-out to one subnet — per-query cost stays flat as n
            // grows. This is the acceptance-criteria curve.
            g.bench_with_input(BenchmarkId::new("hier_rare_query", n), &n, |b, &n| {
                let mut w = hier_world(n, seed);
                let iface: InterfaceId = RARE.into();
                let expected = if n >= RARE_MOTES * SUBNETS as usize {
                    RARE_MOTES
                } else {
                    0
                };
                b.iter(|| {
                    let hits = w
                        .root
                        .lookup_all_by_interface(&mut w.env, w.client, &iface)
                        .expect("hier rare");
                    let total: usize = hits.iter().map(|(_, u)| u.len()).sum();
                    assert_eq!(total, expected);
                });
            });
        }
        g.finish();
    }

    let json = results_to_json(c.results());
    std::fs::write(out_path, &json)
        .map_err(|e| format!("scale: failed to write {out_path}: {e}"))?;
    transcript.push_str(&format!(
        "scale: swept {:?} motes, wrote {} results to {out_path}\n",
        motes,
        c.results().len()
    ));
    Ok(transcript)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Equivalence of the two registry shapes, cheap sizes only — the
    /// timing rows are exercised by `harness scale`, not unit tests.
    #[test]
    fn flat_and_hier_worlds_agree_on_membership() {
        let n = RARE_MOTES * SUBNETS as usize; // smallest n carrying RARE
        let mut flat = flat_world(n, 9);
        let mut hier = hier_world(n, 9);
        let universal: InterfaceId = UNIVERSAL.into();
        let rare: InterfaceId = RARE.into();

        let flat_all = flat
            .lus
            .lookup_interface_uuids(&mut flat.env, flat.client, &universal)
            .unwrap();
        let hier_all = hier
            .root
            .lookup_all_by_interface(&mut hier.env, hier.client, &universal)
            .unwrap();
        assert_eq!(flat_all.len(), n);
        assert_eq!(hier_all.iter().map(|(_, u)| u.len()).sum::<usize>(), n);
        assert_eq!(hier_all.len(), SUBNETS as usize, "fan-out hits all 16");

        let hier_rare = hier
            .root
            .lookup_all_by_interface(&mut hier.env, hier.client, &rare)
            .unwrap();
        assert_eq!(hier_rare.len(), 1, "summaries prune to subnet 0");
        assert_eq!(hier_rare[0].0, SubnetId(0));
        assert_eq!(hier_rare[0].1.len(), RARE_MOTES);
    }

    #[test]
    fn sweep_env_var_parses_and_filters() {
        // Not using set_var: just exercise the parse through the same
        // code path the env override takes.
        let parse = |s: &str| -> Vec<usize> {
            s.split(',')
                .filter_map(|t| t.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .collect()
        };
        assert_eq!(parse("1000"), vec![1000]);
        assert_eq!(parse("1000, 10000"), vec![1000, 10000]);
        assert_eq!(parse("abc,0,50"), vec![50]);
    }
}
