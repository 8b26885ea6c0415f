//! The paper's stated next step (§VIII): "we are planning for large-scale
//! air vehicles distributed applications" (the work was funded by the Air
//! Force Research Lab's Air Vehicles Directorate).
//!
//! A fleet of UAVs joins the federation in flight: each vehicle carries
//! redundant airspeed sensors (an equivalence group — if the primary pitot
//! probe ices up, "the request can be passed on to the equivalent
//! available service provider", §V.A) plus an altitude sensor; a
//! per-vehicle composite computes an energy-state metric; a fleet
//! composite tracks the formation. Vehicles drop out of radio contact and
//! return; the fleet view degrades and recovers accordingly.
//!
//! ```text
//! cargo run --example air_vehicle_fleet
//! ```

use sensorcer_core::prelude::*;
use sensorcer_exertion::ServicerBox;
use sensorcer_registry::lease::LeasePolicy;
use sensorcer_registry::lus::LookupService;
use sensorcer_sensors::prelude::*;
use sensorcer_sim::prelude::*;

fn airspeed_probe(env: &mut Env, serial: &str) -> Box<dyn SensorProbe> {
    // Cruise around 38 m/s with gust wander.
    Box::new(
        SimulatedProbe::new(
            Teds {
                manufacturer: "Aero".into(),
                model: "Pitot-XL".into(),
                serial: serial.into(),
                unit: Unit::Dimensionless,
                range_min: 0.0,
                range_max: 120.0,
                resolution: 0.1,
                min_sample_interval_ns: 10_000_000,
                technology: "pitot".into(),
            },
            Signal::RandomWalk(RandomWalk {
                start: 38.0,
                step: 0.4,
                min: 25.0,
                max: 55.0,
            }),
            env.fork_rng(),
        )
        .with_noise(0.3),
    )
}

fn altitude_probe(env: &mut Env, serial: &str) -> Box<dyn SensorProbe> {
    Box::new(
        SimulatedProbe::new(
            Teds {
                manufacturer: "Aero".into(),
                model: "BaroAlt".into(),
                serial: serial.into(),
                unit: Unit::Dimensionless,
                range_min: 0.0,
                range_max: 5000.0,
                resolution: 1.0,
                min_sample_interval_ns: 10_000_000,
                technology: "baro".into(),
            },
            Signal::RandomWalk(RandomWalk {
                start: 1200.0,
                step: 5.0,
                min: 900.0,
                max: 1500.0,
            }),
            env.fork_rng(),
        )
        .with_noise(2.0),
    )
}

fn main() {
    let mut env = Env::with_seed(0xA1F2009);
    let ground = env.add_host("ground-station", HostKind::Server);
    let ops = env.add_host("ops-console", HostKind::Workstation);
    env.topo.join_group(ops, "fleet");

    let lus = LookupService::deploy(
        &mut env,
        ground,
        "Fleet Lookup Service",
        "fleet",
        LeasePolicy {
            max_duration: SimDuration::from_secs(1_000_000),
            default_duration: SimDuration::from_secs(1_000_000),
        },
        SimDuration::from_millis(500),
    );
    let renewal = sensorcer_registry::renewal::LeaseRenewalService::deploy(
        &mut env,
        ground,
        "Lease Renewal Service",
    );
    let accessor = sensorcer_exertion::ServiceAccessor::new(vec![lus]);

    // Three UAVs, each its own airborne host with redundant pitot probes.
    let fleet = ["Raven", "Osprey", "Kestrel"];
    let mut vehicle_hosts = Vec::new();
    for uav in fleet {
        let airframe = env.add_host(format!("{uav}-airframe"), HostKind::SensorMote);
        vehicle_hosts.push(airframe);
        let group = format!("{uav}-airspeed");
        for pos in ["Primary", "Backup"] {
            let probe = airspeed_probe(&mut env, &format!("{uav}-{pos}"));
            deploy_esp(
                &mut env,
                EspConfig {
                    renewal: Some(renewal),
                    lease: SimDuration::from_secs(20),
                    equivalence_group: Some(group.clone()),
                    ..EspConfig::new(airframe, format!("{uav}-Pitot-{pos}"), probe, lus)
                },
            );
        }
        let alt = altitude_probe(&mut env, uav);
        deploy_esp(
            &mut env,
            EspConfig {
                renewal: Some(renewal),
                lease: SimDuration::from_secs(20),
                ..EspConfig::new(airframe, format!("{uav}-Altitude"), alt, lus)
            },
        );

        // Per-vehicle energy-state composite: a = airspeed, b = altitude.
        // Specific energy ~ h + v²/(2g), scaled for display.
        let handle = deploy_csp(
            &mut env,
            CspConfig {
                renewal: Some(renewal),
                ..CspConfig::new(ground, format!("{uav}-Energy"), lus)
            },
        )
        .expect("vehicle composite");
        env.with_service(handle.service, |_e, sb: &mut ServicerBox| {
            let csp = sb.downcast_mut::<CompositeSensorProvider>().unwrap();
            // Primary pitot pinned, with the redundant group as fallback.
            csp.add_service_grouped(&format!("{uav}-Pitot-Primary"), Some(group.clone()))
                .unwrap();
            csp.add_service(&format!("{uav}-Altitude")).unwrap();
            csp.set_expression("b + a*a / 19.62").unwrap();
        })
        .expect("composite configured");
    }

    // Fleet-level composite over the three vehicles.
    let mut fleet_cfg = CspConfig::new(ground, "Fleet-Energy", lus);
    fleet_cfg.renewal = Some(renewal);
    fleet_cfg.children = fleet.iter().map(|u| format!("{u}-Energy")).collect();
    fleet_cfg.expression = Some("(a + b + c)/3".into());
    deploy_csp(&mut env, fleet_cfg).expect("fleet composite");

    println!("minute  Raven    Osprey   Kestrel  fleet-mean  event");
    for minute in 0..12 {
        env.run_for(SimDuration::from_secs(60));
        let mut event = String::new();

        // Minute 3: Raven's primary pitot ices up — swap in a dead probe;
        // the equivalence group must take over transparently.
        if minute == 3 {
            let svc = env.find_service("Raven-Pitot-Primary").unwrap();
            env.with_service(svc, |_e, sb: &mut ServicerBox| {
                if let Some(esp) = sb.downcast_mut::<ElementarySensorProvider>() {
                    esp.swap_probe(Box::new(
                        SimulatedProbe::new(
                            Teds::sunspot_temperature("iced"),
                            Signal::Constant(0.0),
                            SimRng::new(0),
                        )
                        .with_battery(Battery::new(1.0, 100.0, 0.0)), // dead
                    ));
                }
            })
            .unwrap();
            event = "Raven primary pitot iced; failing over to backup".into();
        }

        // Minutes 6-8: Osprey banks behind a ridge — radio blackout.
        if minute == 6 {
            env.topo.isolate(vehicle_hosts[1]);
            event = "Osprey out of radio contact".into();
        }
        if minute == 8 {
            env.topo.reconnect(vehicle_hosts[1]);
            event = "Osprey back in contact".into();
        }

        let read = |env: &mut Env, name: &str| -> String {
            match client::get_value(env, ops, &accessor, name) {
                Ok(r) => format!("{:7.1}", r.value),
                Err(_) => "   ----".into(),
            }
        };
        let raven = read(&mut env, "Raven-Energy");
        let osprey = read(&mut env, "Osprey-Energy");
        let kestrel = read(&mut env, "Kestrel-Energy");
        let fleet_mean = read(&mut env, "Fleet-Energy");
        println!("  {minute:>2}   {raven}  {osprey}  {kestrel}   {fleet_mean}    {event}");
    }

    println!(
        "\nfleet ops complete: {} federated calls, {} of virtual flight time",
        env.metrics.get(sensorcer_sim::metrics::keys::CALLS_OK),
        env.now()
    );
}
