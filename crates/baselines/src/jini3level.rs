//! Baseline: the three-level Jini clustering framework of Bertocco et al.
//! (the paper's Related Work A, §III.A).
//!
//! Architecture: sensors attach to a **Terminal Communication Interface**
//! (TCI) which "is the only component communicating with sensors";
//! **Sensor Service Providers** (SSPs) contact TCIs and arrange their data
//! "in a more structured way"; the **Application Service Provider** (ASP)
//! "is the only point of access to the system". The paper's critique —
//! the TCI "is burdened with … many responsibilities" and the stack only
//! does data collection (no compute expressions, no provisioning) — is
//! exactly what B7 measures: per-host byte concentration and rigid
//! aggregation.

use sensorcer_sensors::probe::SensorProbe;
use sensorcer_sim::conn::Connection;
use sensorcer_sim::env::{Env, ServiceId};
use sensorcer_sim::time::SimDuration;
use sensorcer_sim::topology::{HostId, NetError};
use sensorcer_sim::wire::ProtocolStack;

/// Per-reading record moved up the stack: name + value + timestamp.
const RECORD_BYTES: usize = 40;
const REQUEST_BYTES: usize = 24;

/// Level 1: the TCI virtualizes access to its attached sensors.
pub struct Tci {
    pub name: String,
    /// Locally attached probes (serial/GPIB in the original); sampling is
    /// a local operation on the TCI host.
    probes: Vec<(String, Box<dyn SensorProbe>)>,
    reads_served: u64,
}

impl Tci {
    pub fn reads_served(&self) -> u64 {
        self.reads_served
    }

    /// Sample every attached sensor (the consistent interface the TCI
    /// offers regardless of sensor kind).
    fn collect(&mut self, env: &mut Env) -> Vec<(String, f64)> {
        self.reads_served += 1;
        // Sampling its whole bank costs the TCI real time per sensor —
        // this is the "burdened with many responsibilities" bottleneck.
        env.consume(SimDuration::from_micros(200) * self.probes.len() as u64);
        let now = env.now();
        self.probes
            .iter_mut()
            .filter_map(|(name, probe)| probe.sample(now).ok().map(|m| (name.clone(), m.value)))
            .collect()
    }
}

/// Deploy a TCI with its attached probes.
pub fn deploy_tci(
    env: &mut Env,
    host: HostId,
    name: &str,
    probes: Vec<(String, Box<dyn SensorProbe>)>,
) -> ServiceId {
    env.deploy(
        host,
        name,
        Tci {
            name: name.to_string(),
            probes,
            reads_served: 0,
        },
    )
}

/// One RMI stub: the service it calls and the connection it keeps open to
/// it, as RMI reuses connections (closed after a failed call or 15 s idle).
type Stub = (ServiceId, Connection);

fn stubs(services: Vec<ServiceId>) -> Vec<Stub> {
    services
        .into_iter()
        .map(|svc| (svc, Connection::closed()))
        .collect()
}

/// Call the service behind `stub` from `from` with a request of
/// [`REQUEST_BYTES`], over the stub's connection.
fn call_stub<T: 'static, R>(
    env: &mut Env,
    from: HostId,
    (to, link): &mut Stub,
    f: impl FnOnce(&mut Env, &mut T) -> (R, usize),
) -> Result<R, NetError> {
    let via = link.open(*to, ProtocolStack::Tcp, env.now());
    let result = env.call(from, *to, via, REQUEST_BYTES, f);
    link.settle(&result, env.now());
    result
}

/// Level 2: an SSP collects from its TCIs and structures the data.
pub struct Ssp {
    pub host: HostId,
    tcis: Vec<Stub>,
}

impl Ssp {
    /// Pull all readings from every TCI (sequential calls — the original
    /// is a straightforward RMI client).
    fn collect(&mut self, env: &mut Env) -> Result<Vec<(String, f64)>, NetError> {
        let mut out = Vec::new();
        for tci in &mut self.tcis {
            let readings = call_stub(env, self.host, tci, |env, t: &mut Tci| {
                let rs = t.collect(env);
                let bytes = rs.len() * RECORD_BYTES;
                (rs, bytes.max(8))
            })?;
            out.extend(readings);
        }
        Ok(out)
    }
}

/// Deploy an SSP over the given TCIs.
pub fn deploy_ssp(env: &mut Env, host: HostId, name: &str, tcis: Vec<ServiceId>) -> ServiceId {
    let tcis = stubs(tcis);
    env.deploy(host, name, Ssp { host, tcis })
}

/// Level 3: the ASP, sole access point for applications.
pub struct Asp {
    pub host: HostId,
    ssps: Vec<Stub>,
    queries: u64,
}

impl Asp {
    pub fn queries(&self) -> u64 {
        self.queries
    }

    fn collect(&mut self, env: &mut Env) -> Result<Vec<(String, f64)>, NetError> {
        self.queries += 1;
        let mut out = Vec::new();
        for ssp in &mut self.ssps {
            let readings = call_stub(env, self.host, ssp, |env, s: &mut Ssp| {
                let rs = s.collect(env);
                let bytes = rs.as_ref().map_or(8, |r| r.len() * RECORD_BYTES);
                (rs, bytes.max(8))
            })??;
            out.extend(readings);
        }
        Ok(out)
    }
}

/// Deploy the ASP over the given SSPs.
pub fn deploy_asp(env: &mut Env, host: HostId, name: &str, ssps: Vec<ServiceId>) -> ServiceId {
    env.deploy(
        host,
        name,
        Asp {
            host,
            ssps: stubs(ssps),
            queries: 0,
        },
    )
}

/// Client-side: fetch all readings through the ASP (the only access
/// point), then post-process *in the application* — the framework itself
/// offers no compute facility (the paper's critique). The client holds no
/// stub, so each query is a one-shot exchange.
pub fn query_all(
    env: &mut Env,
    from: HostId,
    asp: ServiceId,
) -> Result<Vec<(String, f64)>, NetError> {
    env.call(
        from,
        asp,
        ProtocolStack::Tcp,
        REQUEST_BYTES,
        |env, a: &mut Asp| {
            let rs = a.collect(env);
            let bytes = rs.as_ref().map_or(8, |r| r.len() * RECORD_BYTES);
            (rs, bytes.max(8))
        },
    )?
}

/// Network-wide average, computed client-side over a full `query_all`.
pub fn network_average(env: &mut Env, from: HostId, asp: ServiceId) -> Option<f64> {
    let readings = query_all(env, from, asp).ok()?;
    if readings.is_empty() {
        None
    } else {
        Some(readings.iter().map(|(_, v)| v).sum::<f64>() / readings.len() as f64)
    }
}

/// Convenience: build a full three-level deployment. `layout[s][t]` gives
/// the number of sensors on TCI `t` of SSP `s`; each TCI gets its own edge
/// host, each SSP its own server, the ASP one server. Returns
/// (asp service, tci services).
pub fn deploy_three_level(
    env: &mut Env,
    layout: &[Vec<usize>],
    mut make_probe: impl FnMut(&mut Env, usize) -> Box<dyn SensorProbe>,
) -> (ServiceId, Vec<ServiceId>) {
    let mut sensor_idx = 0;
    let mut ssps = Vec::new();
    let mut all_tcis = Vec::new();
    for (s, tcis) in layout.iter().enumerate() {
        let mut tci_ids = Vec::new();
        for (t, &count) in tcis.iter().enumerate() {
            let tci_host = env.add_host(
                format!("tci-{s}-{t}"),
                sensorcer_sim::topology::HostKind::Server,
            );
            let probes: Vec<(String, Box<dyn SensorProbe>)> = (0..count)
                .map(|_| {
                    let p = make_probe(env, sensor_idx);
                    let name = format!("sensor-{sensor_idx:03}");
                    sensor_idx += 1;
                    (name, p)
                })
                .collect();
            tci_ids.push(deploy_tci(env, tci_host, &format!("TCI-{s}-{t}"), probes));
        }
        let ssp_host = env.add_host(
            format!("ssp-{s}"),
            sensorcer_sim::topology::HostKind::Server,
        );
        all_tcis.extend(tci_ids.clone());
        ssps.push(deploy_ssp(env, ssp_host, &format!("SSP-{s}"), tci_ids));
    }
    let asp_host = env.add_host("asp", sensorcer_sim::topology::HostKind::Server);
    let asp = deploy_asp(env, asp_host, "ASP", ssps);
    (asp, all_tcis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorcer_sensors::prelude::*;
    use sensorcer_sim::prelude::*;

    fn probe(v: f64) -> Box<dyn SensorProbe> {
        Box::new(ScriptedProbe::new(vec![v], Unit::Celsius))
    }

    #[test]
    fn three_levels_collect_everything() {
        let mut env = Env::with_seed(1);
        let client = env.add_host("client", HostKind::Workstation);
        let mut next = 0.0;
        let (asp, _tcis) = deploy_three_level(&mut env, &[vec![2, 1], vec![3]], |_e, _i| {
            next += 10.0;
            probe(next)
        });
        let readings = query_all(&mut env, client, asp).unwrap();
        assert_eq!(readings.len(), 6);
        assert_eq!(
            network_average(&mut env, client, asp),
            Some((10.0 + 60.0) * 6.0 / 2.0 / 6.0)
        );
    }

    #[test]
    fn asp_is_the_single_point_of_access_and_failure() {
        let mut env = Env::with_seed(2);
        let client = env.add_host("client", HostKind::Workstation);
        let (asp, _) = deploy_three_level(&mut env, &[vec![2]], |_e, _i| probe(20.0));
        let asp_host = env.service_host(asp).unwrap();
        env.crash_host(asp_host);
        assert!(
            query_all(&mut env, client, asp).is_err(),
            "no ASP, no data — by design"
        );
    }

    #[test]
    fn tci_failure_fails_the_whole_query() {
        // The stack has no failover: a dead TCI breaks its SSP's pull and
        // thus the ASP query (contrast with SenSORCER's leases/provision).
        let mut env = Env::with_seed(3);
        let client = env.add_host("client", HostKind::Workstation);
        let (asp, tcis) = deploy_three_level(&mut env, &[vec![1, 1]], |_e, _i| probe(20.0));
        env.crash_host(env.service_host(tcis[0]).unwrap());
        assert!(query_all(&mut env, client, asp).is_err());
    }

    #[test]
    fn bytes_concentrate_at_the_asp_host() {
        let mut env = Env::with_seed(4);
        let client = env.add_host("client", HostKind::Workstation);
        let (asp, _) = deploy_three_level(&mut env, &[vec![4], vec![4]], |_e, _i| probe(20.0));
        for _ in 0..10 {
            query_all(&mut env, client, asp).unwrap();
        }
        let asp_host = env.service_host(asp).unwrap();
        let asp_bytes = env.metrics.get_host(asp_host, metric_keys::BYTES_WIRE);
        // The ASP re-transmits the entire structured data set per query:
        // it carries more traffic than any single SSP/TCI below it.
        let others: u64 = env
            .metrics
            .hosts_for(metric_keys::BYTES_WIRE)
            .iter()
            .filter(|(h, _)| *h != asp_host && *h != client)
            .map(|(_, b)| *b)
            .max()
            .unwrap_or(0);
        assert!(
            asp_bytes > others,
            "ASP {asp_bytes} should exceed max other {others}"
        );
    }

    #[test]
    fn tci_read_counter_advances() {
        let mut env = Env::with_seed(5);
        let client = env.add_host("client", HostKind::Workstation);
        let (asp, tcis) = deploy_three_level(&mut env, &[vec![2]], |_e, _i| probe(20.0));
        query_all(&mut env, client, asp).unwrap();
        query_all(&mut env, client, asp).unwrap();
        env.with_service(tcis[0], |_e, t: &mut Tci| assert_eq!(t.reads_served(), 2))
            .unwrap();
    }
}
