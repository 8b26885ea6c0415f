//! Hosts, links, multicast groups and failure state.
//!
//! A [`Topology`] is the static + failure-dynamic shape of the simulated
//! network: which hosts exist, whether they are up, how long a packet takes
//! between any two of them, which multicast (discovery) groups they belong
//! to, and which host pairs are currently partitioned.

use std::collections::{BTreeMap, BTreeSet};

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Identifier of a simulated machine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct HostId(pub u32);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// Classes of simulated machines; they differ in link characteristics and
/// in what the provisioner will consider deploying onto them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HostKind {
    /// A capable machine on the wired LAN (runs LUS, cybernodes, façades).
    Server,
    /// A constrained device at the network edge holding physical sensors
    /// (SunSPOT-class). Links to it are slow and lossy.
    SensorMote,
    /// A client workstation (runs the browser / requestors).
    Workstation,
}

/// Per-host record.
#[derive(Clone, Debug)]
pub struct Host {
    pub id: HostId,
    pub name: String,
    pub kind: HostKind,
    pub alive: bool,
    /// Multicast groups this host participates in (e.g. discovery groups).
    pub groups: BTreeSet<String>,
    /// Federation subnet this host belongs to: the sharding unit of the
    /// hierarchical registry, where hosts in the same subnet share a
    /// per-subnet LUS. Defaults to 0 (one flat subnet) until assigned.
    pub subnet: SubnetId,
}

/// Identifier of a federation subnet (a CSP-tree leaf domain).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SubnetId(pub u32);

impl std::fmt::Display for SubnetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "subnet{}", self.0)
    }
}

/// Link characteristics between a pair of host classes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkModel {
    /// One-way propagation + forwarding delay, independent of size.
    pub base_latency: SimDuration,
    /// Transfer rate in bytes per second.
    pub bandwidth_bps: f64,
    /// Symmetric multiplicative jitter fraction applied to the total delay.
    pub jitter_frac: f64,
    /// Per-packet loss probability in `[0, 1]`.
    pub loss: f64,
}

impl LinkModel {
    /// Typical wired LAN: 0.2 ms, 100 MB/s, 5% jitter, lossless.
    pub fn lan() -> Self {
        LinkModel {
            base_latency: SimDuration::from_micros(200),
            bandwidth_bps: 100e6,
            jitter_frac: 0.05,
            loss: 0.0,
        }
    }

    /// Low-power radio hop to a sensor mote: 5 ms, 250 kbit/s, 20% jitter,
    /// 1% loss (802.15.4-class).
    pub fn mote_radio() -> Self {
        LinkModel {
            base_latency: SimDuration::from_millis(5),
            bandwidth_bps: 31_250.0,
            jitter_frac: 0.20,
            loss: 0.01,
        }
    }

    /// Loopback within a host.
    pub fn local() -> Self {
        LinkModel {
            base_latency: SimDuration::from_micros(5),
            bandwidth_bps: 10e9,
            jitter_frac: 0.0,
            loss: 0.0,
        }
    }

    /// One-way delay for `bytes` on this link, jittered by `rng`.
    pub fn delay(&self, bytes: usize, rng: &mut SimRng) -> SimDuration {
        let transfer = SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps);
        rng.jitter(self.base_latency + transfer, self.jitter_frac)
    }
}

/// Why a send failed at the topology level.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetError {
    /// Destination host does not exist.
    NoSuchHost,
    /// Destination host is crashed.
    HostDown,
    /// Source and destination are in severed partitions.
    Partitioned,
    /// The packet was dropped and the stack does not retransmit.
    Lost,
    /// No response arrived within the requestor's patience.
    Timeout,
    /// The target service is not deployed (or was undeployed).
    NoSuchService,
    /// The target service is already processing a request from this same
    /// call chain (re-entrant invocation). In the synchronous simulation
    /// this is the signature of a call cycle; a real deployment would
    /// deadlock or time out instead.
    Busy,
    /// A retry budget refused to launch another attempt: the remaining
    /// deadline was smaller than the backoff the next attempt would have
    /// to wait, so sleeping would only overshoot. Returned eagerly by the
    /// exertion retry loop (`exert_in_place_rearmed`) instead of a late
    /// `Timeout`.
    DeadlineExhausted,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            NetError::NoSuchHost => "no such host",
            NetError::HostDown => "host down",
            NetError::Partitioned => "network partitioned",
            NetError::Lost => "packet lost",
            NetError::Timeout => "timed out",
            NetError::NoSuchService => "no such service",
            NetError::Busy => "service busy (re-entrant call cycle)",
            NetError::DeadlineExhausted => "retry deadline exhausted",
        };
        f.write_str(s)
    }
}

impl std::error::Error for NetError {}

/// The network shape and its failure state.
#[derive(Debug, Default)]
pub struct Topology {
    hosts: Vec<Host>,
    /// Severed unordered host pairs (stored with the smaller id first).
    partitions: BTreeSet<(HostId, HostId)>,
    /// Hosts severed from everything (a "pulled cable"). Kept separate from
    /// `partitions` so healing a pair while one end is isolated does not
    /// resurrect the path, and `reconnect` does not erase explicit pairwise
    /// partitions installed independently.
    isolated: BTreeSet<HostId>,
    /// Optional per-pair link overrides; falls back to kind-based defaults.
    link_overrides: BTreeMap<(HostId, HostId), LinkModel>,
}

impl Topology {
    pub fn new() -> Self {
        Topology::default()
    }

    /// Add a host and return its id.
    pub fn add_host(&mut self, name: impl Into<String>, kind: HostKind) -> HostId {
        let id = HostId(self.hosts.len() as u32);
        self.hosts.push(Host {
            id,
            name: name.into(),
            kind,
            alive: true,
            groups: BTreeSet::new(),
            subnet: SubnetId(0),
        });
        id
    }

    /// Assign a host to a federation subnet.
    pub fn set_subnet(&mut self, id: HostId, subnet: SubnetId) {
        if let Some(h) = self.host_mut(id) {
            h.subnet = subnet;
        }
    }

    /// The subnet a host belongs to (subnet 0 for unknown hosts, so
    /// callers on the hot path never have to branch on `Option`).
    pub fn subnet_of(&self, id: HostId) -> SubnetId {
        self.host(id).map(|h| h.subnet).unwrap_or_default()
    }

    /// Number of distinct subnets currently assigned.
    pub fn subnet_count(&self) -> usize {
        self.hosts
            .iter()
            .map(|h| h.subnet)
            .collect::<BTreeSet<_>>()
            .len()
    }

    pub fn host(&self, id: HostId) -> Option<&Host> {
        self.hosts.get(id.0 as usize)
    }

    pub fn host_mut(&mut self, id: HostId) -> Option<&mut Host> {
        self.hosts.get_mut(id.0 as usize)
    }

    pub fn hosts(&self) -> impl Iterator<Item = &Host> {
        self.hosts.iter()
    }

    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    pub fn is_alive(&self, id: HostId) -> bool {
        self.host(id).is_some_and(|h| h.alive)
    }

    /// Join a multicast group (e.g. the discovery group `"public"`).
    pub fn join_group(&mut self, id: HostId, group: impl Into<String>) {
        if let Some(h) = self.host_mut(id) {
            h.groups.insert(group.into());
        }
    }

    pub fn leave_group(&mut self, id: HostId, group: &str) {
        if let Some(h) = self.host_mut(id) {
            h.groups.remove(group);
        }
    }

    /// Hosts currently subscribed to `group`, in id order (deterministic).
    pub fn group_members(&self, group: &str) -> Vec<HostId> {
        self.hosts
            .iter()
            .filter(|h| h.groups.contains(group))
            .map(|h| h.id)
            .collect()
    }

    fn pair(a: HostId, b: HostId) -> (HostId, HostId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Sever connectivity between two hosts (both directions).
    pub fn partition(&mut self, a: HostId, b: HostId) {
        self.partitions.insert(Self::pair(a, b));
    }

    /// Restore connectivity between two hosts.
    pub fn heal(&mut self, a: HostId, b: HostId) {
        self.partitions.remove(&Self::pair(a, b));
    }

    /// Sever one host from every other host (a "pulled cable").
    pub fn isolate(&mut self, a: HostId) {
        self.isolated.insert(a);
    }

    /// Undo an [`isolate`](Self::isolate). Explicit pairwise partitions
    /// involving `a` remain in force until individually healed.
    pub fn reconnect(&mut self, a: HostId) {
        self.isolated.remove(&a);
    }

    pub fn is_isolated(&self, a: HostId) -> bool {
        self.isolated.contains(&a)
    }

    pub fn is_partitioned(&self, a: HostId, b: HostId) -> bool {
        a != b
            && (self.isolated.contains(&a)
                || self.isolated.contains(&b)
                || self.partitions.contains(&Self::pair(a, b)))
    }

    /// Install a specific link model for a host pair (both directions).
    pub fn set_link(&mut self, a: HostId, b: HostId, link: LinkModel) {
        self.link_overrides.insert(Self::pair(a, b), link);
    }

    /// Remove a per-pair link override, reverting to kind-based defaults.
    pub fn clear_link(&mut self, a: HostId, b: HostId) {
        self.link_overrides.remove(&Self::pair(a, b));
    }

    /// The link model used between two hosts: an explicit override if set,
    /// otherwise inferred from the host kinds (any mote endpoint makes it a
    /// radio hop; same host is loopback; otherwise LAN).
    pub fn link(&self, a: HostId, b: HostId) -> LinkModel {
        if a == b {
            return LinkModel::local();
        }
        if let Some(l) = self.link_overrides.get(&Self::pair(a, b)) {
            return *l;
        }
        let kind = |id: HostId| self.host(id).map(|h| h.kind);
        match (kind(a), kind(b)) {
            (Some(HostKind::SensorMote), _) | (_, Some(HostKind::SensorMote)) => {
                LinkModel::mote_radio()
            }
            _ => LinkModel::lan(),
        }
    }

    /// Check whether a unicast packet can flow from `a` to `b` right now.
    pub fn check_path(&self, a: HostId, b: HostId) -> Result<(), NetError> {
        if self.host(b).is_none() {
            return Err(NetError::NoSuchHost);
        }
        if !self.is_alive(b) {
            return Err(NetError::HostDown);
        }
        if !self.is_alive(a) {
            // A crashed host cannot originate traffic either.
            return Err(NetError::HostDown);
        }
        if self.is_partitioned(a, b) {
            return Err(NetError::Partitioned);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo3() -> (Topology, HostId, HostId, HostId) {
        let mut t = Topology::new();
        let a = t.add_host("a", HostKind::Server);
        let b = t.add_host("b", HostKind::Workstation);
        let c = t.add_host("c", HostKind::SensorMote);
        (t, a, b, c)
    }

    #[test]
    fn add_and_lookup_hosts() {
        let (t, a, b, c) = topo3();
        assert_eq!(t.host_count(), 3);
        assert_eq!(t.host(a).unwrap().name, "a");
        assert_eq!(t.host(b).unwrap().kind, HostKind::Workstation);
        assert!(t.is_alive(c));
        assert!(t.host(HostId(99)).is_none());
    }

    #[test]
    fn default_links_follow_kinds() {
        let (t, a, b, c) = topo3();
        assert!(t.link(a, b).bandwidth_bps > t.link(a, c).bandwidth_bps);
        assert!(t.link(a, a).base_latency < t.link(a, b).base_latency);
    }

    #[test]
    fn link_override_wins() {
        let (mut t, a, b, _) = topo3();
        let slow = LinkModel {
            base_latency: SimDuration::from_secs(1),
            bandwidth_bps: 1.0,
            jitter_frac: 0.0,
            loss: 0.5,
        };
        t.set_link(a, b, slow);
        assert_eq!(
            t.link(b, a).loss,
            0.5,
            "override applies in both directions"
        );
    }

    #[test]
    fn partition_and_heal() {
        let (mut t, a, b, c) = topo3();
        t.partition(a, b);
        assert!(t.is_partitioned(a, b));
        assert!(t.is_partitioned(b, a));
        assert!(!t.is_partitioned(a, c));
        assert_eq!(t.check_path(a, b), Err(NetError::Partitioned));
        t.heal(b, a);
        assert!(t.check_path(a, b).is_ok());
    }

    #[test]
    fn isolate_and_reconnect() {
        let (mut t, a, b, c) = topo3();
        t.isolate(a);
        assert!(t.is_partitioned(a, b) && t.is_partitioned(a, c));
        assert!(!t.is_partitioned(b, c));
        t.reconnect(a);
        assert!(t.check_path(a, b).is_ok() && t.check_path(a, c).is_ok());
    }

    #[test]
    fn heal_while_isolated_does_not_resurrect_path() {
        let (mut t, a, b, c) = topo3();
        t.partition(a, b);
        t.isolate(a);
        // Healing the pair while the host is still unplugged must not bring
        // the path back.
        t.heal(a, b);
        assert!(t.is_partitioned(a, b));
        assert_eq!(t.check_path(a, b), Err(NetError::Partitioned));
        assert!(t.is_partitioned(a, c), "isolation covers every peer");
        t.reconnect(a);
        assert!(t.check_path(a, b).is_ok());
        assert!(t.check_path(a, c).is_ok());
    }

    #[test]
    fn reconnect_preserves_explicit_partitions() {
        let (mut t, a, b, c) = topo3();
        t.partition(a, b);
        t.isolate(a);
        t.reconnect(a);
        assert!(!t.is_isolated(a));
        assert!(
            t.is_partitioned(a, b),
            "pairwise partition installed independently must survive reconnect"
        );
        assert!(t.check_path(a, c).is_ok());
        t.heal(a, b);
        assert!(t.check_path(a, b).is_ok());
    }

    #[test]
    fn reconnect_restores_group_membership_reachability() {
        let (mut t, a, b, c) = topo3();
        t.join_group(a, "public");
        t.join_group(b, "public");
        t.join_group(c, "public");
        t.isolate(c);
        // Group membership itself is not forgotten while unplugged…
        assert_eq!(t.group_members("public"), vec![a, b, c]);
        // …but the paths to the other members are down.
        assert_eq!(t.check_path(c, a), Err(NetError::Partitioned));
        assert_eq!(t.check_path(b, c), Err(NetError::Partitioned));
        t.reconnect(c);
        for &m in &t.group_members("public") {
            if m != c {
                assert!(t.check_path(c, m).is_ok());
                assert!(t.check_path(m, c).is_ok());
            }
        }
    }

    #[test]
    fn check_path_is_symmetric_for_partitions_and_isolation() {
        let (mut t, a, b, c) = topo3();
        t.partition(b, c);
        assert_eq!(t.check_path(b, c), t.check_path(c, b));
        t.isolate(a);
        assert_eq!(t.check_path(a, b), t.check_path(b, a));
        assert_eq!(t.check_path(a, b), Err(NetError::Partitioned));
        t.reconnect(a);
        t.heal(c, b);
        for &(x, y) in &[(a, b), (a, c), (b, c)] {
            assert_eq!(t.check_path(x, y), t.check_path(y, x));
            assert!(t.check_path(x, y).is_ok());
        }
    }

    #[test]
    fn clear_link_reverts_to_kind_defaults() {
        let (mut t, a, b, _) = topo3();
        let slow = LinkModel {
            base_latency: SimDuration::from_secs(1),
            ..LinkModel::lan()
        };
        t.set_link(a, b, slow);
        assert_eq!(t.link(a, b).base_latency, SimDuration::from_secs(1));
        t.clear_link(b, a);
        assert_eq!(t.link(a, b).base_latency, LinkModel::lan().base_latency);
    }

    #[test]
    fn dead_host_paths_fail() {
        let (mut t, a, b, _) = topo3();
        t.host_mut(b).unwrap().alive = false;
        assert_eq!(t.check_path(a, b), Err(NetError::HostDown));
        assert_eq!(t.check_path(b, a), Err(NetError::HostDown));
    }

    #[test]
    fn groups_are_deterministic_and_mutable() {
        let (mut t, a, b, c) = topo3();
        t.join_group(b, "public");
        t.join_group(a, "public");
        t.join_group(c, "edge");
        assert_eq!(t.group_members("public"), vec![a, b]);
        t.leave_group(a, "public");
        assert_eq!(t.group_members("public"), vec![b]);
        assert_eq!(t.group_members("nope"), Vec::<HostId>::new());
    }

    #[test]
    fn self_path_is_fine_even_when_partition_recorded() {
        let (mut t, a, _, _) = topo3();
        t.partition(a, a);
        assert!(
            !t.is_partitioned(a, a),
            "a host is never partitioned from itself"
        );
        assert!(t.check_path(a, a).is_ok());
    }

    #[test]
    fn subnet_assignment_defaults_to_zero_and_sticks() {
        let (mut t, a, b, c) = topo3();
        assert_eq!(t.subnet_of(a), SubnetId(0));
        assert_eq!(t.subnet_count(), 1);
        t.set_subnet(b, SubnetId(2));
        t.set_subnet(c, SubnetId(1));
        assert_eq!(t.subnet_of(b), SubnetId(2));
        assert_eq!(t.subnet_count(), 3);
        // Unknown hosts fall back to subnet 0 instead of panicking.
        assert_eq!(t.subnet_of(HostId(99)), SubnetId(0));
    }

    #[test]
    fn delay_scales_with_bytes() {
        let mut rng = SimRng::new(1);
        let link = LinkModel {
            jitter_frac: 0.0,
            ..LinkModel::lan()
        };
        let small = link.delay(10, &mut rng);
        let big = link.delay(1_000_000, &mut rng);
        assert!(big > small);
        // 1 MB at 100 MB/s is 10 ms of transfer time on top of base latency.
        assert!(big >= SimDuration::from_millis(10));
    }
}
