//! Property tests for the simulation substrate: protocol-stack
//! arithmetic, timer ordering, and metric summaries. Driven by the in-repo
//! deterministic harness in `sensorcer_sim::check`.

use sensorcer_sim::check::run_cases;
use sensorcer_sim::metrics::Summary;
use sensorcer_sim::prelude::*;

#[test]
fn bytes_on_wire_exceeds_payload() {
    run_cases("bytes_on_wire_exceeds_payload", 256, |g| {
        let payload = g.usize_in(0, 100_000);
        for stack in [
            ProtocolStack::Tcp,
            ProtocolStack::Udp,
            ProtocolStack::Compact,
        ] {
            let wire = stack.bytes_on_wire(payload);
            assert!(wire > payload, "{stack:?} {payload}");
            assert_eq!(
                wire,
                payload + stack.packets_for(payload) * stack.header_bytes()
            );
            // Fragmentation is exact.
            assert!(stack.packets_for(payload) >= 1);
            assert!(stack.packets_for(payload) <= payload / stack.mtu() + 1);
        }
    });
}

#[test]
fn overhead_ratio_decreases_with_payload() {
    run_cases("overhead_ratio_decreases_with_payload", 256, |g| {
        let a = g.usize_in(1, 1000);
        let b = g.usize_in(1, 1000);
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        if small == large {
            return;
        }
        // Within a single packet, more payload means proportionally less
        // header overhead.
        let stack = ProtocolStack::Udp;
        if large > stack.mtu() {
            return;
        }
        assert!(stack.overhead_ratio(large) <= stack.overhead_ratio(small));
    });
}

/// Timers always fire in deadline order regardless of insertion order.
#[test]
fn timers_fire_sorted() {
    run_cases("timers_fire_sorted", 32, |g| {
        let delays = g.vec_of(1, 40, |g| g.u64_in(0, 10_000));
        let mut env = Env::with_seed(1);
        let fired: std::rc::Rc<std::cell::RefCell<Vec<u64>>> = Default::default();
        for &d in &delays {
            let fired = std::rc::Rc::clone(&fired);
            env.schedule(SimDuration::from_millis(d), move |_env| {
                fired.borrow_mut().push(d);
            });
        }
        env.run_for(SimDuration::from_secs(11));
        let got = fired.borrow().clone();
        let mut want = delays.clone();
        want.sort_unstable();
        assert_eq!(got, want);
    });
}

#[test]
fn summary_invariants() {
    run_cases("summary_invariants", 128, |g| {
        let xs = g.vec_of(1, 200, |g| g.f64_in(-1e6, 1e6));
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.count, xs.len());
        assert!(s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
        assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
    });
}

/// A call between two live, connected hosts always succeeds on
/// loss-free links, and the clock strictly advances.
#[test]
fn lossless_calls_always_complete() {
    run_cases("lossless_calls_always_complete", 48, |g| {
        let req = g.usize_in(0, 10_000);
        let resp = g.usize_in(0, 10_000);
        let mut env = Env::with_seed(3);
        let a = env.add_host("a", HostKind::Server);
        let b = env.add_host("b", HostKind::Server);
        struct S;
        let svc = env.deploy(b, "s", S);
        let t0 = env.now();
        let out = env.call(a, svc, ProtocolStack::Tcp, req, move |_e, _s: &mut S| {
            ((), resp)
        });
        assert!(out.is_ok());
        assert!(env.now() > t0);
    });
}

/// Jitter always stays within the configured band.
#[test]
fn jitter_banded() {
    run_cases("jitter_banded", 128, |g| {
        let base_ms = g.u64_in(1, 1_000);
        let frac = g.f64_in(0.0, 0.9);
        let mut rng = SimRng::new(g.u64());
        let base = SimDuration::from_millis(base_ms);
        for _ in 0..32 {
            let j = rng.jitter(base, frac);
            assert!(j >= base.mul_f64(1.0 - frac - 1e-9));
            assert!(j <= base.mul_f64(1.0 + frac + 1e-9));
        }
    });
}
