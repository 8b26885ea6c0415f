//! Differential oracle for the timer engine and the dense service table.
//!
//! `Env` keeps timer callbacks in a slab and a repeating timer as one
//! queue entry that it pushes back after each firing. What callers can
//! observe — which timer fires when, in what order, and which sequence
//! number everything takes — must be what it was when `schedule_every`
//! was a chain of one-shot `schedule` calls. [`reference_every`] is that
//! chain; generated programmes run against both, on the plain engine and
//! under a pick-0 tie chooser, and the `(now, tag, seq)` firing logs must
//! agree.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use sensorcer_suite::sim::check::{run_cases, Gen};
use sensorcer_suite::sim::prelude::*;

/// One instruction of a generated programme; `body` runs inside the
/// scheduled callback.
#[derive(Clone, Debug)]
enum Instr {
    /// `schedule`.
    Once {
        after: SimDuration,
        body: Vec<Instr>,
    },
    /// `schedule_every`; the closure returns `false` from firing `stop_at`.
    Every {
        first: SimDuration,
        interval: SimDuration,
        stop_at: u32,
        body: Vec<Instr>,
    },
    /// Cancel one of the repeating timers started so far.
    CancelRepeat(usize),
    /// `Env::cancel` one of the one-shot ids handed out so far.
    CancelOnce(usize),
    Consume(SimDuration),
    /// `run_for`, mostly from inside a callback: other timers fire, and
    /// move the clock and the sequence counter before the caller returns.
    RunNested(SimDuration),
}

/// Delays from a small set, so equal deadlines are the common case.
fn delay(g: &mut Gen) -> SimDuration {
    SimDuration::from_micros(*g.pick(&[0, 100, 100, 200, 500, 1_000]))
}

fn programme(g: &mut Gen, depth: u32) -> Vec<Instr> {
    let (min_len, max_len) = if depth == 0 { (3, 10) } else { (0, 3) };
    g.vec_of(min_len, max_len, |g| {
        let leaf = depth >= 2;
        match g.u64_in(if leaf { 6 } else { 0 }, 13) {
            0..=2 => Instr::Once {
                after: delay(g),
                body: programme(g, depth + 1),
            },
            3..=5 => Instr::Every {
                first: delay(g),
                interval: SimDuration::from_micros(*g.pick(&[100, 200, 500])),
                stop_at: g.u64_in(1, 6) as u32,
                body: programme(g, depth + 1),
            },
            6..=7 => Instr::CancelRepeat(g.usize_in(0, 64)),
            8..=9 => Instr::CancelOnce(g.usize_in(0, 64)),
            10 => Instr::Consume(SimDuration::from_micros(g.u64_in(1, 400))),
            _ => Instr::RunNested(delay(g)),
        }
    })
}

#[derive(Clone, Copy)]
enum Repetition {
    Engine,
    Reference,
}

/// `schedule_every` as it was before repeating timers were first-class:
/// each firing schedules the next one as a fresh one-shot, after `f`
/// returned. Returns the liveness flag a `RepeatHandle` would wrap.
fn reference_every(
    env: &mut Env,
    first_after: SimDuration,
    interval: SimDuration,
    f: impl FnMut(&mut Env) -> bool + 'static,
) -> Rc<Cell<bool>> {
    type Body = Rc<RefCell<dyn FnMut(&mut Env) -> bool>>;
    fn arm(
        env: &mut Env,
        after: SimDuration,
        interval: SimDuration,
        alive: Rc<Cell<bool>>,
        f: Body,
    ) {
        env.schedule(after, move |env| {
            if !alive.get() {
                return;
            }
            let keep = (f.borrow_mut())(env);
            if keep && alive.get() {
                arm(env, interval, interval, alive, f);
            } else {
                alive.set(false);
            }
        });
    }
    let alive = Rc::new(Cell::new(true));
    arm(
        env,
        first_after,
        interval,
        Rc::clone(&alive),
        Rc::new(RefCell::new(f)),
    );
    alive
}

struct World {
    repetition: Repetition,
    /// `(now, tag, seq)` per firing: tags number the timers in the order
    /// they were scheduled, seq is the next sequence number at the firing.
    log: Vec<(u64, u32, u64)>,
    next_tag: u32,
    onces: Vec<TimerId>,
    repeats: Vec<Box<dyn Fn()>>,
}

type Shared = Rc<RefCell<World>>;

fn fired(env: &mut Env, w: &Shared, tag: u32) {
    // The probe reads the sequence counter by taking a number, and leaves
    // at once; its stale key surfaces later in the run, by which time its
    // slot has been handed on — whoever holds it then must not be fired
    // early, and the probe must never fire at all.
    let probe = env.schedule(SimDuration::from_micros(300), |_| {
        panic!("a cancelled timer fired")
    });
    env.cancel(probe);
    let now = env.now().as_nanos();
    w.borrow_mut().log.push((now, tag, probe.0));
}

fn exec(env: &mut Env, w: &Shared, instrs: &[Instr]) {
    for instr in instrs {
        match instr {
            Instr::Once { after, body } => {
                let tag = take_tag(w);
                let (w2, body) = (Rc::clone(w), body.clone());
                let id = env.schedule(*after, move |env: &mut Env| {
                    fired(env, &w2, tag);
                    exec(env, &w2, &body);
                });
                w.borrow_mut().onces.push(id);
            }
            Instr::Every {
                first,
                interval,
                stop_at,
                body,
            } => {
                let tag = take_tag(w);
                let (w2, body, stop_at) = (Rc::clone(w), body.clone(), *stop_at);
                let mut firings = 0;
                let f = move |env: &mut Env| {
                    fired(env, &w2, tag);
                    exec(env, &w2, &body);
                    firings += 1;
                    firings < stop_at
                };
                let repetition = w.borrow().repetition;
                let cancel: Box<dyn Fn()> = match repetition {
                    Repetition::Engine => {
                        let handle = env.schedule_every(*first, *interval, f);
                        Box::new(move || handle.cancel())
                    }
                    Repetition::Reference => {
                        let alive = reference_every(env, *first, *interval, f);
                        Box::new(move || alive.set(false))
                    }
                };
                w.borrow_mut().repeats.push(cancel);
            }
            Instr::CancelRepeat(n) => {
                let w = w.borrow();
                if !w.repeats.is_empty() {
                    w.repeats[n % w.repeats.len()]();
                }
            }
            Instr::CancelOnce(n) => {
                let id = {
                    let w = w.borrow();
                    (!w.onces.is_empty()).then(|| w.onces[n % w.onces.len()])
                };
                if let Some(id) = id {
                    env.cancel(id);
                }
            }
            Instr::Consume(d) => env.consume(*d),
            Instr::RunNested(d) => env.run_for(*d),
        }
    }
}

fn take_tag(w: &Shared) -> u32 {
    let mut w = w.borrow_mut();
    w.next_tag += 1;
    w.next_tag
}

/// Everything a run can tell its caller.
#[derive(Debug, PartialEq)]
struct Outcome {
    log: Vec<(u64, u32, u64)>,
    end: SimTime,
    pending: usize,
    next_seq: u64,
}

fn run(instrs: &[Instr], repetition: Repetition, configure: impl FnOnce(&mut Env)) -> Outcome {
    let mut env = Env::with_seed(11);
    configure(&mut env);
    let w: Shared = Rc::new(RefCell::new(World {
        repetition,
        log: Vec::new(),
        next_tag: 0,
        onces: Vec::new(),
        repeats: Vec::new(),
    }));
    exec(&mut env, &w, instrs);
    // Uneven slices, so that deadlines fall on, before and after the edge
    // a `run_until` stops at.
    env.run_for(SimDuration::from_micros(100));
    env.run_for(SimDuration::from_micros(1_250));
    let limit = env.now() + SimDuration::from_millis(20);
    env.run_until_idle(limit);
    let log = std::mem::take(&mut w.borrow_mut().log);
    Outcome {
        log,
        end: env.now(),
        pending: env.pending_timers(),
        next_seq: env.schedule(SimDuration::ZERO, |_| {}).0,
    }
}

#[test]
fn repeating_timers_match_the_one_shot_chain_on_every_engine() {
    let mut firings = 0;
    run_cases("timer-oracle", 300, |g| {
        let instrs = programme(g, 0);
        let expected = run(&instrs, Repetition::Reference, |_| {});
        firings += expected.log.len();
        let engine = |configure: fn(&mut Env)| run(&instrs, Repetition::Engine, configure);
        assert_eq!(engine(|_| {}), expected, "plain\n{instrs:#?}");
        assert_eq!(
            engine(|env| env.set_tie_chooser(|_| 0)),
            expected,
            "pick-0 tie chooser\n{instrs:#?}"
        );
    });
    assert!(firings > 2_000, "programmes too tame: {firings} firings");
}

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

#[test]
fn a_reused_slot_never_resurrects_a_cancelled_timer() {
    let mut env = Env::with_seed(1);
    let fired = Rc::new(RefCell::new(Vec::new()));
    let note = |tag: &'static str| {
        let fired = Rc::clone(&fired);
        move |_: &mut Env| fired.borrow_mut().push(tag)
    };
    let a = env.schedule(ms(10), note("a"));
    env.cancel(a);
    // `b` moves into the storage `a` left; `a`'s key is still queued ahead.
    env.schedule(ms(20), note("b"));
    assert_eq!(env.pending_timers(), 1);
    env.run_for(ms(15));
    assert!(
        fired.borrow().is_empty(),
        "a's deadline passed, b's has not"
    );
    env.cancel(a);
    assert_eq!(env.pending_timers(), 1, "a's id has no hold on b");
    env.run_for(ms(10));
    assert_eq!(*fired.borrow(), ["b"]);
    assert_eq!(env.pending_timers(), 0);
}

#[test]
fn the_rearmed_seq_is_allocated_after_seqs_taken_inside_f() {
    let mut env = Env::with_seed(2);
    let order = Rc::new(RefCell::new(Vec::new()));
    let (o1, o2) = (Rc::clone(&order), Rc::clone(&order));
    let first = env.schedule(ms(50), |_| {}).0;
    env.schedule_every(ms(10), ms(10), move |env| {
        o1.borrow_mut().push(("every", 0));
        // Same deadline as the next firing; scheduled first, so it takes
        // the lower seq and fires first.
        let o = Rc::clone(&o2);
        let inner = env.schedule(ms(10), move |_| o.borrow_mut().push(("inner", 0)));
        o2.borrow_mut().push(("inner scheduled", inner.0));
        true
    });
    env.run_for(ms(10));
    let next = env.schedule(ms(50), |_| {}).0;
    assert_eq!(
        *order.borrow(),
        [("every", 0), ("inner scheduled", first + 2)],
        "the repeating timer itself took seq first + 1"
    );
    assert_eq!(next, first + 4, "the re-armed entry took first + 3");
    order.borrow_mut().clear();
    env.run_for(ms(10));
    assert_eq!(
        *order.borrow(),
        [("inner", 0), ("every", 0), ("inner scheduled", first + 5)]
    );
}

#[test]
fn cancel_after_fire_leaves_nothing_behind() {
    let mut env = Env::with_seed(3);
    let fired = env.schedule(ms(10), |_| {});
    let live = env.schedule(ms(5_000), |_| {});
    let dropped = env.schedule(ms(5_000), |_| {});
    env.run_for(ms(20));
    env.cancel(fired);
    env.cancel(fired);
    assert_eq!(env.pending_timers(), 2);
    env.cancel(dropped);
    env.cancel(dropped);
    assert_eq!(env.pending_timers(), 1, "a cancellation counts once");
    env.run_for(ms(10_000));
    assert_eq!(env.pending_timers(), 0);
    env.cancel(live);
    assert_eq!(env.pending_timers(), 0);
    assert!(!env.step(), "nothing left to fire, stale or otherwise");
}

#[test]
fn a_cancelled_one_shot_drops_its_capture_at_cancel_a_repeat_at_its_deadline() {
    let mut env = Env::with_seed(4);
    let held = Rc::new(());
    let (h1, h2) = (Rc::clone(&held), Rc::clone(&held));
    let once = env.schedule(ms(10), move |_| drop(h1));
    let every = env.schedule_every(ms(10), ms(10), move |_| Rc::strong_count(&h2) > 0);
    let seq = env.schedule(ms(1_000), |_| {}).0;
    env.cancel(once);
    assert_eq!(Rc::strong_count(&held), 2);
    every.cancel();
    assert_eq!(Rc::strong_count(&held), 2);
    assert_eq!(env.pending_timers(), 2, "the repeat stays queued");
    env.run_for(ms(10));
    assert_eq!(Rc::strong_count(&held), 1);
    assert_eq!(env.pending_timers(), 1);
    assert_eq!(
        env.schedule(ms(1_000), |_| {}).0,
        seq + 1,
        "a cancelled repeat takes no further seq"
    );
}

#[test]
fn undeploy_leaves_a_hole_that_deploy_never_refills() {
    let mut env = Env::with_seed(5);
    let h1 = env.add_host("h1", HostKind::Server);
    let h2 = env.add_host("h2", HostKind::Server);
    let a = env.deploy(h1, "dup", 1u32);
    let b = env.deploy(h1, "b", 2u32);
    let c = env.deploy(h2, "c", 3u32);
    let d = env.deploy(h1, "dup", 4u32);
    assert_eq!([a, b, c, d].map(|s| s.0), [0, 1, 2, 3]);

    assert!(env.undeploy(b));
    assert!(!env.undeploy(b));
    assert!(!env.undeploy(ServiceId(99)));
    assert!(!env.undeploy(ServiceId(u64::MAX)));
    let e = env.deploy(h1, "b", 5u32);
    assert_eq!(e, ServiceId(4), "ids are never reused");

    assert_eq!(env.service_host(b), None);
    assert_eq!(env.service_name(b), None);
    assert!(!env.is_service_up(b));
    assert!(!env.service_is::<u32>(b));
    assert_eq!(
        env.with_service(b, |_, v: &mut u32| *v),
        Err(NetError::NoSuchService)
    );
    assert_eq!(
        env.call(h2, b, ProtocolStack::Tcp, 8, |_, v: &mut u32| (*v, 8)),
        Err(NetError::NoSuchService)
    );

    assert_eq!(env.services_on(h1), vec![a, d, e], "id order, hole skipped");
    assert_eq!(env.services_on(h2), vec![c]);
    assert_eq!(env.find_service("dup"), Some(a), "lowest id wins");
    assert_eq!(env.find_service("b"), Some(e));
    assert!(env.undeploy(a));
    assert_eq!(env.find_service("dup"), Some(d));
    assert_eq!(env.with_service(e, |_, v: &mut u32| *v), Ok(5));
}
