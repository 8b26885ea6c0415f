//! Differential oracle for the timer engine and the dense service table.
//!
//! `Env` keeps one-shot timers in a heap of keys over a slab, and a
//! repeating timer as one entry in the sorted lane of its interval, which
//! it re-arms after each firing; a pop takes the least of the heap top
//! and the lane fronts. What callers can observe — which timer fires when,
//! in what order, and which sequence number everything takes — must be
//! what it was when `schedule_every` was a chain of one-shot `schedule`
//! calls, all in the one heap. [`reference_every`] is that chain;
//! generated programmes run against both, and the `(now, tag, seq)`
//! firing logs must agree: on the plain engine, under a pick-0 tie
//! chooser, and under a seeded-random tie chooser (the same seed on both
//! sides, so both must offer the same due sets in the same order). A
//! programme's `Parallel` runs its branches through `Env::parallel_over`,
//! which rewinds the clock per branch, so a timer armed in a later branch
//! can sort before one an earlier branch put at a lane's tail.
//!
//! A programme also starts *members*: repeating timers that name one
//! callback registered for the whole run (`Env::timer_group`) by index
//! instead of owning a closure. They share the lanes with the closures,
//! and the reference runs the same body through `reference_every`. A
//! member's body may run the clock (`RunNested`) and so fire other members
//! of its own group from inside the group's callback.

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
    /// `schedule_member` of the run's one group; the member stops from
    /// firing `stop_at`, or once cancelled.
    Member {
        first: SimDuration,
        interval: SimDuration,
        stop_at: u32,
        body: Vec<Instr>,
    },
    /// Cancel one of the repeating timers or members started so far.
    CancelRepeat(usize),
    /// `Env::cancel` one of the one-shot ids handed out so far.
    CancelOnce(usize),
    Consume(SimDuration),
    /// `run_for`, mostly from inside a callback: other timers fire, and
    /// move the clock and the sequence counter before the caller returns.
    RunNested(SimDuration),
    /// `Env::parallel_over`: each branch starts from the same instant.
    Parallel(Vec<Vec<Instr>>),
}

/// Delays from a small set, so equal deadlines are the common case.
fn delay(g: &mut Gen) -> SimDuration {
    SimDuration::from_micros(*g.pick(&[0, 100, 100, 200, 500, 1_000]))
}

fn programme(g: &mut Gen, depth: u32) -> Vec<Instr> {
    let (min_len, max_len) = if depth == 0 { (3, 10) } else { (0, 3) };
    g.vec_of(min_len, max_len, |g| {
        let (lo, hi) = if depth >= 2 { (9, 16) } else { (0, 17) };
        match g.u64_in(lo, hi) {
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
            6..=8 => Instr::Member {
                first: delay(g),
                interval: SimDuration::from_micros(*g.pick(&[100, 200, 500])),
                stop_at: g.u64_in(1, 6) as u32,
                body: programme(g, depth + 1),
            },
            9..=10 => Instr::CancelRepeat(g.usize_in(0, 64)),
            11..=12 => Instr::CancelOnce(g.usize_in(0, 64)),
            13 => Instr::Consume(SimDuration::from_micros(g.u64_in(1, 400))),
            14..=15 => Instr::RunNested(delay(g)),
            _ => Instr::Parallel(g.vec_of(2, 4, |g| programme(g, depth + 1))),
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

/// A member started by the programme: what its firings run.
struct Member {
    tag: u32,
    body: Vec<Instr>,
    stop_at: u32,
    firings: u32,
    alive: Rc<Cell<bool>>,
}

struct World {
    repetition: Repetition,
    /// The group members join on the engine; `None` on the reference.
    group: Option<TimerGroup>,
    /// `(now, tag, seq)` per firing: tags number the timers in the order
    /// they were scheduled, seq is the next sequence number at the firing.
    log: Vec<(u64, u32, u64)>,
    next_tag: u32,
    onces: Vec<TimerId>,
    repeats: Vec<Box<dyn Fn()>>,
    members: Vec<Member>,
    /// Members whose bodies are running, innermost last.
    member_depth: u32,
    /// Firings of a member inside another member's body.
    nested_members: usize,
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

/// One firing of `member`: what both the group callback and the reference
/// closure run. A cancelled member stops without firing, as a cancelled
/// closure does.
fn member_fires(env: &mut Env, w: &Shared, member: u32) -> bool {
    let (tag, body, alive) = {
        let w = w.borrow();
        let m = &w.members[member as usize];
        (m.tag, m.body.clone(), Rc::clone(&m.alive))
    };
    if !alive.get() {
        return false;
    }
    {
        let mut w = w.borrow_mut();
        w.nested_members += usize::from(w.member_depth > 0);
        w.member_depth += 1;
    }
    fired(env, w, tag);
    exec(env, w, &body);
    let mut w = w.borrow_mut();
    w.member_depth -= 1;
    let m = &mut w.members[member as usize];
    m.firings += 1;
    m.firings < m.stop_at && alive.get()
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
            Instr::Member {
                first,
                interval,
                stop_at,
                body,
            } => {
                let tag = take_tag(w);
                let alive = Rc::new(Cell::new(true));
                let (member, group) = {
                    let mut w = w.borrow_mut();
                    w.members.push(Member {
                        tag,
                        body: body.clone(),
                        stop_at: *stop_at,
                        firings: 0,
                        alive: Rc::clone(&alive),
                    });
                    (w.members.len() as u32 - 1, w.group)
                };
                match group {
                    Some(group) => env.schedule_member(group, member, *first, *interval),
                    None => {
                        let w2 = Rc::clone(w);
                        reference_every(env, *first, *interval, move |env| {
                            member_fires(env, &w2, member)
                        });
                    }
                }
                w.borrow_mut()
                    .repeats
                    .push(Box::new(move || alive.set(false)));
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
            Instr::Parallel(branches) => {
                env.parallel_over(branches, |env, body| exec(env, w, body));
            }
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
    nested_members: usize,
}

fn run(instrs: &[Instr], repetition: Repetition, configure: impl FnOnce(&mut Env)) -> Outcome {
    let mut env = Env::with_seed(11);
    configure(&mut env);
    let w: Shared = Rc::new(RefCell::new(World {
        repetition,
        group: None,
        log: Vec::new(),
        next_tag: 0,
        onces: Vec::new(),
        repeats: Vec::new(),
        members: Vec::new(),
        member_depth: 0,
        nested_members: 0,
    }));
    if let Repetition::Engine = repetition {
        let w2 = Rc::clone(&w);
        let group = env.timer_group(move |env, member| member_fires(env, &w2, member));
        w.borrow_mut().group = Some(group);
    }
    exec(&mut env, &w, instrs);
    // Uneven slices, so that deadlines fall on, before and after the edge
    // a `run_until` stops at.
    env.run_for(SimDuration::from_micros(100));
    env.run_for(SimDuration::from_micros(1_250));
    let limit = env.now() + SimDuration::from_millis(20);
    env.run_until_idle(limit);
    let (log, nested_members) = {
        let mut w = w.borrow_mut();
        (std::mem::take(&mut w.log), w.nested_members)
    };
    Outcome {
        log,
        end: env.now(),
        pending: env.pending_timers(),
        next_seq: env.schedule(SimDuration::ZERO, |_| {}).0,
        nested_members,
    }
}

#[test]
fn repeating_timers_match_the_one_shot_chain_on_every_engine() {
    let (mut firings, mut nested_members) = (0, 0);
    run_cases("timer-oracle", 300, |g| {
        let instrs = programme(g, 0);
        let expected = run(&instrs, Repetition::Reference, |_| {});
        firings += expected.log.len();
        nested_members += expected.nested_members;
        let engine = |configure: fn(&mut Env)| run(&instrs, Repetition::Engine, configure);
        assert_eq!(engine(|_| {}), expected, "plain\n{instrs:#?}");
        assert_eq!(
            engine(|env| env.set_tie_chooser(|_| 0)),
            expected,
            "pick-0 tie chooser\n{instrs:#?}"
        );
        let seed = g.u64();
        let random = move |env: &mut Env| {
            let mut rng = SimRng::new(seed);
            env.set_tie_chooser(move |k| rng.index(k));
        };
        assert_eq!(
            run(&instrs, Repetition::Engine, random),
            run(&instrs, Repetition::Reference, random),
            "seeded-random tie chooser, seed {seed}\n{instrs:#?}"
        );
    });
    assert!(firings > 2_000, "programmes too tame: {firings} firings");
    assert!(
        nested_members > 100,
        "members too tame: {nested_members} fired inside a member's body"
    );
}

#[test]
fn a_member_body_may_fire_members_of_its_own_group() {
    let mut env = Env::with_seed(6);
    let log = Rc::new(RefCell::new(Vec::new()));
    let l = Rc::clone(&log);
    let group = env.timer_group(move |env, member| {
        l.borrow_mut()
            .push((env.now().as_nanos() / 1_000_000, member));
        if member == 0 {
            // Member 1 falls due, and fires, inside this call.
            env.run_for(ms(10));
        }
        true
    });
    env.schedule_member(group, 0, ms(10), ms(30));
    env.schedule_member(group, 1, ms(15), ms(20));
    assert_eq!(env.pending_timers(), 2);
    env.run_for(ms(60));
    assert_eq!(
        *log.borrow(),
        [(10, 0), (15, 1), (35, 1), (50, 0), (55, 1)],
        "member 0 re-armed from the clock its nested run left: 20 + 30"
    );
    assert_eq!(env.pending_timers(), 2);
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
