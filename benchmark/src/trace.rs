//! The benchmark's own span recorder.
//!
//! Spans are recorded from this crate only, around the calls it makes into
//! each layer; nothing inside `crates/` is instrumented. They are held in
//! memory and written out once, when the traced pass ends.

use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a root.
    pub parent: Option<usize>,
    /// Spans of one op share its id.
    pub op: u64,
    /// How many calls the span covers; unit cost is duration / `iters`.
    pub iters: u32,
}

impl Span {
    pub fn ns_per_iter(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / f64::from(self.iters.max(1))
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// The op whose spans are being recorded.
    op: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, iters: u32) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            op: self.op,
            iters,
        });
        self.spans.len() - 1
    }

    /// Open the root span of op `op`; close it with [`Recorder::end`].
    pub fn begin_op(&mut self, op: u64) -> usize {
        self.op = op;
        self.open("op", None, 1)
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record `f` run `iters` times as one child span of `parent`.
    pub fn time<R>(
        &mut self,
        parent: usize,
        name: &'static str,
        iters: u32,
        mut f: impl FnMut() -> R,
    ) {
        let id = self.open(name, Some(parent), iters);
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        self.end(id);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-call cost of every span called `name`, in nanoseconds.
    pub fn unit_costs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns_per_iter)
            .collect()
    }

    pub fn to_json(&self, workload: &str) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            (
                "spans".into(),
                Json::Arr(
                    self.spans
                        .iter()
                        .enumerate()
                        .map(|(i, s)| {
                            Json::Obj(vec![
                                ("id".into(), Json::Num(i as f64)),
                                ("name".into(), Json::Str(s.name.into())),
                                ("start_ns".into(), Json::Num(s.start_ns as f64)),
                                ("end_ns".into(), Json::Num(s.end_ns as f64)),
                                (
                                    "parent".into(),
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("op".into(), Json::Num(s.op as f64)),
                                ("iters".into(), Json::Num(f64::from(s.iters))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_under_the_op_and_replays_carry_their_iterations() {
        let mut r = Recorder::new();
        let op = r.begin_op(16);
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.end(op);
        r.time(op, "layer.replay", 4, || 1 + 1);
        r.time(op, "layer.other", 1, || ());

        let s = r.spans();
        assert_eq!(s[op].parent, None);
        assert!(s[op].end_ns - s[op].start_ns >= 2_000_000);
        assert_eq!((s[1].parent, s[2].parent), (Some(op), Some(op)));
        assert!(s.iter().all(|s| s.op == 16 && s.end_ns >= s.start_ns));
        assert_eq!(s[1].iters, 4);
        assert_eq!(r.unit_costs("layer.replay"), vec![s[1].ns_per_iter()]);

        let j = r.to_json("w");
        let back = Json::parse(&j.render()).unwrap();
        assert_eq!(back.get("spans").unwrap().as_arr().unwrap().len(), 3);
    }
}
