//! Order statistics over host timings, and the outcome hash.

/// Median of `xs` (mean of the two middle values when even). Panics on an
/// empty slice: every caller has at least one sample by construction.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-quantile (0..=1) of an already sorted slice, nearest-rank.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One consecutive slice of a timing pass.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Host nanoseconds per op, in op order.
    pub op_ns: Vec<f64>,
    /// Wall time of the whole segment, control steps included.
    pub wall_s: f64,
    /// Machine speed while the segment ran, as a multiple of the reference
    /// (see `calibrate`); 1.0 leaves the figures as measured.
    pub speed: f64,
}

impl Default for Segment {
    fn default() -> Self {
        Segment {
            op_ns: Vec::new(),
            wall_s: 0.0,
            speed: 1.0,
        }
    }
}

/// What a timing pass reports: each figure is the median over segments
/// of that segment's own statistic, scaled to the reference machine speed
/// by that segment's own calibration. One disturbed segment moves
/// nothing, and a slow minute on a shared host moves little.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PassStats {
    pub ops: usize,
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    /// Median ops per second as measured, before scaling.
    pub raw_ops_per_s: f64,
    /// Median machine speed over the segments.
    pub speed: f64,
}

pub fn summarize(segments: &[Segment]) -> PassStats {
    let (mut per_s, mut raw, mut speed) = (Vec::new(), Vec::new(), Vec::new());
    let (mut p50, mut p90, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    for s in segments.iter().filter(|s| !s.op_ns.is_empty()) {
        let rate = s.op_ns.len() as f64 / s.wall_s;
        raw.push(rate);
        speed.push(s.speed);
        // On a machine running at `speed`, work takes 1/speed as long as
        // on the reference: rates scale down by it, durations up.
        per_s.push(rate / s.speed);
        let mut sorted = s.op_ns.clone();
        sorted.sort_by(f64::total_cmp);
        let us = |p: f64| percentile_sorted(&sorted, p) * s.speed / 1e3;
        p50.push(us(0.50));
        p90.push(us(0.90));
        p99.push(us(0.99));
    }
    PassStats {
        ops: segments.iter().map(|s| s.op_ns.len()).sum(),
        ops_per_s: median(&per_s),
        p50_us: median(&p50),
        p90_us: median(&p90),
        p99_us: median(&p99),
        raw_ops_per_s: median(&raw),
        speed: median(&speed),
    }
}

/// FNV-1a, 64 bit, fed incrementally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv64(pub u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&xs, 0.50), 50.0);
        assert_eq!(percentile_sorted(&xs, 0.90), 90.0);
        assert_eq!(percentile_sorted(&xs, 0.99), 99.0);
        assert_eq!(percentile_sorted(&xs, 1.0), 100.0);
        assert_eq!(percentile_sorted(&xs, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[5.0], 0.9), 5.0);
    }

    #[test]
    fn summary_is_the_median_of_segment_statistics() {
        // Three segments of 10 ops; the middle one is ten times slower.
        let seg = |ns: f64, wall: f64| Segment {
            op_ns: vec![ns; 10],
            wall_s: wall,
            speed: 1.0,
        };
        let s = summarize(&[seg(1000.0, 1.0), seg(10_000.0, 10.0), seg(2000.0, 2.0)]);
        assert_eq!(s.ops, 30);
        assert_eq!(s.ops_per_s, 5.0);
        assert_eq!(s.p50_us, 2.0);
        assert_eq!(s.p90_us, 2.0);
        // An empty trailing segment (time ran out) is ignored.
        let t = summarize(&[seg(1000.0, 1.0), Segment::default()]);
        assert_eq!(t.ops_per_s, 10.0);
    }

    #[test]
    fn a_slow_machine_is_scaled_back_to_the_reference() {
        // The same work measured on a machine at half speed: half the
        // rate, twice the latency, and the same scaled figures.
        let at = |speed: f64| Segment {
            op_ns: vec![1000.0 / speed; 10],
            wall_s: 1.0 / speed,
            speed,
        };
        let (full, half) = (summarize(&[at(1.0)]), summarize(&[at(0.5)]));
        assert_eq!(half.raw_ops_per_s, 5.0);
        assert_eq!((half.ops_per_s, half.p50_us), (full.ops_per_s, full.p50_us));
        assert_eq!((full.ops_per_s, full.p50_us, full.speed), (10.0, 1.0, 1.0));
    }

    #[test]
    fn fnv_matches_the_published_vectors() {
        let mut h = Fnv64::default();
        assert_eq!(h.0, 0xcbf29ce484222325);
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63dc4c8601ec8c);
        let mut h = Fnv64::default();
        h.bytes(b"foobar");
        assert_eq!(h.0, 0x85944171f73967e8);
        // Incremental feeding equals one-shot feeding.
        let mut a = Fnv64::default();
        a.bytes(b"foo");
        a.bytes(b"bar");
        assert_eq!(a, h);
    }
}
