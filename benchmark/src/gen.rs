//! Seeded input generation: the benchmark's own random source (so that a
//! change to the simulator's `SimRng` cannot change the inputs), the op
//! vocabulary shared by the five workloads, and its byte encoding.

/// SplitMix64. Small, fast, and passes through every 64-bit state once.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Poisson draw by Knuth's product method; fine for the small means
    /// (≤ ~50 per round) the storm uses.
    pub fn poisson(&mut self, mean: f64) -> u32 {
        let limit = (-mean).exp();
        let mut k = 0u32;
        let mut p = self.unit();
        while p > limit {
            k += 1;
            p *= self.unit();
        }
        k
    }
}

/// Zipf over ranks `0..n` with exponent `s`: rank `r` has weight
/// `1 / (r + 1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        Zipf {
            cdf: weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect(),
        }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One step of a workload's input sequence. The first four are ops —
/// counted, timed, hashed; the rest are control steps that shape the world
/// between ops and are charged to the segment's wall time only.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `client::get_value` on composite number `service`.
    Read {
        service: u16,
    },
    /// Façade `get_value_as` by tenant number `tenant`.
    FacadeRead {
        tenant: u8,
        service: u16,
    },
    /// One registry tick; the world spends the draws positionally.
    Tick {
        draws: Vec<u32>,
    },
    /// Advance one simulated second, then read composite `composite`.
    Window {
        composite: u16,
    },
    Crash {
        mote: u16,
    },
    Restart {
        mote: u16,
    },
    /// Let simulated time run to the end of the current one-second round.
    EndRound,
}

impl Op {
    pub fn is_control(&self) -> bool {
        matches!(self, Op::Crash { .. } | Op::Restart { .. } | Op::EndRound)
    }

    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Op::Read { service } => {
                out.push(0);
                out.extend_from_slice(&service.to_le_bytes());
            }
            Op::FacadeRead { tenant, service } => {
                out.extend_from_slice(&[1, *tenant]);
                out.extend_from_slice(&service.to_le_bytes());
            }
            Op::Tick { draws } => {
                out.push(2);
                out.extend_from_slice(&(draws.len() as u32).to_le_bytes());
                for d in draws {
                    out.extend_from_slice(&d.to_le_bytes());
                }
            }
            Op::Window { composite } => {
                out.push(3);
                out.extend_from_slice(&composite.to_le_bytes());
            }
            Op::Crash { mote } => {
                out.push(4);
                out.extend_from_slice(&mote.to_le_bytes());
            }
            Op::Restart { mote } => {
                out.push(5);
                out.extend_from_slice(&mote.to_le_bytes());
            }
            Op::EndRound => out.push(6),
        }
    }
}

/// An endless, seeded sequence of steps.
pub trait OpGen {
    fn next_op(&mut self) -> Op;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_per_seed_and_covers_its_ranges() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        let mut c = Rng::new(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
        for _ in 0..10_000 {
            assert!(a.below(5) < 5);
            let u = a.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn poisson_mean_and_zipf_order() {
        let mut r = Rng::new(1);
        let n = 20_000;
        let mean = (0..n).map(|_| f64::from(r.poisson(6.0))).sum::<f64>() / f64::from(n);
        assert!((mean - 6.0).abs() < 0.1, "{mean}");

        let z = Zipf::new(32, 1.1);
        let mut hits = [0u32; 32];
        for _ in 0..n {
            hits[z.draw(&mut r)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[4] && hits[4] > hits[31]);
        assert!(hits[31] > 0);
    }
}
