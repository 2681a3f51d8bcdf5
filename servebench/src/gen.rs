//! Seeded inputs: the benchmark's own generator, so the program under
//! test receives only data (inline rows), never a seed.

use pdb_gen::dist::normal_cdf;

/// SplitMix64: tiny, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`; distinct streams are independent
    /// for all practical purposes.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Share of entities that may turn out to have no reading.
const NULL_SHARE: f64 = 0.1;

/// One database as per-x-tuple `(score, prob)` alternatives, each
/// x-tuple's alternatives in descending score order (the engine's member
/// order, which `Reweight` probabilities follow).
pub type XTuples = Vec<Vec<(f64, f64)>>;

/// The Gaussian family of the paper's synthetic data: every x-tuple is an
/// entity whose attribute has an uncertainty interval of length
/// `U[60, 100]` around a uniform mean, discretised into 10 equal bars
/// weighted by a Gaussian (σ = interval / 4).  The domain grows with the
/// entity count (2 units per entity), so the overlap between entities,
/// and with it the cleaning work, is the same at every size.  As in the
/// paper, an entity's bars carry its whole mass, except that one entity
/// in `NULL_SHARE` also has a null alternative of mass `U[0, 0.15]`.
pub fn gaussian_x_tuples(rng: &mut Rng, entities: usize) -> XTuples {
    const BARS: usize = 10;
    let domain = 2.0 * entities as f64;
    (0..entities)
        .map(|_| {
            let mean = rng.range(0.0, domain);
            let len = rng.range(60.0, 100.0);
            let sigma = len / 4.0;
            let mass = if rng.unit() < NULL_SHARE { rng.range(0.85, 1.0) } else { 1.0 };
            let width = len / BARS as f64;
            let lo = mean - len / 2.0;
            let weights: Vec<f64> = (0..BARS)
                .map(|b| {
                    let a = lo + b as f64 * width;
                    normal_cdf(a + width, mean, sigma) - normal_cdf(a, mean, sigma)
                })
                .collect();
            let total: f64 = weights.iter().sum();
            (0..BARS)
                .rev()
                .map(|b| (lo + (b as f64 + 0.5) * width, mass * weights[b] / total))
                .collect()
        })
        .collect()
}

/// New absolute probabilities for an x-tuple of `len` alternatives: random
/// weights scaled to a total mass in `[0.85, 1)`.
pub fn reweight_probs(rng: &mut Rng, len: usize) -> Vec<f64> {
    let weights: Vec<f64> = (0..len).map(|_| rng.range(0.05, 1.0)).collect();
    let total: f64 = weights.iter().sum();
    let mass = rng.range(0.85, 1.0);
    weights.iter().map(|w| mass * w / total).collect()
}
