//! Correctness checks computed apart from the served state.
//!
//! The benchmark mirrors every mutation it applies to a session in its
//! own plain representation ([`XTuples`]), and at checkpoints rebuilds
//! the session's database from it.  Rank probabilities come from the
//! benchmark's own recurrence — for a tuple `t` of x-tuple `l`, the
//! probability of rank `h` is `e_t` times the Poisson-binomial
//! probability that exactly `h − 1` *other* x-tuples have an existing
//! alternative ranked above `t` — and qualities from a fresh
//! `BatchQuality` (one full PSR run, no delta patches).

use crate::gen::{Rng, XTuples};
use pdb_core::RankedDatabase;
use pdb_engine::delta::XTupleMutation;
use pdb_engine::queries::{AnswerTuple, QueryAnswer, TopKQuery};
use pdb_quality::{BatchQuality, WeightedQuery};

/// Tolerance of every served-versus-recomputed comparison.
pub const TOL: f64 = 1e-9;

/// Null mass below which an x-tuple has no null alternative.
const NULL_FLOOR: f64 = 1e-9;

/// Tail mass below which a tuple cannot enter any answer.
const NEGLIGIBLE: f64 = 1e-13;

/// Rank position of the alternative with score `score`: the number of
/// tuples scoring higher (generated scores are distinct).
pub fn rank_position(x: &XTuples, score: f64) -> usize {
    x.iter().flatten().filter(|&&(s, _)| s > score).count()
}

/// Draw the outcome of probing x-tuple `l` from its own distribution
/// (null included) and return the mutation that reports it.
pub fn draw_outcome(x: &XTuples, l: usize, rng: &mut Rng) -> XTupleMutation {
    let u = rng.unit();
    let mut cum = 0.0;
    for &(score, prob) in &x[l] {
        cum += prob;
        if u < cum {
            return XTupleMutation::CollapseToAlternative { keep_pos: rank_position(x, score) };
        }
    }
    // A draw past a whole mass's rounding picks the last alternative.
    match x[l].last() {
        Some(&(score, _)) if 1.0 - cum <= NULL_FLOOR => {
            XTupleMutation::CollapseToAlternative { keep_pos: rank_position(x, score) }
        }
        _ => XTupleMutation::CollapseToNull,
    }
}

/// Fold a mutation into the mirror exactly as its definition reads.
pub fn apply_to_mirror(x: &mut XTuples, l: usize, mutation: &XTupleMutation) {
    match mutation {
        XTupleMutation::CollapseToAlternative { keep_pos } => {
            let score = x[l].iter().map(|&(s, _)| s).find(|&s| rank_position(x, s) == *keep_pos);
            x[l] = vec![(score.expect("keep_pos names an alternative of l"), 1.0)];
        }
        XTupleMutation::CollapseToNull | XTupleMutation::Remove => {
            x.remove(l);
        }
        XTupleMutation::Reweight { probs } => {
            for (alt, &p) in x[l].iter_mut().zip(probs) {
                alt.1 = p;
            }
        }
        XTupleMutation::Insert { alternatives, .. } => {
            let mut alts = alternatives.clone();
            alts.sort_by(|a, b| b.0.total_cmp(&a.0));
            x.push(alts);
        }
    }
}

/// Rank probabilities of the tuples that can enter a top-`k_max` answer.
pub struct RankOracle {
    k_max: usize,
    /// `rho[pos][h - 1]` for every position before the cut-off.
    rho: Vec<Vec<f64>>,
}

impl RankOracle {
    pub fn compute(x: &XTuples, k_max: usize) -> Self {
        let mut tuples: Vec<(f64, f64, usize)> = x
            .iter()
            .enumerate()
            .flat_map(|(l, alts)| alts.iter().map(move |&(s, p)| (s, p, l)))
            .collect();
        tuples.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut above = vec![0.0; x.len()];
        let mut seen: Vec<usize> = Vec::new();
        let mut rho = Vec::new();
        for (pos, &(_, prob, l)) in tuples.iter().enumerate() {
            // Every later tuple has at least this much mass above it, so
            // once fewer than k_max + 1 x-tuples above is negligible no
            // later tuple can reach rank k_max either.
            if pos % 16 == 0 {
                let at_most = poisson_binomial(&seen, &above, usize::MAX, k_max + 1);
                if at_most.iter().sum::<f64>() < NEGLIGIBLE {
                    break;
                }
            }
            let others = poisson_binomial(&seen, &above, l, k_max);
            rho.push(others.iter().map(|c| prob * c).collect());
            if above[l] == 0.0 {
                seen.push(l);
            }
            above[l] += prob;
        }
        Self { k_max, rho }
    }

    /// Probability that the tuple at `pos` has rank exactly `h` (1-based).
    pub fn rank_prob(&self, pos: usize, h: usize) -> f64 {
        self.rho.get(pos).map_or(0.0, |r| r[h - 1])
    }

    /// Probability that the tuple at `pos` ranks within the top `k`.
    pub fn top_k_prob(&self, pos: usize, k: usize) -> f64 {
        self.rho.get(pos).map_or(0.0, |r| r[..k].iter().sum())
    }

    fn positions(&self) -> std::ops::Range<usize> {
        0..self.rho.len()
    }

    /// Compare served answers with the recomputed rank probabilities
    /// within `tol`; returns the largest difference, or where it is when
    /// it exceeds `tol`.
    pub fn check_answers(
        &self,
        queries: &[TopKQuery],
        served: &[QueryAnswer],
        tol: f64,
    ) -> Result<f64, String> {
        if queries.len() != served.len() {
            return Err(format!("{} answers for {} queries", served.len(), queries.len()));
        }
        // The largest difference, and where it is.
        let mut worst = (0.0f64, String::new());
        let mut close = |q: usize, pos: usize, served: f64, own: f64| {
            if (served - own).abs() > worst.0 {
                worst = (
                    (served - own).abs(),
                    format!(
                        "query {q}: position {pos} served probability {served}, recomputed {own}"
                    ),
                );
            }
        };
        for (q, (query, answer)) in queries.iter().zip(served).enumerate() {
            assert!(query.k() <= self.k_max);
            match (query, answer) {
                (TopKQuery::PTk { k, threshold }, QueryAnswer::TupleSet(set)) => {
                    for t in &set.tuples {
                        close(q, t.position, t.prob, self.top_k_prob(t.position, *k));
                        if t.prob < threshold - tol {
                            return Err(format!(
                                "query {q}: position {} below threshold",
                                t.position
                            ));
                        }
                    }
                    for pos in self.positions() {
                        let p = self.top_k_prob(pos, *k);
                        if p >= threshold + tol && !set.contains_position(pos) {
                            return Err(format!(
                                "query {q}: position {pos} (top-k prob {p}) missing"
                            ));
                        }
                    }
                }
                (TopKQuery::GlobalTopk { k }, QueryAnswer::TupleSet(set)) => {
                    if set.tuples.len() > *k {
                        return Err(format!("query {q}: {} tuples for k = {k}", set.tuples.len()));
                    }
                    for t in &set.tuples {
                        close(q, t.position, t.prob, self.top_k_prob(t.position, *k));
                    }
                    let floor = if set.tuples.len() == *k {
                        set.tuples.iter().map(|t| t.prob).fold(f64::INFINITY, f64::min)
                    } else {
                        0.0
                    };
                    for pos in self.positions().filter(|&p| !set.contains_position(p)) {
                        let p = self.top_k_prob(pos, *k);
                        if p > floor + tol {
                            return Err(format!(
                                "query {q}: position {pos} (top-k prob {p}) left out"
                            ));
                        }
                    }
                }
                (TopKQuery::UKRanks { k }, QueryAnswer::UKRanks(ranks)) => {
                    if ranks.winners.len() != *k {
                        return Err(format!(
                            "query {q}: {} winners for k = {k}",
                            ranks.winners.len()
                        ));
                    }
                    for (h, winner) in (1..).zip(&ranks.winners) {
                        let best =
                            self.positions().map(|p| self.rank_prob(p, h)).fold(0.0, f64::max);
                        let got = match winner {
                            Some(t) => {
                                close(q, t.position, t.prob, self.rank_prob(t.position, h));
                                t.prob
                            }
                            None => 0.0,
                        };
                        if got < best - tol {
                            return Err(format!(
                                "query {q}: rank {h} winner has {got}, best is {best}"
                            ));
                        }
                    }
                }
                _ => return Err(format!("query {q}: answer kind does not match {query:?}")),
            }
        }
        match worst {
            (diff, at) if diff > tol => Err(at),
            (diff, _) => Ok(diff),
        }
    }
}

/// Served answers against the same engine run in process on the same
/// mutations: the serving layers must not change a single answer.
pub fn same_answers(served: &[QueryAnswer], engine: &[QueryAnswer]) -> Result<(), String> {
    let tuples = |a: &QueryAnswer| -> Vec<Option<(usize, f64)>> {
        match a {
            QueryAnswer::TupleSet(set) => {
                set.tuples.iter().map(|t| Some((t.position, t.prob))).collect()
            }
            QueryAnswer::UKRanks(r) => {
                r.winners.iter().map(|w| w.map(|t| (t.position, t.prob))).collect()
            }
        }
    };
    if served.len() != engine.len() {
        return Err(format!("{} answers served, {} in process", served.len(), engine.len()));
    }
    for (q, (s, e)) in served.iter().zip(engine).enumerate() {
        let (s, e) = (tuples(s), tuples(e));
        let same = s.len() == e.len()
            && s.iter().zip(&e).all(|(a, b)| match (a, b) {
                (Some((pa, xa)), Some((pb, xb))) => pa == pb && (xa - xb).abs() <= TOL,
                (None, None) => true,
                _ => false,
            });
        if !same {
            return Err(format!("query {q}: served answer differs from the in-process engine's"));
        }
    }
    Ok(())
}

/// Served qualities against the in-process engine's.
pub fn same_qualities(served: &[f64], engine: &[f64]) -> Result<(), String> {
    if served.len() != engine.len() || served.iter().zip(engine).any(|(s, e)| (s - e).abs() > TOL) {
        return Err(format!("served qualities {served:?}, in-process engine {engine:?}"));
    }
    Ok(())
}

/// Distribution of how many x-tuples (other than `skip`) have an
/// existing alternative above, truncated to counts `0..len`.
fn poisson_binomial(seen: &[usize], above: &[f64], skip: usize, len: usize) -> Vec<f64> {
    let mut dist = vec![0.0; len];
    dist[0] = 1.0;
    for &x in seen {
        if x == skip {
            continue;
        }
        let q = above[x].min(1.0);
        for c in (1..len).rev() {
            dist[c] = dist[c] * (1.0 - q) + dist[c - 1] * q;
        }
        dist[0] *= 1.0 - q;
    }
    dist
}

/// Per-query qualities and the aggregate of a fresh evaluation of the
/// mirror: one full PSR run, no delta patches.
pub fn fresh_qualities(x: &XTuples, specs: &[WeightedQuery]) -> Result<(Vec<f64>, f64), String> {
    let db = RankedDatabase::from_scored_x_tuples(x).map_err(|e| e.to_string())?;
    let fresh = BatchQuality::from_owned(db, specs.to_vec()).map_err(|e| e.to_string())?;
    Ok((fresh.quality_vector(), fresh.aggregate_quality()))
}

/// Compare served qualities with a fresh evaluation within `tol`;
/// returns the largest difference.
pub fn check_qualities(
    fresh: &(Vec<f64>, f64),
    served: &[f64],
    served_aggregate: f64,
    tol: f64,
) -> Result<f64, String> {
    let (own, aggregate) = fresh;
    if own.len() != served.len() {
        return Err(format!("{} qualities for {} queries", served.len(), own.len()));
    }
    let mut worst = 0.0f64;
    for (q, (s, o)) in served.iter().zip(own).enumerate() {
        worst = worst.max((s - o).abs());
        if (s - o).abs() > tol {
            return Err(format!("query {q}: served quality {s}, fresh evaluation {o}"));
        }
    }
    if (served_aggregate - aggregate).abs() > tol {
        return Err(format!("served aggregate {served_aggregate}, fresh evaluation {aggregate}"));
    }
    Ok(worst.max((served_aggregate - aggregate).abs()))
}

/// Properties every `evaluate` reply has, whatever the round-off: one
/// answer per query, of the query's kind; positions of existing tuples in
/// ascending rank order; probabilities finite and non-negative; a PT-k
/// answer holds only tuples at or above its threshold, a Global-topk
/// answer at most `k` tuples, and a U-kRanks answer one winner per rank.
pub fn check_shape(
    queries: &[TopKQuery],
    served: &[QueryAnswer],
    tuples: usize,
) -> Result<(), String> {
    if queries.len() != served.len() {
        return Err(format!("{} answers for {} queries", served.len(), queries.len()));
    }
    for (q, (query, answer)) in queries.iter().zip(served).enumerate() {
        let members: Vec<&AnswerTuple> = match (query, answer) {
            (TopKQuery::PTk { threshold, .. }, QueryAnswer::TupleSet(set)) => {
                if let Some(t) = set.tuples.iter().find(|t| t.prob < *threshold) {
                    return Err(format!(
                        "query {q}: position {} served below the threshold ({})",
                        t.position, t.prob
                    ));
                }
                set.tuples.iter().collect()
            }
            (TopKQuery::GlobalTopk { k }, QueryAnswer::TupleSet(set)) => {
                if set.tuples.len() > *k {
                    return Err(format!("query {q}: {} tuples for k = {k}", set.tuples.len()));
                }
                set.tuples.iter().collect()
            }
            (TopKQuery::UKRanks { k }, QueryAnswer::UKRanks(ranks)) => {
                if ranks.winners.len() != *k {
                    return Err(format!("query {q}: {} winners for k = {k}", ranks.winners.len()));
                }
                ranks.winners.iter().flatten().collect()
            }
            _ => return Err(format!("query {q}: answer kind does not match {query:?}")),
        };
        let ascending = matches!(answer, QueryAnswer::TupleSet(_));
        for (i, t) in members.iter().enumerate() {
            if t.position >= tuples {
                return Err(format!("query {q}: position {} of {tuples} tuples", t.position));
            }
            if !(t.prob.is_finite() && t.prob >= 0.0) {
                return Err(format!(
                    "query {q}: position {} has probability {}",
                    t.position, t.prob
                ));
            }
            if ascending && i > 0 && members[i - 1].position >= t.position {
                return Err(format!("query {q}: positions out of rank order"));
            }
        }
    }
    Ok(())
}

/// The paper's properties of every quality and recommendation.
pub fn check_aggregate(aggregate: f64) -> Result<(), String> {
    if aggregate > 0.0 || !aggregate.is_finite() {
        return Err(format!("aggregate quality {aggregate} is not <= 0"));
    }
    Ok(())
}

pub fn check_gain(gain: f64) -> Result<(), String> {
    if gain < 0.0 || !gain.is_finite() {
        return Err(format!("expected gain {gain} is not >= 0"));
    }
    Ok(())
}
