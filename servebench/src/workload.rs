//! The three workloads and the rounds they are run in.
//!
//! A run repeats one *round* — a fixed amount of work on a fresh serving
//! tier over a fresh store — until its time is up.  Round `r` of a run
//! opens its sessions on data drawn from the seed and `r`, so what a round
//! does, its end state, compaction points and recovery work, is fixed by
//! the seed and the round's index, never by how fast the code under test
//! is; a run averages over as many rounds as fit in its time:
//!
//! 1. **set-up** — start the tier (store open; for the router, shard
//!    spawn and bind) and open every initial session with its queries;
//! 2. **timed phase** — [`STEPS`] steps over one closed-loop connection,
//!    sessions taken round-robin;
//! 3. **drift check** (workloads that collapse x-tuples) — the strict
//!    check on a session whose input does not depend on the seed;
//! 4. **recovery** — shut the tier down, restart it over the same store
//!    directories, and wait until every live session is served again.
//!
//! A run counts *operations*, not requests: each round attempts the same
//! operations (the in-process loop, set-up, every step, the drift check,
//! shutdown and recovery), so the share of failed ones does not depend on
//! how many sessions a round happens to open.

use crate::gen::{gaussian_x_tuples, reweight_probs, Rng, XTuples};
use crate::net::{Conn, Exchange, Tier};
use crate::oracle::{self, RankOracle, TOL};
use crate::trace::{fresh_dir, Tracer};
use pdb_clean::{best_single_probe, CleaningContext, CleaningSetup};
use pdb_core::RankedDatabase;
use pdb_engine::delta::XTupleMutation;
use pdb_engine::queries::{QueryAnswer, TopKQuery};
use pdb_quality::{BatchQuality, WeightedQuery};
use pdb_server::protocol::{
    ApplyMutation, CreateSession, EvalMode, ProbeRecommendation, RegisterQuery, Request, Response,
    SessionRef,
};
use pdb_store::DatasetSpec;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Success probability of one probe, as told to every session.
pub const PROBE_SUCCESS: f64 = 0.8;

/// Steps in one round's timed phase.
pub const STEPS: usize = 1000;

/// A full correctness check on the stepped session every this many steps.
pub const CHECK_EVERY: usize = 250;

/// Shard processes behind the router of a routed workload.
pub const SHARDS: usize = 2;

/// Seed and ordinal of the drift check's session: session 7 of round 7
/// under seed 74, where a survey of 200 `clean_loop` sessions found the
/// largest drift (a served top-k probability of 1.0745).
const DRIFT_SESSION: (u64, u64) = (74, 7 << 20 | 7);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// `recommend_probe`, `apply_probe` with a drawn outcome, `quality`.
    Clean,
    /// [`Step::Clean`] plus one `evaluate`.
    CleanEvaluate,
    /// `evaluate` plus `quality`, with an absolute reweight every
    /// `reweight_every` steps.
    Reads,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub step: Step,
    /// Entities (x-tuples) per session; each has 10 alternatives.
    pub entities: usize,
    /// Sessions open at once.
    pub slots: usize,
    pub queries: Vec<TopKQuery>,
    pub reweight_every: usize,
    pub compact_every: u64,
    /// Nominal length of one round on the reference host (README,
    /// "Reference figures"), in seconds: a run of `--seconds s` takes
    /// `ceil(s / round_s)` measured rounds, whatever the speed of the
    /// code under test.
    pub round_s: f64,
    /// [`SHARDS`] shard processes behind a router, or one server reached
    /// directly.
    pub routed: bool,
}

impl Workload {
    pub fn named(name: &str) -> Option<Self> {
        let mixed = vec![
            TopKQuery::PTk { k: 5, threshold: 0.1 },
            TopKQuery::UKRanks { k: 15 },
            TopKQuery::GlobalTopk { k: 50 },
        ];
        Some(match name {
            "clean_loop" => Self {
                step: Step::Clean,
                entities: 1000,
                slots: 3,
                queries: mixed,
                reweight_every: 0,
                compact_every: 300,
                round_s: 6.0,
                routed: false,
            },
            "answer_reads" => Self {
                step: Step::Reads,
                entities: 100,
                slots: 4,
                queries: vec![
                    TopKQuery::PTk { k: 5, threshold: 0.1 },
                    TopKQuery::PTk { k: 15, threshold: 0.1 },
                    TopKQuery::PTk { k: 50, threshold: 0.1 },
                ],
                reweight_every: 50,
                compact_every: 128,
                round_s: 1.0,
                routed: false,
            },
            "routed_mix" => Self {
                step: Step::CleanEvaluate,
                entities: 100,
                slots: 4,
                queries: mixed,
                reweight_every: 0,
                compact_every: 256,
                round_s: 2.0,
                routed: true,
            },
            _ => return None,
        })
    }

    fn k_max(&self) -> usize {
        self.queries.iter().map(TopKQuery::k).max().unwrap_or(1)
    }

    fn specs(&self) -> Vec<WeightedQuery> {
        self.queries.iter().map(|&q| WeightedQuery::weighted(q, 1.0)).collect()
    }
}

/// What one round measured.
pub struct Round {
    pub setup_s: f64,
    pub recovery_s: f64,
    pub rss_mib: f64,
    pub timed_s: f64,
    pub timed_requests: u64,
    pub step_ms: Vec<f64>,
}

/// A live session as the client knows it.
struct Session {
    id: u64,
    /// The mirror of every mutation applied to the session.
    x: XTuples,
    /// Outcome and reweight draws.
    rng: Rng,
    /// The last aggregate quality the server acknowledged.
    aggregate: f64,
    /// The same engine, in process, fed the same mutations.
    engine: BatchQuality<'static>,
    /// Whether a probe outcome has collapsed an x-tuple yet.
    collapsed: bool,
}

impl Session {
    fn tuples(&self) -> usize {
        self.x.iter().map(Vec::len).sum()
    }
}

/// A run of one workload: its counters and the state of the round in
/// progress.
pub struct Runner {
    pub workload: Workload,
    seed: u64,
    work: PathBuf,
    /// Operations attempted and failed, and requests sent.
    pub attempted: u64,
    pub failed: u64,
    pub requests: u64,
    pub tracer: Option<Tracer>,
    /// Rounds started, and the ordinal of the next session a round opens
    /// (its data and draws derive from the seed and the ordinal).
    rounds_started: u64,
    next_ordinal: u64,
    /// Requests of the timed phase, and time spent off its clock
    /// (checks, in-process replays).
    timed_requests: u64,
    off_clock: Duration,
    in_timed_phase: bool,
    traced_round: bool,
    step_span: u64,
    steps_taken: usize,
    /// Largest difference between a served probability or quality and
    /// the benchmark's own recomputation, and between a recovered
    /// quality and the acknowledged one.
    pub drift: f64,
    pub recovery_drift: f64,
    /// Comparisons of collapsed seeded sessions with the recomputation,
    /// and those that missed it by more than [`TOL`], with the first miss.
    pub drift_checks: u64,
    pub drift_misses: u64,
    pub first_drift_miss: Option<String>,
    /// The drift check's first miss.
    pub drift_check_miss: Option<String>,
}

impl Runner {
    pub fn new(workload: Workload, seed: u64, work: PathBuf) -> Self {
        Self {
            workload,
            seed,
            work,
            attempted: 0,
            failed: 0,
            requests: 0,
            tracer: None,
            rounds_started: 0,
            next_ordinal: 0,
            timed_requests: 0,
            off_clock: Duration::ZERO,
            in_timed_phase: false,
            traced_round: false,
            step_span: 0,
            steps_taken: 0,
            drift: 0.0,
            recovery_drift: 0.0,
            drift_checks: 0,
            drift_misses: 0,
            first_drift_miss: None,
            drift_check_miss: None,
        }
    }

    /// One operation of a round: it counts as attempted, and as failed
    /// when it returns an error.
    fn op<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T, String>) -> Result<T, String> {
        self.attempted += 1;
        f(self).inspect_err(|_| self.failed += 1)
    }

    /// Send one request; an error reply is returned as `Err`.
    fn call(&mut self, conn: &mut Conn, request: Request) -> Result<Response, String> {
        self.requests += 1;
        let exchange: Exchange = conn.call(&request)?;
        if self.in_timed_phase {
            self.timed_requests += 1;
        }
        if self.traced_round {
            let tracer = self.tracer.as_mut().expect("traced round has a tracer");
            let before = tracer.replay_time;
            let replayed = tracer.exchange(self.step_span, &request, &exchange);
            self.off_clock += tracer.replay_time - before;
            replayed?;
        }
        Ok(exchange.response)
    }

    /// The exact-zero property of the in-process loop, on a session
    /// derived from the seed: cleaning until no probe helps must leave an
    /// aggregate quality of exactly 0.
    fn in_process_loop(&mut self) -> Result<(), String> {
        let mut rng = Rng::new(self.seed, u64::MAX);
        let mut x = gaussian_x_tuples(&mut rng, 100);
        let db = RankedDatabase::from_scored_x_tuples(&x).map_err(|e| e.to_string())?;
        let mut batch =
            BatchQuality::from_owned(db, self.workload.specs()).map_err(|e| e.to_string())?;
        loop {
            let setup = CleaningSetup::uniform(batch.database().num_x_tuples(), 1, PROBE_SUCCESS)
                .map_err(|e| e.to_string())?;
            let ctx = CleaningContext::from_batch(&batch);
            let Some((l, _)) = best_single_probe(&ctx, &setup) else { break };
            let mutation = oracle::draw_outcome(&x, l, &mut rng);
            batch.apply_collapse_in_place(l, &mutation).map_err(|e| e.to_string())?;
            oracle::apply_to_mirror(&mut x, l, &mutation);
        }
        let aggregate = batch.aggregate_quality();
        if aggregate != 0.0 {
            return Err(format!(
                "in-process cleaning loop ended at aggregate quality {aggregate:e}, not exactly 0"
            ));
        }
        Ok(())
    }

    /// Run `f` off the timed phase's clock (client-side mirroring and
    /// checking).
    fn off_clock<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let started = Instant::now();
        let out = f(self);
        self.off_clock += started.elapsed();
        out
    }

    /// Open the next session.
    fn open(&mut self, conn: &mut Conn) -> Result<Session, String> {
        let ordinal = self.next_ordinal;
        self.next_ordinal += 1;
        self.open_on(conn, self.seed, ordinal)
    }

    /// Open a session on the data of `(seed, ordinal)`: `create_session`
    /// with inline rows, then one `register_query` per query.  A fresh
    /// session is checked right away against the benchmark's own
    /// recomputation.
    fn open_on(&mut self, conn: &mut Conn, seed: u64, ordinal: u64) -> Result<Session, String> {
        let mut data_rng = Rng::new(seed, 2 * ordinal);
        let x = gaussian_x_tuples(&mut data_rng, self.workload.entities);
        let request = Request::CreateSession(CreateSession {
            dataset: DatasetSpec::Inline { x_tuples: x.clone() },
            probe_cost: 1,
            probe_success: PROBE_SUCCESS,
            session: None,
        });
        let id = match self.call(conn, request)? {
            Response::SessionCreated(created) => created.session,
            other => return self.unexpected("create_session", &other),
        };
        for query in self.workload.queries.clone() {
            let request = Request::RegisterQuery(RegisterQuery { session: id, query, weight: 1.0 });
            self.call(conn, request)?;
        }
        let specs = self.workload.specs();
        let engine = self.off_clock(|_| {
            let db = RankedDatabase::from_scored_x_tuples(&x).map_err(|e| e.to_string())?;
            BatchQuality::from_owned(db, specs).map_err(|e| e.to_string())
        })?;
        let aggregate = engine.aggregate_quality();
        let mut session = Session {
            id,
            x,
            rng: Rng::new(seed, 2 * ordinal + 1),
            aggregate,
            engine,
            collapsed: false,
        };
        self.full_check(conn, &mut session)?;
        Ok(session)
    }

    fn unexpected<T>(&self, verb: &str, response: &Response) -> Result<T, String> {
        Err(format!("{verb} answered with {:?}", response.kind()))
    }

    /// `quality`: the aggregate must be <= 0 and equal the in-process
    /// engine's.
    fn quality(&mut self, conn: &mut Conn, s: &mut Session) -> Result<Vec<f64>, String> {
        match self.call(conn, Request::Quality(SessionRef { session: s.id }))? {
            Response::QualityReport(report) => {
                oracle::check_aggregate(report.aggregate)?;
                oracle::same_qualities(&report.qualities, &s.engine.quality_vector())?;
                s.aggregate = report.aggregate;
                Ok(report.qualities)
            }
            other => self.unexpected("quality", &other),
        }
    }

    /// `evaluate`: the reply must have the shape of the queries' answers.
    fn evaluate(&mut self, conn: &mut Conn, s: &Session) -> Result<Vec<QueryAnswer>, String> {
        match self.call(conn, Request::Evaluate(SessionRef { session: s.id }))? {
            Response::Answers(answers) => {
                self.off_clock(|this| {
                    oracle::check_shape(&this.workload.queries, &answers.answers, s.tuples())
                })?;
                Ok(answers.answers)
            }
            other => self.unexpected("evaluate", &other),
        }
    }

    /// `recommend_probe`: a recommended expected gain must be >= 0.
    fn recommend(
        &mut self,
        conn: &mut Conn,
        s: &Session,
    ) -> Result<Option<ProbeRecommendation>, String> {
        match self.call(conn, Request::RecommendProbe(SessionRef { session: s.id }))? {
            Response::ProbeRecommendation(advice) => {
                if let Some(rec) = &advice.recommendation {
                    oracle::check_gain(rec.expected_gain)?;
                }
                Ok(advice.recommendation)
            }
            other => self.unexpected("recommend_probe", &other),
        }
    }

    /// Apply one mutation; its reply must match the in-process engine
    /// applying the same mutation.
    fn mutate(
        &mut self,
        conn: &mut Conn,
        s: &mut Session,
        l: usize,
        mutation: XTupleMutation,
        probe: bool,
    ) -> Result<(), String> {
        let payload = ApplyMutation {
            session: s.id,
            x_tuple: l,
            mutation: mutation.clone(),
            mode: EvalMode::Delta,
        };
        let request =
            if probe { Request::ApplyProbe(payload) } else { Request::ApplyMutation(payload) };
        let applied = match self.call(conn, request)? {
            Response::ProbeApplied(applied) => applied,
            other => return self.unexpected("apply", &other),
        };
        oracle::check_aggregate(applied.update.aggregate)?;
        let engine = self.off_clock(|_| {
            oracle::apply_to_mirror(&mut s.x, l, &mutation);
            s.engine.apply_collapse_in_place(l, &mutation).map_err(|e| e.to_string())
        })?;
        oracle::same_qualities(&applied.update.qualities, &engine.qualities)?;
        s.collapsed |= !matches!(mutation, XTupleMutation::Reweight { .. });
        s.aggregate = applied.update.aggregate;
        Ok(())
    }

    /// The full check (off the clock): served answers and qualities
    /// against the in-process engine, against the benchmark's own rank
    /// probabilities, and against a fresh evaluation of the mirror.
    ///
    /// A miss of the recomputation by more than [`TOL`] fails the check,
    /// except on a session that has been collapsed: collapse patches drift
    /// (README, "Known drift") on most such sessions, by amounts that
    /// depend on their data, so there the miss is counted and reported,
    /// and the drift check on fixed data makes it a failed operation in
    /// every round.
    fn full_check(&mut self, conn: &mut Conn, s: &mut Session) -> Result<(), String> {
        let (worst, miss) = self.recompute(conn, s)?;
        self.drift = self.drift.max(worst);
        if s.collapsed {
            self.drift_checks += 1;
        }
        match miss {
            Some(miss) if s.collapsed => {
                self.drift_misses += 1;
                self.first_drift_miss.get_or_insert(miss);
                Ok(())
            }
            Some(miss) => Err(miss),
            None => Ok(()),
        }
    }

    /// Compare a session's served state with the recomputation; returns
    /// the largest difference and, if it exceeds [`TOL`], where it is.
    /// Differences from the in-process engine and answers of the wrong
    /// shape are errors.
    fn recompute(
        &mut self,
        conn: &mut Conn,
        s: &mut Session,
    ) -> Result<(f64, Option<String>), String> {
        let timed = std::mem::replace(&mut self.in_timed_phase, false);
        let traced = std::mem::replace(&mut self.traced_round, false);
        let result = self.off_clock(|this| this.recompute_inner(conn, s));
        self.in_timed_phase = timed;
        self.traced_round = traced;
        result
            .map(|(worst, miss)| (worst, miss.map(|e| format!("session {}: {e}", s.id))))
            .map_err(|e| format!("session {}: {e}", s.id))
    }

    fn recompute_inner(
        &mut self,
        conn: &mut Conn,
        s: &mut Session,
    ) -> Result<(f64, Option<String>), String> {
        let answers = self.evaluate(conn, s)?;
        let qualities = self.quality(conn, s)?;
        let engine = s.engine.answers().map_err(|e| e.to_string())?;
        oracle::same_answers(&answers, &engine)?;
        let queries = &self.workload.queries;
        let oracle = RankOracle::compute(&s.x, self.workload.k_max());
        let fresh = oracle::fresh_qualities(&s.x, &self.workload.specs())?;
        let worst = oracle
            .check_answers(queries, &answers, f64::INFINITY)?
            .max(oracle::check_qualities(&fresh, &qualities, s.aggregate, f64::INFINITY)?);
        let strict = oracle
            .check_answers(queries, &answers, TOL)
            .and_then(|_| oracle::check_qualities(&fresh, &qualities, s.aggregate, TOL));
        Ok((worst, strict.err()))
    }

    /// The drift check: a session on [`DRIFT_SESSION`]'s data, which does
    /// not depend on the seed, cleaned until no probe helps and then
    /// compared with the recomputation at [`TOL`].  Returns the miss; on
    /// the current engine there is one in every round.
    fn drift_check(&mut self, conn: &mut Conn) -> Result<Option<String>, String> {
        let (seed, ordinal) = DRIFT_SESSION;
        let mut s = self.open_on(conn, seed, ordinal)?;
        while let Some(rec) = self.recommend(conn, &s)? {
            let mutation = oracle::draw_outcome(&s.x, rec.x_tuple, &mut s.rng);
            self.mutate(conn, &mut s, rec.x_tuple, mutation, true)?;
        }
        let (_, miss) = self.recompute(conn, &mut s)?;
        self.call(conn, Request::DropSession(SessionRef { session: s.id }))?;
        Ok(miss)
    }

    /// One step on `sessions[slot]`; returns its latency.  A session that
    /// no probe can improve any more is checked, dropped and replaced
    /// first, and the step is taken on the new session.
    fn step(
        &mut self,
        conn: &mut Conn,
        sessions: &mut [Session],
        slot: usize,
    ) -> Result<Duration, String> {
        loop {
            let started = Instant::now();
            let off_before = self.off_clock;
            let s = &mut sessions[slot];
            let done = match self.workload.step {
                Step::Reads => {
                    self.steps_taken += 1;
                    if self.steps_taken.is_multiple_of(self.workload.reweight_every) {
                        let l = s.rng.below(s.x.len());
                        let probs = reweight_probs(&mut s.rng, s.x[l].len());
                        self.mutate(conn, s, l, XTupleMutation::Reweight { probs }, false)?;
                    }
                    self.evaluate(conn, s)?;
                    self.quality(conn, s)?;
                    true
                }
                Step::Clean | Step::CleanEvaluate => match self.recommend(conn, s)? {
                    Some(rec) => {
                        let mutation = oracle::draw_outcome(&s.x, rec.x_tuple, &mut s.rng);
                        self.mutate(conn, s, rec.x_tuple, mutation, true)?;
                        self.quality(conn, s)?;
                        if self.workload.step == Step::CleanEvaluate {
                            self.evaluate(conn, s)?;
                        }
                        self.steps_taken += 1;
                        true
                    }
                    None => false,
                },
            };
            if done {
                return Ok(started.elapsed().saturating_sub(self.off_clock - off_before));
            }
            // Cleaned until no probe helps: the aggregate must be 0.
            let s = &mut sessions[slot];
            let finished = s.aggregate;
            if finished.abs() > TOL {
                return Err(format!(
                    "session {} ended at aggregate quality {finished}, not 0",
                    s.id
                ));
            }
            self.full_check(conn, s)?;
            self.call(conn, Request::DropSession(SessionRef { session: s.id }))?;
            sessions[slot] = self.open(conn)?;
        }
    }

    /// Run one round.  A traced round replays every exchange through the
    /// in-process layers and records spans.
    pub fn round(&mut self, traced: bool) -> Result<Round, String> {
        let w = self.workload.clone();
        self.next_ordinal = self.rounds_started << 20;
        self.rounds_started += 1;
        self.steps_taken = 0;
        self.off_clock = Duration::ZERO;
        self.op(Self::in_process_loop)?;

        let (store, tier, mut conn, mut sessions, setup_s, metrics_before) = self.op(|this| {
            let store = fresh_dir(&this.work.join("store"))?;
            let setup_started = Instant::now();
            let tier = this.start_tier(&store)?;
            let mut conn = Conn::connect(tier.addr)?;
            if traced {
                let tracer = this.tracer.get_or_insert_with(|| Tracer::new(w.queries.len()));
                tracer.begin_round(&this.work, w.compact_every, &tier.shards)?;
                this.traced_round = true;
                this.step_span = 0;
            }
            let mut sessions = Vec::with_capacity(w.slots);
            for _ in 0..w.slots {
                sessions.push(this.open(&mut conn)?);
            }
            let setup_s = setup_started.elapsed().saturating_sub(this.off_clock).as_secs_f64();
            let metrics_before = if traced { Some(this.metrics(&mut conn)?) } else { None };
            Ok((store, tier, conn, sessions, setup_s, metrics_before))
        })?;

        self.timed_requests = 0;
        self.off_clock = Duration::ZERO;
        self.in_timed_phase = true;
        let timed_started = Instant::now();
        let mut step_ms = Vec::with_capacity(STEPS);
        for i in 0..STEPS {
            let slot = i % w.slots;
            if traced {
                let tracer = self.tracer.as_mut().expect("tracer");
                self.step_span = tracer.new_span_id();
            }
            let step_started = Instant::now();
            let took = self.op(|this| {
                let took = this.step(&mut conn, &mut sessions, slot)?;
                if (i + 1) % CHECK_EVERY == 0 {
                    this.full_check(&mut conn, &mut sessions[slot])?;
                }
                Ok(took)
            })?;
            if traced {
                let span = self.step_span;
                self.tracer.as_mut().expect("tracer").record(
                    span,
                    0,
                    0,
                    "step".into(),
                    step_started,
                    Instant::now(),
                );
            }
            step_ms.push(took.as_secs_f64() * 1e3);
        }
        let timed_s = timed_started.elapsed().saturating_sub(self.off_clock).as_secs_f64();
        let timed_requests = self.timed_requests;
        self.in_timed_phase = false;
        self.traced_round = false;

        let rss_mib = self.op(|this| {
            if let Some(before) = metrics_before {
                let after = this.metrics(&mut conn)?;
                let tracer = this.tracer.as_mut().expect("tracer");
                let records = after.records - before.records;
                tracer.sample("obs.records_per_op", records as f64 / timed_requests.max(1) as f64);
                tracer.sample("fleet.forwards", (after.forwards - before.forwards) as f64);
                tracer.sample("fleet.retries", (after.retries - before.retries) as f64);
                tracer.end_round();
            }
            Ok(tier.peak_rss_mib())
        })?;

        if w.step != Step::Reads {
            self.attempted += 1;
            let miss = self.drift_check(&mut conn).inspect_err(|_| self.failed += 1)?;
            if let Some(miss) = miss {
                self.failed += 1;
                self.drift_check_miss.get_or_insert(miss);
            }
        }

        self.op(|this| {
            tier.shutdown(&mut conn)?;
            if traced {
                this.time_replay(&store)?;
            }
            Ok(())
        })?;

        let recovery_s = self.op(|this| {
            let recovery_s = this.recover(&store, &sessions)?;
            std::fs::remove_dir_all(&store).map_err(|e| e.to_string())?;
            Ok(recovery_s)
        })?;
        Ok(Round { setup_s, recovery_s, rss_mib, timed_s, timed_requests, step_ms })
    }

    /// Restart the tier over the round's store and time it until every
    /// live session is served again.  Each recovered session must hold the
    /// mirror's x-tuples and serve its last acknowledged quality; on a
    /// collapsed session, whose patches a recovery does not repeat with
    /// the same round-off, a miss of that quality is counted as drift.
    fn recover(&mut self, store: &Path, sessions: &[Session]) -> Result<f64, String> {
        let recovery_started = Instant::now();
        let tier = self.start_tier(store)?;
        let mut conn = Conn::connect(tier.addr)?;
        let live = match self.call(&mut conn, Request::Stats)? {
            Response::Stats(stats) => stats.sessions_live,
            other => return self.unexpected("stats", &other),
        };
        let recovery_s = recovery_started.elapsed().as_secs_f64();
        if live != sessions.len() as u64 {
            return Err(format!("{live} sessions recovered, {} were left open", sessions.len()));
        }
        for s in sessions {
            let report =
                match self.call(&mut conn, Request::Quality(SessionRef { session: s.id }))? {
                    Response::QualityReport(report) => report,
                    other => return self.unexpected("quality", &other),
                };
            oracle::check_aggregate(report.aggregate)?;
            if report.g.len() != s.x.len() {
                return Err(format!(
                    "session {} recovered with {} x-tuples, {} acknowledged",
                    s.id,
                    report.g.len(),
                    s.x.len()
                ));
            }
            let diff = (report.aggregate - s.aggregate).abs();
            self.recovery_drift = self.recovery_drift.max(diff);
            if s.collapsed {
                self.drift_checks += 1;
            }
            if diff > TOL {
                let miss = format!(
                    "session {} recovered at quality {}, acknowledged {}",
                    s.id, report.aggregate, s.aggregate
                );
                if !s.collapsed {
                    return Err(miss);
                }
                self.drift_misses += 1;
                self.first_drift_miss.get_or_insert(miss);
            }
        }
        tier.shutdown(&mut conn)?;
        Ok(recovery_s)
    }

    fn start_tier(&self, store: &Path) -> Result<Tier, String> {
        if self.workload.routed {
            Tier::fleet(store, self.workload.compact_every)
        } else {
            Tier::server(store, self.workload.compact_every)
        }
    }

    /// A `metrics` snapshot (not itself replayed through the layers).
    fn metrics(&mut self, conn: &mut Conn) -> Result<Counters, String> {
        let traced = std::mem::replace(&mut self.traced_round, false);
        let reply = self.call(conn, Request::Metrics);
        self.traced_round = traced;
        match reply? {
            Response::Metrics(reply) => {
                let mut c = Counters::default();
                for series in &reply.series {
                    // Every counter and histogram update is one record,
                    // except the rebuilt-row counter, whose value is a
                    // quantity of rows.
                    if series.kind != "gauge" && series.name != "engine_rebuilt_rows_total" {
                        c.records += series.value;
                    }
                    match series.name.as_str() {
                        "fleet_forward_latency_ns" => c.forwards += series.value,
                        "fleet_retries_total" => c.retries += series.value,
                        _ => {}
                    }
                }
                Ok(c)
            }
            other => self.unexpected("metrics", &other),
        }
    }

    /// `Store::open` on a copy of the round's store directories.
    fn time_replay(&mut self, store: &Path) -> Result<(), String> {
        let copy = fresh_dir(&self.work.join("replay-copy"))?;
        copy_dir(store, &copy)?;
        let roots: Vec<PathBuf> = if self.workload.routed {
            (0..SHARDS).map(|i| copy.join(format!("shard-{i}"))).collect()
        } else {
            vec![copy.clone()]
        };
        let mut total = 0.0;
        for root in roots {
            let started = Instant::now();
            let opened = pdb_store::Store::open(&root, true, &pdb_gen::spec::build_dataset);
            total += started.elapsed().as_secs_f64();
            drop(opened.map_err(|e| e.to_string())?);
        }
        self.tracer.as_mut().expect("tracer").sample("store.replay_s", total);
        std::fs::remove_dir_all(&copy).map_err(|e| e.to_string())
    }
}

#[derive(Default)]
struct Counters {
    records: u64,
    forwards: u64,
    retries: u64,
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}
