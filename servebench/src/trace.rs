//! The traced run: spans around the calls into each layer's public
//! functions, made from the benchmark's own code, and the per-layer
//! metrics derived from them.
//!
//! Every served exchange of a traced round is replayed through the
//! layers in process — the codec on the exchange's own lines, the same
//! request against an in-process store-backed `SessionManager`, the
//! engine, quality and cleaning calls on the benchmark's mirrors of each
//! session, and `Store::append` of the record the server journals — so
//! each layer's cost is timed where it happens, apart from the others.

use crate::net::{Conn, Exchange};
use crate::stats::{mean, quantile};
use pdb_clean::{best_single_probe, CleaningContext, CleaningSetup};
use pdb_engine::queries::TopKQuery;
use pdb_engine::BatchEvaluation;
use pdb_quality::{BatchQuality, WeightedQuery};
use pdb_server::protocol::{self, CreateSession, Request, Response};
use pdb_server::SessionManager;
use pdb_store::{FlushPolicy, Store, WalRecord};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Per-layer latency metrics, each reported as `_p50` and `_p99`; their
/// sample counts are context, printed beside them but not metrics.
pub const LATENCIES: &[&str] = &[
    "engine.psr_ms",
    "engine.delta_us",
    "engine.answers_us",
    "quality.refresh_us",
    "quality.report_us",
    "clean.recommend_us",
    "codec.encode_us",
    "codec.decode_us",
    "server.handler_us",
    "server.transport_us",
    "server.rtt_create_session_us",
    "server.rtt_register_query_us",
    "server.rtt_evaluate_us",
    "server.rtt_quality_us",
    "server.rtt_recommend_probe_us",
    "server.rtt_apply_probe_us",
    "server.rtt_apply_mutation_us",
    "server.rtt_drop_session_us",
    "store.append_us",
    "store.replay_s",
    "fleet.overhead_us",
];

/// Per-layer counts and ratios, as `(name, unit)`; each is the mean of
/// its samples.
pub const COUNTS: &[(&str, &str)] = &[
    ("engine.rows_rescaled", "count"),
    ("engine.rows_rebuilt", "count"),
    ("codec.bytes_per_op", "B"),
    ("store.records", "count"),
    ("store.compactions", "count"),
    ("fleet.forwards", "count"),
    ("fleet.retries", "count"),
    ("obs.records_per_op", "count"),
    ("trace.spans", "count"),
];

/// One recorded span.
struct Span {
    id: u64,
    parent: u64,
    request: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// The benchmark's mirrors of one session's evaluation.
struct Replica {
    eval: BatchEvaluation<'static>,
    quality: BatchQuality<'static>,
}

/// A session created but not yet carrying every query.
struct Pending {
    db: pdb_core::RankedDatabase,
    specs: Vec<WeightedQuery>,
}

/// The in-process layers a traced round replays exchanges through.
struct Layers {
    manager: SessionManager,
    append: Store,
    replicas: HashMap<u64, Replica>,
    pending: HashMap<u64, Pending>,
    /// Direct connections to each shard, for the router's overhead.
    direct: Vec<Conn>,
    ring: Option<pdb_fleet::HashRing>,
    records: u64,
    compactions: u64,
    /// Spans recorded before this round.
    first_span: usize,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u64,
    next_request: u64,
    samples: BTreeMap<&'static str, Vec<f64>>,
    layers: Option<Layers>,
    queries: usize,
    /// Time spent in in-process replays (excluded from the timed phase).
    pub replay_time: Duration,
}

impl Tracer {
    pub fn new(queries: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
            next_request: 1,
            samples: BTreeMap::new(),
            layers: None,
            queries,
            replay_time: Duration::ZERO,
        }
    }

    /// Set up the in-process layers for one traced round.
    pub fn begin_round(
        &mut self,
        work: &Path,
        compact_every: u64,
        shards: &[(u32, std::net::SocketAddr)],
    ) -> Result<(), String> {
        let handler_dir = fresh_dir(&work.join("trace-handler"))?;
        let append_dir = fresh_dir(&work.join("trace-append"))?;
        let build = pdb_gen::spec::build_dataset;
        let (store, recovery) =
            Store::open_with_policy(&handler_dir, FlushPolicy::PerRecord, &build)
                .map_err(|e| e.to_string())?;
        let manager =
            SessionManager::with_store(8, std::sync::Arc::new(store), recovery, compact_every);
        let (append, _) = Store::open(&append_dir, true, &build).map_err(|e| e.to_string())?;
        let direct =
            shards.iter().map(|&(_, addr)| Conn::connect(addr)).collect::<Result<_, _>>()?;
        let ring =
            (!shards.is_empty()).then(|| pdb_fleet::HashRing::with_default_replicas(shards.len()));
        self.layers = Some(Layers {
            manager,
            append,
            replicas: HashMap::new(),
            pending: HashMap::new(),
            direct,
            ring,
            records: 0,
            compactions: 0,
            first_span: self.spans.len(),
        });
        Ok(())
    }

    /// Close the round's in-process layers (and the direct shard
    /// connections, which would otherwise hold shard workers).
    pub fn end_round(&mut self) {
        if let Some(layers) = self.layers.take() {
            self.sample("store.records", layers.records as f64);
            self.sample("store.compactions", layers.compactions as f64);
            self.sample("trace.spans", (self.spans.len() - layers.first_span) as f64);
        }
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn new_span_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span whose id was allocated beforehand.
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        request: u64,
        name: String,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { id, parent, request, name, start_ns, end_ns });
    }

    /// Time `f` as a span named `name` under `parent`.
    fn timed<T>(
        &mut self,
        parent: u64,
        request: u64,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.new_span_id();
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        self.record(id, parent, request, name.to_string(), start, end);
        (out, end - start)
    }

    /// Replay one served exchange through the in-process layers.
    pub fn exchange(
        &mut self,
        parent: u64,
        request: &Request,
        ex: &Exchange,
    ) -> Result<(), String> {
        let replay_start = Instant::now();
        let result = self.replay(parent, request, ex);
        self.replay_time += replay_start.elapsed();
        result
    }

    fn replay(&mut self, parent: u64, request: &Request, ex: &Exchange) -> Result<(), String> {
        let req_id = self.next_request;
        self.next_request += 1;
        let verb = request.verb();
        let rtt_id = self.new_span_id();
        self.record(rtt_id, parent, req_id, format!("rtt.{verb}"), ex.start, ex.start + ex.rtt);
        let rtt_us = ex.rtt.as_secs_f64() * 1e6;
        self.sample(rtt_metric(verb), rtt_us);

        // Codec: all four passes a direct request costs, on its own lines.
        let (_, encode) = self.timed(rtt_id, req_id, "protocol::encode", || {
            (protocol::encode(request), protocol::encode(&ex.response))
        });
        let (_, decode) = self.timed(rtt_id, req_id, "protocol::decode", || {
            (
                protocol::decode_request(&ex.request_line),
                protocol::decode_response(&ex.response_line),
            )
        });
        self.sample("codec.encode_us", encode.as_secs_f64() * 1e6);
        self.sample("codec.decode_us", decode.as_secs_f64() * 1e6);
        self.sample(
            "codec.bytes_per_op",
            (ex.request_line.len() + ex.response_line.len() + 2) as f64,
        );

        let mut layers = self.layers.take().ok_or("traced exchange outside a traced round")?;
        let result = self.replay_layers(&mut layers, rtt_id, req_id, request, ex, encode + decode);
        self.layers = Some(layers);
        result
    }

    fn replay_layers(
        &mut self,
        layers: &mut Layers,
        rtt_id: u64,
        req_id: u64,
        request: &Request,
        ex: &Exchange,
        codec: Duration,
    ) -> Result<(), String> {
        // The same request against an in-process, store-backed manager.
        let mut pinned = request.clone();
        if let (Request::CreateSession(req), Response::SessionCreated(created)) =
            (&mut pinned, &ex.response)
        {
            req.session = Some(created.session);
        }
        let manager = &layers.manager;
        let (handled, handler) =
            self.timed(rtt_id, req_id, "SessionManager", || handle(manager, &pinned));
        handled?;
        // A server runs the compaction a mutation trips on a thread of
        // its own, off the request's time.
        if matches!(request, Request::ApplyMutation(_) | Request::ApplyProbe(_))
            && manager.maybe_compact().map_err(|e| e.to_string())?.is_some()
        {
            layers.compactions += 1;
        }
        self.sample("server.handler_us", handler.as_secs_f64() * 1e6);
        let transport = ex.rtt.saturating_sub(handler + codec);
        self.sample("server.transport_us", transport.as_secs_f64() * 1e6);

        // The record the server journals, appended to a store of its own.
        if let Some(record) = wal_record(&pinned) {
            let append = &layers.append;
            let (appended, took) =
                self.timed(rtt_id, req_id, "Store::append", || append.append(&record));
            appended.map_err(|e| e.to_string())?;
            self.sample("store.append_us", took.as_secs_f64() * 1e6);
            layers.records += 1;
        }

        match (&pinned, &ex.response) {
            (Request::CreateSession(req), Response::SessionCreated(created)) => {
                let db = pdb_gen::spec::build_dataset(&req.dataset).map_err(|e| e.to_string())?;
                layers.pending.insert(created.session, Pending { db, specs: Vec::new() });
            }
            (Request::RegisterQuery(req), _) => {
                let pending = layers
                    .pending
                    .get_mut(&req.session)
                    .ok_or("register for an unknown session")?;
                pending.specs.push(WeightedQuery::weighted(req.query, req.weight));
                if pending.specs.len() == self.queries {
                    let Pending { db, specs } =
                        layers.pending.remove(&req.session).expect("present");
                    let queries: Vec<TopKQuery> = specs.iter().map(|s| s.query).collect();
                    let db2 = db.clone();
                    let (eval, psr) =
                        self.timed(rtt_id, req_id, "BatchEvaluation::from_owned", || {
                            BatchEvaluation::from_owned(db2, queries)
                        });
                    self.sample("engine.psr_ms", psr.as_secs_f64() * 1e3);
                    let eval = eval.map_err(|e| e.to_string())?;
                    let quality = BatchQuality::from_owned(db, specs).map_err(|e| e.to_string())?;
                    layers.replicas.insert(req.session, Replica { eval, quality });
                }
            }
            (Request::Evaluate(req), _) => {
                let replica =
                    layers.replicas.get(&req.session).ok_or("evaluate on an unknown replica")?;
                let (_, took) = self
                    .timed(rtt_id, req_id, "BatchEvaluation::answers", || replica.eval.answers());
                self.sample("engine.answers_us", took.as_secs_f64() * 1e6);
            }
            (Request::Quality(req), _) => {
                let replica =
                    layers.replicas.get(&req.session).ok_or("quality on an unknown replica")?;
                let (_, took) = self.timed(rtt_id, req_id, "BatchQuality::report", || {
                    (replica.quality.quality_vector(), replica.quality.aggregate_breakdown())
                });
                self.sample("quality.report_us", took.as_secs_f64() * 1e6);
            }
            (Request::RecommendProbe(req), _) => {
                let replica =
                    layers.replicas.get(&req.session).ok_or("recommend on an unknown replica")?;
                let x_tuples = replica.quality.database().num_x_tuples();
                let (_, took) = self.timed(rtt_id, req_id, "best_single_probe", || {
                    let ctx = CleaningContext::from_batch(&replica.quality);
                    let setup = CleaningSetup::uniform(x_tuples, 1, crate::workload::PROBE_SUCCESS);
                    setup.map(|setup| best_single_probe(&ctx, &setup))
                });
                self.sample("clean.recommend_us", took.as_secs_f64() * 1e6);
            }
            (
                Request::ApplyMutation(req) | Request::ApplyProbe(req),
                Response::ProbeApplied(applied),
            ) => {
                let replica = layers
                    .replicas
                    .get_mut(&req.session)
                    .ok_or("mutation on an unknown replica")?;
                let (patched, delta) =
                    self.timed(rtt_id, req_id, "BatchEvaluation::apply_collapse_in_place", || {
                        replica.eval.apply_collapse_in_place(req.x_tuple, &req.mutation)
                    });
                patched.map_err(|e| e.to_string())?;
                let (refreshed, whole) =
                    self.timed(rtt_id, req_id, "BatchQuality::apply_collapse_in_place", || {
                        replica.quality.apply_collapse_in_place(req.x_tuple, &req.mutation)
                    });
                refreshed.map_err(|e| e.to_string())?;
                self.sample("engine.delta_us", delta.as_secs_f64() * 1e6);
                self.sample("quality.refresh_us", whole.saturating_sub(delta).as_secs_f64() * 1e6);
                let stats = applied.update.stats;
                self.sample("engine.rows_rescaled", stats.rows_rescaled as f64);
                self.sample("engine.rows_rebuilt", stats.rows_rebuilt as f64);
            }
            (Request::DropSession(req), _) => {
                layers.replicas.remove(&req.session);
            }
            _ => {}
        }

        // Through a router: the same read sent straight to its shard.
        if let (Some(ring), Some(session)) = (&layers.ring, read_session(request)) {
            let shard = ring.shard_for(session).ok_or("empty ring")?;
            let conn = layers.direct.get_mut(shard).ok_or("no direct connection")?;
            let (direct, _) = self.timed(rtt_id, req_id, "direct.rtt", || conn.call(request));
            let direct = direct?;
            let overhead = ex.rtt.as_secs_f64() - direct.rtt.as_secs_f64();
            self.sample("fleet.overhead_us", overhead * 1e6);
        }
        Ok(())
    }

    /// Write the spans as JSON lines and return each span name's total
    /// self time (its duration minus what its children cover), largest
    /// first.
    pub fn finish(&mut self, path: &Path) -> Result<Vec<(String, f64)>, String> {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))?;
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
        let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
        for s in &self.spans {
            let covered = children.get(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            *totals.entry(&s.name).or_default() +=
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e9;
        }
        let mut totals: Vec<(String, f64)> =
            totals.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        totals.sort_by(|a, b| b.1.total_cmp(&a.1));
        Ok(totals)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// How many samples each latency metric was taken over.
    pub fn sample_counts(&self) -> Vec<(&'static str, usize)> {
        LATENCIES.iter().map(|&name| (name, self.samples.get(name).map_or(0, Vec::len))).collect()
    }

    /// Every per-layer metric as `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let empty = Vec::new();
        let mut out = Vec::new();
        for &name in LATENCIES {
            let samples = self.samples.get(name).unwrap_or(&empty);
            let unit = name.rsplit('_').next().expect("unit suffix");
            out.push((format!("{name}_p50"), quantile(samples, 0.5), unit));
            out.push((format!("{name}_p99"), quantile(samples, 0.99), unit));
        }
        for &(name, unit) in COUNTS {
            out.push((name.to_string(), mean(self.samples.get(name).unwrap_or(&empty)), unit));
        }
        out
    }
}

fn rtt_metric(verb: &str) -> &'static str {
    match verb {
        "create_session" => "server.rtt_create_session_us",
        "register_query" => "server.rtt_register_query_us",
        "evaluate" => "server.rtt_evaluate_us",
        "quality" => "server.rtt_quality_us",
        "recommend_probe" => "server.rtt_recommend_probe_us",
        "apply_probe" => "server.rtt_apply_probe_us",
        "apply_mutation" => "server.rtt_apply_mutation_us",
        "drop_session" => "server.rtt_drop_session_us",
        _ => "server.rtt_other_us",
    }
}

/// The session of a read-only request (safe to send twice).
fn read_session(request: &Request) -> Option<u64> {
    match request {
        Request::Evaluate(r) | Request::Quality(r) | Request::RecommendProbe(r) => Some(r.session),
        _ => None,
    }
}

/// The same dispatch a server worker performs, minus the socket.
fn handle(manager: &SessionManager, request: &Request) -> Result<(), String> {
    let done = match request {
        Request::CreateSession(req) => manager.create(req).map(drop),
        Request::RegisterQuery(req) => manager.register_query(req).map(drop),
        Request::Evaluate(req) => manager.with_session(req.session, |s| s.evaluate()).map(drop),
        Request::Quality(req) => manager.with_session(req.session, |s| s.quality()).map(drop),
        Request::RecommendProbe(req) => {
            manager.with_session(req.session, |s| s.recommend_probe()).map(drop)
        }
        Request::ApplyMutation(req) | Request::ApplyProbe(req) => {
            manager.apply_mutation(req).map(drop)
        }
        Request::DropSession(req) => manager.drop_session(req.session).map(drop),
        _ => Ok(()),
    };
    done.map_err(|e| format!("in-process {}: {e}", request.verb()))
}

/// The write-ahead-log record a store-backed server appends for a
/// request (sessions already pinned).
fn wal_record(request: &Request) -> Option<WalRecord> {
    match request {
        Request::CreateSession(CreateSession { dataset, probe_cost, probe_success, session }) => {
            Some(WalRecord::CreateSession {
                session: (*session)?,
                dataset: dataset.clone(),
                probe_cost: *probe_cost,
                probe_success: *probe_success,
            })
        }
        Request::RegisterQuery(r) => {
            Some(WalRecord::RegisterQuery { session: r.session, query: r.query, weight: r.weight })
        }
        Request::ApplyMutation(r) | Request::ApplyProbe(r) => Some(WalRecord::ApplyMutation {
            session: r.session,
            x_tuple: r.x_tuple,
            mutation: r.mutation.clone(),
        }),
        Request::DropSession(r) => Some(WalRecord::DropSession { session: r.session }),
        _ => None,
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(intervals: &[(u64, u64)], start: u64, end: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> =
        intervals.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|(s, e)| s < e).collect();
    clipped.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// An empty directory at `path` (removing what was there).
pub fn fresh_dir(path: &Path) -> Result<PathBuf, String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(|e| format!("clearing {}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    Ok(path.to_path_buf())
}
