//! The two served workloads: `serve_step` (one evaluation per step, an
//! empty queue) and `serve_resident` (many sessions, deep queue, eviction
//! and the shared evaluation cache). Each round starts a fresh service
//! and TCP frontend, so every round computes the same histories.

use crate::settle::{SessionInput, Settled, Tally};
use crate::stats::Bag;
use crate::{mix, Round};
use relm_faults::FaultConfig;
use relm_obs::{FieldValue, Obs, SpanRecord};
use relm_serve::{
    decode, encode, resolve_workload, Request, Response, ServeConfig, Service, SessionSpec,
    TcpClient, TcpServer, DEFAULT_MAX_FRAME_BYTES,
};
use relm_tune::Observation;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const APPS: [&str; 5] = ["WordCount", "SortByKey", "K-means", "SVM", "PageRank"];
/// Fault rate of the seeded plans every third distinct spec runs under.
const FAULT_RATE: f64 = 0.08;
/// Idle window, in service-wide completions, before a session is
/// checkpointed out in `serve_resident`.
const EVICT_WINDOW: usize = 192;
/// Endpoints the clients call, in the order the ledger reports them.
pub const ENDPOINTS: [&str; 4] = ["create_session", "step_auto", "join", "result"];

/// The size and mode of one served round.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Sessions per round, across both clients.
    pub sessions: usize,
    /// `StepAuto` requests per session.
    pub steps: usize,
    /// Evaluations per `StepAuto`.
    pub evals: u32,
    /// Deep-queue mode: submit to every session before joining any, with
    /// eviction on and every spec present twice behind the shared cache.
    pub resident: bool,
}

impl Shape {
    pub fn step(sessions: usize, steps: usize) -> Self {
        Shape {
            sessions,
            steps,
            evals: 1,
            resident: false,
        }
    }

    pub fn resident(sessions: usize, steps: usize, evals: u32) -> Self {
        Shape {
            sessions,
            steps,
            evals,
            resident: true,
        }
    }

    /// Distinct specs: each appears twice in resident mode.
    fn distinct(&self) -> usize {
        if self.resident {
            self.sessions / 2
        } else {
            self.sessions
        }
    }

    pub fn evals(&self) -> u64 {
        (self.sessions * self.steps) as u64 * u64::from(self.evals)
    }

    fn spec(&self, seed: u64, i: usize) -> (SessionSpec, SessionInput) {
        let u = (i % self.distinct()) as u64;
        let workload = APPS[(u % 5) as usize];
        let base_seed = mix(seed, u);
        let mut spec = SessionSpec::named(workload, base_seed);
        let mut faults = None;
        if u.is_multiple_of(3) {
            let plan = (mix(seed ^ 0xFA17, u), FaultConfig::uniform(FAULT_RATE));
            spec = spec.with_faults(plan.0, plan.1);
            faults = Some(plan);
        }
        if self.resident {
            spec = spec.with_cache();
        }
        let app = resolve_workload(workload).expect("suite workload resolves");
        let input = SessionInput {
            app,
            base_seed,
            faults,
        };
        (spec, input)
    }
}

/// One client's view of its round.
#[derive(Default)]
struct ClientOut {
    tally: Tally,
    steps_ms: Vec<f64>,
    /// Spec index, its input, settled history and stress time.
    settled: Vec<(usize, SessionInput, Vec<Observation>, f64)>,
    /// Traced rounds only: every request and its reply, for codec timing.
    frames: Vec<(Request, Response)>,
    /// Traced rounds only: resident sessions when the last batch settled.
    resident: Vec<f64>,
}

struct Client<'a> {
    conn: TcpClient,
    obs: &'a Obs,
    out: ClientOut,
}

impl Client<'_> {
    /// One request under a benchmark span; any reply other than the
    /// `expected` kind counts as a failure.
    fn call(&mut self, request: Request, expected: &str) -> Option<Response> {
        self.out.tally.attempted += 1;
        let reply = {
            let mut span = self.obs.span("bench.request");
            span.set("endpoint", request.endpoint());
            if let Some(session) = request.session() {
                span.set("session", session);
            }
            self.conn.request(&request)
        };
        match reply {
            Ok(response) if response.label() == expected => {
                if self.obs.is_enabled() {
                    self.out.frames.push((request, response.clone()));
                }
                Some(response)
            }
            Ok(Response::Overloaded { reason, .. }) => {
                self.out.tally.overloaded += 1;
                self.out.tally.note(format!("overloaded: {reason}"));
                None
            }
            Ok(other) => {
                self.out.tally.protocol += 1;
                self.out
                    .tally
                    .note(format!("{}: unexpected {other:?}", request.endpoint()));
                None
            }
            Err(e) => {
                self.out.tally.protocol += 1;
                self.out.tally.note(format!("{}: {e}", request.endpoint()));
                None
            }
        }
    }
}

fn run_client(
    addr: SocketAddr,
    shape: Shape,
    mine: Vec<(usize, SessionSpec, SessionInput)>,
    obs: &Obs,
) -> ClientOut {
    let conn = match TcpClient::connect(addr) {
        Ok(conn) => conn,
        Err(e) => {
            let mut out = ClientOut::default();
            out.tally.attempted += 1;
            out.tally.protocol += 1;
            out.tally.note(format!("connect: {e}"));
            return out;
        }
    };
    let mut c = Client {
        conn,
        obs,
        out: ClientOut::default(),
    };
    let mut sessions = Vec::new();
    for (i, spec, input) in mine {
        if let Some(Response::SessionCreated { session }) =
            c.call(Request::CreateSession { spec }, "session_created")
        {
            sessions.push((i, session, input));
        }
    }
    let step = |session: &str| Request::StepAuto {
        session: session.to_string(),
        evals: shape.evals,
    };
    let join = |session: &str| Request::Join {
        session: session.to_string(),
    };
    let mut stress_ms = vec![0.0; sessions.len()];
    for _ in 0..shape.steps {
        if shape.resident {
            // Submit to every session before joining any: the global
            // queue holds the whole batch.
            let mut sent = Vec::with_capacity(sessions.len());
            for (_, name, _) in &sessions {
                sent.push(Instant::now());
                c.call(step(name), "accepted");
            }
            for (k, (_, name, _)) in sessions.iter().enumerate() {
                if let Some(Response::Status(status)) = c.call(join(name), "status") {
                    c.out.steps_ms.push(sent[k].elapsed().as_secs_f64() * 1e3);
                    stress_ms[k] = status.stress_time_ms;
                }
            }
        } else {
            for (k, (_, name, _)) in sessions.iter().enumerate() {
                let sent = Instant::now();
                if c.call(step(name), "accepted").is_none() {
                    continue;
                }
                if let Some(Response::Status(status)) = c.call(join(name), "status") {
                    c.out.steps_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                    stress_ms[k] = status.stress_time_ms;
                }
            }
        }
    }
    if obs.is_enabled() {
        // Registered sessions minus those checkpointed out, once this
        // client's last batch settled (`Result` resumes the rest).
        let evicted = obs.counter_value("serve.evictions") - obs.counter_value("serve.resumes");
        let registered = obs
            .metrics_snapshot()
            .gauges
            .iter()
            .find(|(n, _)| n == "serve.sessions.active")
            .map_or(0.0, |(_, v)| *v);
        c.out.resident.push(registered - evicted);
    }
    for (k, (i, name, input)) in sessions.into_iter().enumerate() {
        let request = Request::Result {
            session: name.clone(),
        };
        if let Some(Response::ResultReady { history, .. }) = c.call(request, "result_ready") {
            c.out.settled.push((i, input, history, stress_ms[k]));
        }
    }
    c.out
}

/// Runs one round on a fresh service and frontend. `obs` is the
/// service's handle: disabled for the end-to-end numbers, enabled (and
/// analysed into the round's ledger) for the traced run.
pub fn round(seed: u64, shape: Shape, workers: usize, scratch: &Path, obs: Obs) -> Round {
    let started = Instant::now();
    let evict_dir = scratch.join("evict");
    let config = ServeConfig {
        workers,
        max_sessions: shape.sessions.max(64),
        session_queue_limit: (shape.evals as usize).max(32),
        // Admission must never push back: the whole round fits in the
        // normal class's share of the global bound.
        global_queue_limit: 2 * shape.sessions * shape.evals as usize + 64,
        evict_after_evals: if shape.resident { EVICT_WINDOW } else { 0 },
        evict_dir: shape.resident.then(|| evict_dir.clone()),
        conn_idle_timeout: Some(Duration::from_secs(120)),
        ..ServeConfig::default()
    };
    let service = Arc::new(Service::start(config, obs.clone()));
    let mut round = Round::default();
    let mut server = match TcpServer::start(Arc::clone(&service), "127.0.0.1:0") {
        Ok(server) => server,
        Err(e) => {
            round.tally.attempted += 1;
            round.tally.protocol += 1;
            round.tally.note(format!("bind: {e}"));
            return round;
        }
    };
    let addr = server.addr();
    let mut per_client: Vec<Vec<(usize, SessionSpec, SessionInput)>> = vec![Vec::new(); 2];
    for i in 0..shape.sessions {
        let (spec, input) = shape.spec(seed, i);
        per_client[i % 2].push((i, spec, input));
    }
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_client
            .into_iter()
            .map(|mine| scope.spawn(|| run_client(addr, shape, mine, &obs)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut out = ClientOut::default();
                    out.tally.attempted += 1;
                    out.tally.panics += 1;
                    out.tally.note("client panicked".into());
                    out
                })
            })
            .collect()
    });
    round.wall_s = started.elapsed().as_secs_f64();
    server.stop();
    drop(server);
    drop(service);
    std::fs::remove_dir_all(&evict_dir).ok();

    let mut settled = Vec::new();
    let mut frames = Vec::new();
    for out in outs {
        round.tally.merge(out.tally);
        round.steps_ms.extend(out.steps_ms);
        settled.extend(out.settled);
        frames.extend(out.frames);
        for r in out.resident {
            round.bag.push("sessions_resident", r);
        }
    }
    settled.sort_by_key(|(i, ..)| *i);
    round.settled = settled
        .into_iter()
        .map(|(i, input, history, stress_ms)| {
            Settled::new(format!("serve#{i}"), None, input, history, stress_ms)
        })
        .collect();
    round.evals = round.settled.iter().map(|s| s.history.len() as u64).sum();
    if round.evals != shape.evals() {
        round.tally.protocol += 1;
        round.tally.note(format!(
            "round settled {} of {} evaluations",
            round.evals,
            shape.evals()
        ));
    }
    if shape.resident {
        // Each duplicate-spec pair must agree: whichever member replayed
        // from the cache computed what the other ran live.
        let half = shape.distinct();
        for i in 0..half {
            if let (Some(a), Some(b)) = (round.settled.get(i), round.settled.get(i + half)) {
                round
                    .tally
                    .check_digest(&format!("{} vs {}", a.key, b.key), a.digest, b.digest);
            }
        }
    }
    if obs.is_enabled() {
        analyse(&obs, &frames, &mut round.bag);
    }
    round
}

fn field<'a>(span: &'a SpanRecord, key: &str) -> Option<&'a str> {
    span.fields.iter().find_map(|(k, v)| match v {
        FieldValue::Str(s) if k == key => Some(s.as_str()),
        _ => None,
    })
}

/// Books a traced round into its ledger: benchmark request spans, the
/// service's own spans, histograms and counters, and codec timings taken
/// on the round's actual frames.
fn analyse(obs: &Obs, frames: &[(Request, Response)], bag: &mut Bag) {
    let snapshot = obs.snapshot();
    // Per-session join handler, queue-wait and evaluation spans, to find
    // how long each join sat blocked on its evaluation and how much of
    // the evaluation ran before the join arrived.
    let mut per_session: BTreeMap<&str, [Vec<&SpanRecord>; 3]> = BTreeMap::new();
    for span in &snapshot.spans {
        let ms = span.duration_ms();
        let slot = match span.name.as_str() {
            "bench.request" => {
                let endpoint = field(span, "endpoint").unwrap_or("?");
                bag.add(&format!("rtt_ms.{endpoint}"), ms);
                bag.add(&format!("rtt_n.{endpoint}"), 1.0);
                continue;
            }
            "serve.request" if field(span, "endpoint") == Some("join") => 0,
            "serve.queue_wait" => {
                bag.push("queue_wait_ms", ms);
                1
            }
            "serve.evaluate" => 2,
            "engine.run" => {
                bag.add("engine_run_ms", ms);
                bag.add("engine_run_n", 1.0);
                continue;
            }
            _ => continue,
        };
        if let Some(session) = field(span, "session") {
            per_session.entry(session).or_default()[slot].push(span);
        }
    }
    for [joins, waits, evals] in per_session.values_mut() {
        for list in [&mut *joins, &mut *waits, &mut *evals] {
            list.sort_by_key(|s| s.start_us);
        }
        for join in joins.iter() {
            // The join waits for the last evaluation admitted before it.
            let last = evals.iter().rev().find(|e| e.start_us <= join.end_us);
            let wait_us = last.map_or(0, |e| {
                e.end_us.clamp(join.start_us, join.end_us) - join.start_us
            });
            bag.add("join_wait_ms", wait_us as f64 / 1e3);
        }
        // One evaluation per step: the part of its queue wait and
        // evaluation that ran before its join arrived overlapped the
        // client's turnaround, off the blocking path.
        if joins.len() == evals.len() && waits.len() == evals.len() {
            for ((join, wait), eval) in joins.iter().zip(waits.iter()).zip(evals.iter()) {
                let hidden = join.start_us.clamp(wait.start_us, eval.end_us) - wait.start_us;
                bag.add("eval_hidden_ms", hidden as f64 / 1e3);
            }
        }
    }
    for h in &snapshot.histograms {
        if let Some(endpoint) = h
            .name
            .strip_prefix("serve.endpoint.")
            .and_then(|n| n.strip_suffix("_ms"))
        {
            bag.add(&format!("handler_ms.{endpoint}"), h.sum);
            bag.add(&format!("handler_n.{endpoint}"), h.count as f64);
        }
        match h.name.as_str() {
            "engine.run_ms" => bag.add("sim_run_ms", h.sum),
            "engine.gc_ms" => bag.add("sim_gc_ms", h.sum),
            _ => {}
        }
    }
    for (name, value) in &snapshot.counters {
        if matches!(
            name.as_str(),
            "engine.runs"
                | "engine.aborts"
                | "serve.evaluations"
                | "serve.evictions"
                | "serve.resumes"
                | "serve.rejected.overloaded"
                | "serve.requests.step_auto"
                | "evalcache.hits"
                | "evalcache.misses"
        ) {
            bag.add(name, *value);
        }
    }
    for (request, response) in frames {
        let started = Instant::now();
        let req_line = encode(request);
        let req_back: Result<Request, _> = decode(&req_line, DEFAULT_MAX_FRAME_BYTES);
        let resp_line = encode(response);
        let resp_back: Result<Response, _> = decode(&resp_line, DEFAULT_MAX_FRAME_BYTES);
        let us = started.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box((req_back.is_ok(), resp_back.is_ok()));
        bag.add("codec_us", us);
        bag.add("codec_n", 1.0);
        bag.add("frame_bytes", (req_line.len() + resp_line.len() + 2) as f64);
    }
}
