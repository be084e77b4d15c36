//! The repository benchmark: three workloads over the RelM tuning stack,
//! end-to-end metrics from an untraced run and a per-crate ledger from a
//! traced one. See `README.md` in this directory for the metric catalog.
//!
//! ```text
//! relmbench --workload <serve_step|serve_resident|tune_converge>
//!           --seed N --seconds N --trace <0|1>
//! relmbench --reconcile-only
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The line before it is
//! the run record (machine, threads, seed, samples, digest). A failed
//! output check exits with code 1 after printing the result.

mod serve;
mod settle;
mod stats;
mod tune;

use settle::{replay, Settled, Tally};
use stats::{iqr_share, mean, median, quantile, ratio, trimmed_mean, Bag};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Session seeds (five applications each) of the tuner probe the serve
/// workloads report `converge_ms.*` from.
const PROBE_SEEDS: usize = 10;
/// The probe's seed. It is the same for every run seed: a probe of 50
/// sessions per tuner cannot average out how much session length varies
/// from seed to seed (the stopping rules), so a seeded probe would bury a
/// change in tuner cost under input variance.
const PROBE_SEED: u64 = 0x5EED_7E57;
/// Client threads and serve workers, each capped at the machine's
/// parallelism.
const THREADS: usize = 2;
/// BO/GBO scoring threads. Results are bit-identical at any count; one
/// keeps a session's timing off the second core, which other tenants of a
/// small shared machine may hold.
const SCORING_THREADS: usize = 1;
/// Worst-case spans one served evaluation records: queue wait, serve
/// evaluate, and an env-evaluate plus engine-run pair for each of up to
/// five attempts (four retries).
const SPANS_PER_EVAL: usize = 12;
/// Spans per request: the benchmark's own plus the service's.
const SPANS_PER_REQUEST: usize = 2;
/// The reconciliation rules' tolerance.
const RECONCILE_TOLERANCE: f64 = 0.10;

/// What one round produced.
#[derive(Debug, Default)]
pub struct Round {
    pub wall_s: f64,
    pub evals: u64,
    /// Host time of one tuning step, one sample per step.
    pub steps_ms: Vec<f64>,
    /// Settled sessions, in a fixed order.
    pub settled: Vec<Settled>,
    /// `tune_converge` only: (tuner, host wall ms) per session.
    pub converge: Vec<(usize, f64)>,
    pub tally: Tally,
    /// Traced rounds only: the raw ledger.
    pub bag: Bag,
}

/// SplitMix64 of `seed` and `i`: the per-session seeds.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    ServeStep,
    ServeResident,
    TuneConverge,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ServeStep,
        Workload::ServeResident,
        Workload::TuneConverge,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ServeStep => "serve_step",
            Workload::ServeResident => "serve_resident",
            Workload::TuneConverge => "tune_converge",
        }
    }

    /// The fixed percentile `step_ms.tail` reports: the highest with at
    /// least ten samples beyond it in every run whose run-to-run spread
    /// stayed near the p50's in trial runs (p95 and p99 of `serve_step`
    /// did not).
    fn tail_q(self) -> f64 {
        match self {
            Workload::ServeStep => 0.90,
            Workload::ServeResident => 0.99,
            Workload::TuneConverge => 0.95,
        }
    }
}

/// Sizes of one round, full or for the reconcile-only self-test.
#[derive(Debug, Clone, Copy)]
struct Plan {
    workload: Workload,
    seed: u64,
    /// The served round's shape; `None` for `tune_converge`.
    shape: Option<serve::Shape>,
    /// Rounds the simulated metrics cover: the set-up round and the first
    /// measured ones. An untraced run measures at least that many.
    sim_rounds: usize,
    threads: usize,
}

impl Plan {
    fn new(workload: Workload, seed: u64, tiny: bool) -> Self {
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(THREADS);
        let (shape, sim_rounds) = match (workload, tiny) {
            (Workload::ServeStep, false) => (Some(serve::Shape::step(16, 6)), 64),
            (Workload::ServeStep, true) => (Some(serve::Shape::step(8, 4)), 1),
            (Workload::ServeResident, false) => (Some(serve::Shape::resident(256, 2, 2)), 12),
            (Workload::ServeResident, true) => (Some(serve::Shape::resident(64, 2, 2)), 1),
            (Workload::TuneConverge, _) => (None, if tiny { 1 } else { 32 }),
        };
        Plan {
            workload,
            seed,
            shape,
            sim_rounds,
            threads,
        }
    }

    /// Round `r` of the run; its inputs derive from the run seed and `r`.
    fn round(&self, scratch: &Path, r: u64, traced: bool) -> Round {
        let seed = mix(self.seed, r);
        match self.shape {
            Some(shape) => {
                let obs = if traced {
                    let requests = shape.sessions * (2 + 2 * shape.steps);
                    relm_obs::Obs::with_capacity(
                        SPANS_PER_EVAL * shape.evals() as usize + SPANS_PER_REQUEST * requests,
                    )
                } else {
                    relm_obs::Obs::disabled()
                };
                serve::round(seed, shape, self.threads, scratch, obs)
            }
            None => tune::round(seed, SCORING_THREADS, traced),
        }
    }

    /// Sessions whose histories are distinct (resident mode runs each
    /// spec twice).
    fn distinct<'a>(&self, round: &'a Round) -> &'a [Settled] {
        match self.workload {
            Workload::ServeResident => &round.settled[..round.settled.len() / 2],
            _ => &round.settled,
        }
    }
}

/// Counts one round's digests against the reference round's.
fn check_round(reference: &Round, round: &Round, what: &str, tally: &mut Tally) {
    tally.attempted += 1;
    if reference.settled.len() != round.settled.len() {
        tally.digest += 1;
        tally.note(format!(
            "{what}: {} sessions settled, reference has {}",
            round.settled.len(),
            reference.settled.len()
        ));
    }
    for (a, b) in reference.settled.iter().zip(&round.settled) {
        tally.check_digest(&format!("{what} {}", a.key), a.digest, b.digest);
    }
}

/// Replays the reference round's distinct sessions through fresh
/// environments; with `traced`, books evaluate and checkpoint costs.
fn replay_all(
    plan: &Plan,
    reference: &Round,
    scratch: &Path,
    traced: bool,
    tally: &mut Tally,
) -> Bag {
    let mut bag = Bag::default();
    for settled in plan.distinct(reference) {
        let obs = if traced {
            relm_obs::Obs::with_capacity(SPANS_PER_EVAL * (settled.history.len() + 1))
        } else {
            relm_obs::Obs::disabled()
        };
        replay(settled, &obs, scratch, tally, &mut bag);
    }
    bag
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Simulated stress minutes per round and mean best score per session,
/// over a fixed set of rounds: deterministic for a seed.
fn simulated(rounds: &[&Round]) -> (f64, f64) {
    let stress_ms: f64 = rounds
        .iter()
        .flat_map(|r| &r.settled)
        .map(|s| s.stress_ms)
        .sum();
    let best: Vec<f64> = rounds
        .iter()
        .flat_map(|r| &r.settled)
        .map(Settled::best_mins)
        .collect();
    (stress_ms / 60_000.0 / rounds.len() as f64, mean(&best))
}

/// Per tuner, the typical session wall time: the mean of the middle 80%
/// of sessions. As robust to stalls as a median, and steadier: a median
/// jumps between the modes the stopping rules leave in session length.
fn converge_typical(rounds: &[Round]) -> [f64; 4] {
    std::array::from_fn(|p| {
        let times: Vec<f64> = rounds
            .iter()
            .flat_map(|r| &r.converge)
            .filter(|(pp, _)| *pp == p)
            .map(|(_, ms)| *ms)
            .collect();
        trimmed_mean(&times, 0.1)
    })
}

/// The end-to-end metrics, from untraced rounds only.
fn end_to_end(
    plan: &Plan,
    setups: &[f64],
    sim: &[&Round],
    rounds: &[Round],
    probe: &[Round],
    tally: &Tally,
) -> Vec<Metric> {
    let throughput: Vec<f64> = rounds.iter().map(|r| r.evals as f64 / r.wall_s).collect();
    let steps: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.steps_ms.iter().copied())
        .collect();
    let converge = converge_typical(probe);
    let (stress_min, best_min) = simulated(sim);
    let mut out = vec![
        metric("setup_s", median(setups), "s"),
        metric("evals_per_s", median(&throughput), "1/s"),
        metric("step_ms.p50", median(&steps), "ms"),
        metric(
            "step_ms.tail",
            quantile(&steps, plan.workload.tail_q()),
            "ms",
        ),
    ];
    for (p, name) in tune::POLICIES.iter().enumerate() {
        out.push(metric(format!("converge_ms.{name}"), converge[p], "ms"));
    }
    out.extend([
        metric("sim_stress_min", stress_min, "sim_min"),
        metric("sim_best_min", best_min, "sim_min"),
        metric(
            "success_ratio",
            1.0 - tally.failed() as f64 / tally.attempted.max(1) as f64,
            "ratio",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]);
    out
}

/// The serve-step blocking path, mean per step: wire+codec, handler time
/// not spent waiting, queue wait, env bookkeeping and engine, less the
/// part of queue wait and evaluation that overlapped the client's
/// turnaround before the join arrived.
fn step_path(bag: &Bag, bookkeeping_ms: f64) -> [f64; 6] {
    let n = bag.sum("rtt_n.step_auto").max(1.0);
    let handler = bag.sum("handler_ms.step_auto") + bag.sum("handler_ms.join");
    let wire = (bag.sum("rtt_ms.step_auto") + bag.sum("rtt_ms.join") - handler) / n;
    let handler_own = (handler - bag.sum("join_wait_ms")) / n;
    let queue = mean(bag.samples("queue_wait_ms"));
    let engine = bag.ratio("engine_run_ms", "serve.evaluations");
    let hidden = -bag.sum("eval_hidden_ms") / n;
    [wire, handler_own, queue, bookkeeping_ms, engine, hidden]
}

/// Replayed evaluate cost of one of tuner `p`'s sessions: the replay's
/// per-evaluation `key` time times the traced sessions' evaluations.
fn replayed_per_session(bag: &Bag, replayed: &Bag, p: usize, key: &str) -> f64 {
    let name = tune::POLICIES[p];
    replayed.ratio(&format!("replay.{key}.{p}"), &format!("replay.evals.{p}"))
        * bag.ratio(&format!("evals.{name}"), &format!("sessions.{name}"))
}

/// A tuner's self time per session: `Tuner::tune` wall time less its
/// `env.evaluate` spans and less the evaluate bookkeeping outside those
/// spans (at the replay's per-evaluation rate).
fn tuner_self_ms(bag: &Bag, replayed: &Bag, p: usize) -> f64 {
    let name = tune::POLICIES[p];
    bag.ratio(&format!("self_ms.{name}"), &format!("sessions.{name}"))
        - replayed_per_session(bag, replayed, p, "outside_ms")
}

/// Reconciliation ratios of the traced run: layer sums over the same
/// run's end-to-end means (tracing overhead is `obs.overhead_ratio`'s
/// business, not the ledger's). Serve-step path first, then one per tuner.
fn reconcile(plan: &Plan, bag: &Bag, replayed: &Bag, traced: &[Round]) -> [f64; 5] {
    let mut out = [0.0; 5];
    match plan.workload {
        Workload::ServeStep => {
            let steps: Vec<f64> = traced
                .iter()
                .flat_map(|r| r.steps_ms.iter().copied())
                .collect();
            let book = replayed.ratio("replay.bookkeeping_ms", "replay.evals");
            out[0] = step_path(bag, book).iter().sum::<f64>() / mean(&steps);
        }
        Workload::TuneConverge => {
            for (p, name) in tune::POLICIES.iter().enumerate() {
                let sessions = format!("sessions.{name}");
                let sum = tuner_self_ms(bag, replayed, p)
                    + bag.ratio(&format!("engine_ms.{name}"), &sessions)
                    + replayed_per_session(bag, replayed, p, "bookkeeping_ms");
                let wall = bag.ratio(&format!("wall_ms.{name}"), &sessions);
                out[1 + p] = ratio(sum, wall);
            }
        }
        Workload::ServeResident => {}
    }
    out
}

/// The per-layer ledger of a traced run. Every name is reported on every
/// workload; a layer the workload does not exercise reads 0.
fn per_layer(
    plan: &Plan,
    bag: &Bag,
    replayed: &Bag,
    traced: &[Round],
    overhead: &[f64],
    reference: &Round,
    tally: &Tally,
) -> Vec<Metric> {
    let rounds = traced.len().max(1) as f64;
    let mut out = Vec::new();
    for ep in serve::ENDPOINTS {
        out.push(metric(
            format!("serve.rtt_ms.{ep}"),
            bag.ratio(&format!("rtt_ms.{ep}"), &format!("rtt_n.{ep}")),
            "ms",
        ));
    }
    for ep in serve::ENDPOINTS {
        out.push(metric(
            format!("serve.handler_ms.{ep}"),
            bag.ratio(&format!("handler_ms.{ep}"), &format!("handler_n.{ep}")),
            "ms",
        ));
    }
    let sum_over = |prefix: &str| -> f64 {
        serve::ENDPOINTS
            .iter()
            .map(|ep| bag.sum(&format!("{prefix}.{ep}")))
            .sum()
    };
    let wire = ratio(
        sum_over("rtt_ms") - sum_over("handler_ms"),
        sum_over("rtt_n"),
    );
    let evaluations = match plan.workload {
        Workload::TuneConverge => traced.iter().map(|r| r.evals).sum::<u64>() as f64,
        _ => bag.sum("serve.evaluations"),
    };
    let hits = bag.sum("evalcache.hits");
    let lookups = hits + bag.sum("evalcache.misses");
    let censored: usize = plan.distinct(reference).iter().map(Settled::censored).sum();
    out.extend([
        metric("serve.codec_us", bag.ratio("codec_us", "codec_n"), "us"),
        metric("serve.wire_ms", wire, "ms"),
        metric(
            "serve.frame_bytes",
            bag.ratio("frame_bytes", "codec_n"),
            "bytes",
        ),
        metric(
            "serve.queue_wait_ms.p50",
            quantile(bag.samples("queue_wait_ms"), 0.5),
            "ms",
        ),
        metric(
            "serve.queue_wait_ms.p99",
            quantile(bag.samples("queue_wait_ms"), 0.99),
            "ms",
        ),
        metric(
            "serve.rejected_ratio",
            bag.ratio("serve.rejected.overloaded", "serve.requests.step_auto"),
            "ratio",
        ),
        metric(
            "serve.sessions_resident",
            mean(bag.samples("sessions_resident")),
            "count",
        ),
        metric(
            "serve.evictions",
            bag.sum("serve.evictions") / rounds,
            "count",
        ),
        metric("serve.resumes", bag.sum("serve.resumes") / rounds, "count"),
        metric(
            "env.evaluate_ms",
            replayed.ratio("replay.evaluate_ms", "replay.evals"),
            "ms",
        ),
        metric(
            "env.bookkeeping_ms",
            replayed.ratio("replay.bookkeeping_ms", "replay.evals"),
            "ms",
        ),
        metric(
            "env.runs_per_eval",
            ratio(bag.sum("engine.runs"), evaluations),
            "ratio",
        ),
        metric("env.censored", censored as f64, "count"),
        metric(
            "checkpoint.save_ms",
            replayed.ratio("checkpoint.save_ms", "checkpoint.n"),
            "ms",
        ),
        metric(
            "checkpoint.load_ms",
            replayed.ratio("checkpoint.load_ms", "checkpoint.n"),
            "ms",
        ),
        metric(
            "checkpoint.bytes",
            replayed.ratio("checkpoint.bytes", "checkpoint.n"),
            "bytes",
        ),
        metric("evalcache.hit_ratio", ratio(hits, lookups), "ratio"),
        metric("evalcache.hits", hits / rounds, "count"),
        metric(
            "evalcache.misses",
            bag.sum("evalcache.misses") / rounds,
            "count",
        ),
        metric(
            "engine.run_us",
            bag.ratio("engine_run_ms", "engine_run_n") * 1e3,
            "us",
        ),
        metric(
            "engine.abort_ratio",
            bag.ratio("engine.aborts", "engine.runs"),
            "ratio",
        ),
        metric(
            "engine.sim_gc_share",
            bag.ratio("sim_gc_ms", "sim_run_ms"),
            "ratio",
        ),
    ]);
    for (layer, sessions) in [
        ("bo.fit_ms", "sessions.bo"),
        ("bo.acq_ms", "sessions.bo"),
        ("gbo.fit_ms", "sessions.gbo"),
        ("gbo.acq_ms", "sessions.gbo"),
        ("surrogate.fit_ms", "sessions.bo_family"),
        ("ddpg.act_ms", "sessions.ddpg"),
        ("ddpg.update_ms", "sessions.ddpg"),
        ("relm.stats_ms", "sessions.relm"),
        ("relm.decide_ms", "sessions.relm"),
    ] {
        out.push(metric(
            format!("{layer}.p50"),
            median(bag.samples(layer)),
            "ms",
        ));
        out.push(metric(
            format!("{layer}.per_session"),
            bag.ratio(layer, sessions),
            "ms",
        ));
    }
    for (p, name) in tune::POLICIES.iter().enumerate() {
        out.push(metric(
            format!("tuner.self_ms.{name}"),
            tuner_self_ms(bag, replayed, p),
            "ms",
        ));
    }
    out.extend([
        metric("obs.overhead_ratio", median(overhead), "ratio"),
        metric("obs.overhead_ratio.iqr", iqr_share(overhead), "ratio"),
        metric(
            "obs.spans_dropped",
            bag.sum("obs.spans_dropped") + replayed.sum("obs.spans_dropped"),
            "count",
        ),
        metric(
            "error_ratio",
            tally.failed() as f64 / tally.attempted.max(1) as f64,
            "ratio",
        ),
    ]);
    out.push(metric(
        "serve.eval_overlap_ms",
        bag.sum("eval_hidden_ms") / bag.sum("rtt_n.step_auto").max(1.0),
        "ms",
    ));
    let ratios = reconcile(plan, bag, replayed, traced);
    out.push(metric("reconcile.step_ratio", ratios[0], "ratio"));
    for (p, name) in tune::POLICIES.iter().enumerate() {
        out.push(metric(
            format!("reconcile.converge_ratio.{name}"),
            ratios[1 + p],
            "ratio",
        ));
    }
    out
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--reconcile-only") {
        return Ok(None);
    }
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == workload)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// A scratch directory under the build directory of the current working
/// directory, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> std::io::Result<Self> {
        let dir = PathBuf::from(".bench_build").join(format!("relmbench-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// One full run; returns whether every output check passed.
fn run(args: &Args, scratch: &Path) -> bool {
    let plan = Plan::new(args.workload, args.seed, false);
    let mut tally = Tally::default();

    // Set-up: start and warm the stack on round 0, several times over;
    // every set-up must settle the same histories.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut reference: Option<Round> = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let mut round = plan.round(scratch, 0, false);
        setups.push(started.elapsed().as_secs_f64());
        tally.merge(std::mem::take(&mut round.tally));
        match &reference {
            Some(first) => check_round(first, &round, "set-up", &mut tally),
            None => reference = Some(round),
        }
    }
    let reference = reference.expect("at least one set-up");

    // Measured phase: fresh inputs every round, so a run averages over
    // many sessions. A traced round repeats its untraced twin's inputs,
    // in alternating order, and must settle the same histories.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    // The serve workloads report the tuners' convergence times from a
    // fixed probe of sessions, run between rounds in step with the
    // measured phase so both sample the same stretch of machine time.
    let mut probe = Round::default();
    let probe_sessions: Vec<(usize, usize, usize)> = if args.trace || plan.shape.is_none() {
        Vec::new()
    } else {
        (0..PROBE_SEEDS)
            .flat_map(|s| {
                (0..tune::APPS).flat_map(move |a| (0..tune::POLICIES.len()).map(move |p| (p, s, a)))
            })
            .collect()
    };
    let mut probed = 0;
    let started = Instant::now();
    let mut r = 1;
    // An untraced run covers the simulated metrics' rounds at the least; a
    // traced run needs two pairs for an overhead spread.
    let min_rounds = if args.trace { 2 } else { plan.sim_rounds - 1 };
    while untraced.len() < min_rounds || started.elapsed().as_secs_f64() < args.seconds {
        if !args.trace {
            untraced.push(plan.round(scratch, r, false));
            let due = (started.elapsed().as_secs_f64() / args.seconds).min(1.0);
            while (probed as f64) < due * probe_sessions.len() as f64 {
                tune::session(
                    &mut probe,
                    PROBE_SEED,
                    probe_sessions[probed],
                    SCORING_THREADS,
                    false,
                );
                probed += 1;
            }
        } else {
            let (u, t) = if r % 2 == 1 {
                let u = plan.round(scratch, r, false);
                (u, plan.round(scratch, r, true))
            } else {
                let t = plan.round(scratch, r, true);
                (plan.round(scratch, r, false), t)
            };
            check_round(&u, &t, "traced", &mut tally);
            untraced.push(u);
            traced.push(t);
        }
        r += 1;
    }
    for &session in &probe_sessions[probed..] {
        tune::session(&mut probe, PROBE_SEED, session, SCORING_THREADS, false);
    }
    let measured_s = started.elapsed().as_secs_f64();
    let rounds = untraced.len() + traced.len();
    let step_samples: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.steps_ms.iter().copied())
        .collect();
    let step_quantiles: Vec<String> = [0.5, 0.9, 0.95, 0.99, 0.999]
        .iter()
        .map(|q| format!("\"p{}\": {}", q * 100.0, quantile(&step_samples, *q)))
        .collect();
    for round in untraced.iter_mut().chain(traced.iter_mut()) {
        tally.merge(std::mem::take(&mut round.tally));
    }
    let replayed = replay_all(&plan, &reference, scratch, args.trace, &mut tally);

    let metrics = if args.trace {
        let mut bag = Bag::default();
        for round in &mut traced {
            bag.merge(std::mem::take(&mut round.bag));
        }
        let overhead: Vec<f64> = traced
            .iter()
            .zip(&untraced)
            .map(|(t, u)| t.wall_s / u.wall_s)
            .collect();
        let metrics = per_layer(
            &plan, &bag, &replayed, &traced, &overhead, &reference, &tally,
        );
        let dropped = metrics
            .iter()
            .find(|m| m.name == "obs.spans_dropped")
            .map_or(0.0, |m| m.value);
        if dropped > 0.0 {
            tally.attempted += 1;
            tally.protocol += 1;
            tally.note(format!("{dropped} spans dropped: the ledger under-counts"));
        }
        metrics
    } else {
        tally.merge(std::mem::take(&mut probe.tally));
        let probe = match plan.workload {
            Workload::TuneConverge => untraced.as_slice(),
            _ => std::slice::from_ref(&probe),
        };
        let sim: Vec<&Round> = std::iter::once(&reference)
            .chain(untraced.iter().take(plan.sim_rounds - 1))
            .collect();
        end_to_end(&plan, &setups, &sim, &untraced, probe, &tally)
    };

    let censored: usize = plan
        .distinct(&reference)
        .iter()
        .map(Settled::censored)
        .sum();
    let mut run_digest = relm_common::hash::Fnv64::new();
    for s in &reference.settled {
        run_digest.write_u64(s.digest);
    }
    let notes: Vec<String> = tally.notes.iter().map(|n| json_str(n)).collect();
    println!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {}, \"cpu\": {}, \
         \"rustc\": {}, \"commit\": {}, \"client_threads\": {}, \"serve_workers\": {}, \
         \"scoring_threads\": {}, \"rounds\": {}, \"measured_s\": {}, \"step_samples\": {}, \
         \"step_quantiles_ms\": {{{}}}, \"tail_percentile\": {}, \"sessions_per_round\": {}, \"env_censored\": {}, \
         \"operations\": {{\"attempted\": {}, \"succeeded\": {}, \"overloaded\": {}, \"protocol\": {}, \"panics\": {}, \"digest\": {}}}, \
         \"digest\": \"{:016x}\", \"notes\": [{}]}}}}",
        json_str(plan.workload.name()),
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&cpu_model()),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&if Path::new(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"])
        } else {
            "unknown (not a git checkout)".into()
        }),
        plan.threads,
        plan.threads,
        SCORING_THREADS,
        rounds,
        measured_s,
        step_samples.len(),
        step_quantiles.join(", "),
        plan.workload.tail_q() * 100.0,
        reference.settled.len(),
        censored,
        tally.attempted,
        tally.attempted - tally.failed(),
        tally.overloaded,
        tally.protocol,
        tally.panics,
        tally.digest,
        run_digest.finish(),
        notes.join(", "),
    );

    let correct = tally.failed() == 0 && metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                if m.value.is_finite() { m.value } else { 0.0 },
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed(),
        body.join(", ")
    );
    correct
}

/// The self-test: every workload at a tiny size, once untraced and once
/// traced. Checks digests (round against round, traced against untraced,
/// against a fresh replay, duplicate pairs) and both reconciliation
/// rules. Reports no timings.
fn reconcile_only(scratch: &Path) -> bool {
    let mut ok = true;
    for workload in Workload::ALL {
        let plan = Plan::new(workload, 7, true);
        let mut tally = Tally::default();
        let reference = plan.round(scratch, 0, false);
        let again = plan.round(scratch, 0, false);
        check_round(&reference, &again, "repeat", &mut tally);
        let untraced = plan.round(scratch, 1, false);
        let mut traced = vec![plan.round(scratch, 1, true)];
        check_round(&untraced, &traced[0], "traced", &mut tally);
        for round in [&reference, &again, &untraced, &traced[0]] {
            tally.merge(round.tally.clone());
        }
        let replayed = replay_all(&plan, &reference, scratch, true, &mut tally);
        let bag = std::mem::take(&mut traced[0].bag);
        let ratios = reconcile(&plan, &bag, &replayed, &traced);
        let checked: &[f64] = match workload {
            Workload::ServeStep => &ratios[..1],
            Workload::TuneConverge => &ratios[1..],
            Workload::ServeResident => &[],
        };
        let dropped = bag.sum("obs.spans_dropped") + replayed.sum("obs.spans_dropped");
        let reconciled = checked
            .iter()
            .all(|r| (r - 1.0).abs() <= RECONCILE_TOLERANCE);
        let pass = tally.failed() == 0 && dropped == 0.0 && reconciled;
        println!(
            "{}: {} checks, {} failed, spans dropped {dropped}, reconcile {checked:?}: {}",
            workload.name(),
            tally.attempted,
            tally.failed(),
            if pass { "ok" } else { "FAILED" }
        );
        for note in &tally.notes {
            println!("  {note}");
        }
        ok &= pass;
    }
    ok
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("relmbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch = match Scratch::create() {
        Ok(scratch) => scratch,
        Err(e) => {
            eprintln!("relmbench: cannot create scratch directory: {e}");
            std::process::exit(2);
        }
    };
    let ok = match &args {
        Some(args) => run(args, &scratch.0),
        None => reconcile_only(&scratch.0),
    };
    drop(scratch);
    std::process::exit(if ok { 0 } else { 1 });
}
