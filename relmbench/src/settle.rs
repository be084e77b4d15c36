//! Settled sessions, their digests, the replay check through a fresh
//! `TuningEnv`, and the failure tally every workload reports.

use crate::stats::Bag;
use relm_app::{AppSpec, Engine};
use relm_cluster::ClusterSpec;
use relm_common::hash::Fnv64;
use relm_faults::{FaultConfig, FaultPlan};
use relm_obs::Obs;
use relm_tune::{Observation, SessionCheckpoint, TuningEnv};
use std::path::Path;
use std::time::Instant;

/// Everything a session's history is a pure function of, apart from the
/// configurations it evaluated.
#[derive(Debug, Clone)]
pub struct SessionInput {
    pub app: AppSpec,
    pub base_seed: u64,
    pub faults: Option<(u64, FaultConfig)>,
}

impl SessionInput {
    pub fn engine(&self, obs: &Obs) -> Engine {
        let engine = Engine::new(ClusterSpec::cluster_a()).with_obs(obs.clone());
        match self.faults {
            Some((seed, faults)) => engine.with_faults(FaultPlan::new(seed, faults)),
            None => engine,
        }
    }

    pub fn env(&self, obs: &Obs) -> TuningEnv {
        TuningEnv::new(self.engine(obs), self.app.clone(), self.base_seed)
    }
}

/// One session as it settled: identity, digest and simulated totals.
#[derive(Debug, Clone)]
pub struct Settled {
    /// Stable label (`serve#12`, `bo/SVM/1`), the same in every round.
    pub key: String,
    /// Tuner index for `tune_converge` sessions.
    pub policy: Option<usize>,
    pub input: SessionInput,
    pub history: Vec<Observation>,
    pub digest: u64,
    /// Simulated stress time including retries and backoff, ms.
    pub stress_ms: f64,
}

impl Settled {
    pub fn new(
        key: String,
        policy: Option<usize>,
        input: SessionInput,
        history: Vec<Observation>,
        stress_ms: f64,
    ) -> Self {
        let digest = digest(&history);
        Settled {
            key,
            policy,
            input,
            history,
            digest,
            stress_ms,
        }
    }

    pub fn best_mins(&self) -> f64 {
        self.history
            .iter()
            .map(|o| o.score_mins)
            .fold(f64::INFINITY, f64::min)
    }

    pub fn censored(&self) -> usize {
        self.history.iter().filter(|o| o.is_censored()).count()
    }
}

/// FNV-1a over the history's JSON encoding: equal digests mean
/// byte-identical histories.
pub fn digest(history: &[Observation]) -> u64 {
    let json = serde_json::to_string(history).expect("observations serialize");
    let mut h = Fnv64::new();
    h.write_str(&json);
    h.finish()
}

/// Operations attempted and failed, by failure kind. Censored
/// evaluations are simulated outcomes, counted apart and never failures.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub overloaded: u64,
    pub protocol: u64,
    pub panics: u64,
    pub digest: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.overloaded + self.protocol + self.panics + self.digest
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.overloaded += other.overloaded;
        self.protocol += other.protocol;
        self.panics += other.panics;
        self.digest += other.digest;
        self.notes.extend(other.notes);
    }

    pub fn note(&mut self, note: String) {
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Counts one digest comparison.
    pub fn check_digest(&mut self, what: &str, want: u64, got: u64) {
        self.attempted += 1;
        if want != got {
            self.digest += 1;
            self.note(format!(
                "digest mismatch: {what}: {want:016x} != {got:016x}"
            ));
        }
    }
}

/// Replays a settled history through a fresh environment and checks its
/// digest. With an enabled `obs`, also books `TuningEnv::evaluate` host
/// time (a benchmark span per call) against the engine spans inside it,
/// and times a checkpoint save and load of the replayed session under
/// `scratch`.
pub fn replay(settled: &Settled, obs: &Obs, scratch: &Path, tally: &mut Tally, bag: &mut Bag) {
    let mut env = settled.input.env(obs);
    for o in &settled.history {
        let _span = obs.span("bench.env.evaluate");
        env.evaluate(&o.config);
    }
    tally.check_digest(
        &format!("{} replay", settled.key),
        settled.digest,
        digest(env.history()),
    );
    if !obs.is_enabled() {
        return;
    }
    let snapshot = obs.snapshot();
    bag.add("obs.spans_dropped", snapshot.dropped_spans as f64);
    let span_ms = |name: &str| -> f64 {
        snapshot
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ms())
            .sum()
    };
    let evaluate = span_ms("bench.env.evaluate");
    let inside = span_ms("env.evaluate");
    let engine = span_ms("engine.run");
    let evals = settled.history.len() as f64;
    bag.add("replay.evals", evals);
    bag.add("replay.evaluate_ms", evaluate);
    bag.add("replay.bookkeeping_ms", evaluate - engine);
    if let Some(p) = settled.policy {
        bag.add(&format!("replay.evals.{p}"), evals);
        bag.add(&format!("replay.bookkeeping_ms.{p}"), evaluate - engine);
        // Bookkeeping outside the env's own spans: the part a tuner's
        // wall time minus its env.evaluate spans still contains.
        bag.add(&format!("replay.outside_ms.{p}"), evaluate - inside);
    }

    let path = scratch.join(format!(
        "{}.ckpt.json",
        settled.key.replace(['/', '#'], "-")
    ));
    let started = Instant::now();
    let saved = SessionCheckpoint::capture(&env).save_tagged(&path, "bench");
    let save_ms = started.elapsed().as_secs_f64() * 1e3;
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let started = Instant::now();
    let resumed =
        SessionCheckpoint::load(&path).map(|c| c.resume(settled.input.engine(&Obs::disabled())));
    let load_ms = started.elapsed().as_secs_f64() * 1e3;
    std::fs::remove_file(&path).ok();
    tally.attempted += 1;
    match (saved, resumed) {
        (Ok(()), Ok(resumed)) => {
            bag.add("checkpoint.n", 1.0);
            bag.add("checkpoint.save_ms", save_ms);
            bag.add("checkpoint.load_ms", load_ms);
            bag.add("checkpoint.bytes", bytes as f64);
            tally.check_digest(
                &format!("{} checkpoint", settled.key),
                settled.digest,
                digest(resumed.history()),
            );
        }
        (saved, resumed) => {
            tally.protocol += 1;
            tally.note(format!(
                "{} checkpoint failed: {:?} / {:?}",
                settled.key,
                saved.err(),
                resumed.err()
            ));
        }
    }
}
