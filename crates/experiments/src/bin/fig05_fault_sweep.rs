//! Figure 5 extension: how each tuning policy degrades as the substrate
//! gets faultier.
//!
//! Sweeps a seeded fault plan (container kills, node loss, stragglers,
//! profile corruption — `FaultConfig::uniform`) over rates 0%, 5%, 10%,
//! and 20%, runs every policy on WordCount under the standard retry
//! policy, and writes one JSONL record per (rate, policy) combination to
//! `results/fig05_fault_sweep.jsonl`.
//!
//! The (rate, policy) cells are enumerated up front and executed on a
//! bounded worker pool (`--workers N`, default 4) with an index-ordered
//! merge, so the output file is **byte-identical at any worker count** —
//! `scripts/check.sh` asserts 1 vs 8. Each cell builds its own isolated
//! observability handle and environment; nothing crosses cells.
//!
//! Evaluations are memoized in a shared content-addressed cache persisted
//! at `results/.evalcache/fig05_fault_sweep.jsonl` (override with
//! `--cache-file PATH`, disable with `--no-cache`): a warm rerun replays
//! every evaluation from the cache and must produce the identical output
//! file — `scripts/check.sh` asserts that too, along with a ≥3× speedup
//! on the `sweep_ms=` line this binary prints.
//!
//! The output contains only simulated quantities — no wall-clock values —
//! so two invocations produce byte-identical files. The binary also
//! self-checks the observability counters: the total `faults.injected`
//! must equal the sum of its per-kind counters, and the abort-cause
//! histogram must reconcile with `env.retries` plus the number of censored
//! observations — live *and* under cache replay. A mismatch aborts the
//! process.

use relm_app::Engine;
use relm_bo::{BayesOpt, BoConfig};
use relm_cluster::ClusterSpec;
use relm_ddpg::DdpgTuner;
use relm_experiments::{parse_workers, results_dir, run_sharded};
use relm_faults::{AbortCause, FaultConfig, FaultPlan};
use relm_obs::Obs;
use relm_tune::{DefaultPolicy, EvalStore, RandomSearch, Tuner, TuningEnv};
use relm_workloads::wordcount;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Instant;

/// One (fault rate, policy) cell of the sweep.
#[derive(Debug, Serialize, Deserialize)]
struct SweepRecord {
    fault_rate: f64,
    policy: String,
    completed: bool,
    evaluations: usize,
    censored: usize,
    abort_causes: Vec<(String, u32)>,
    retries: u32,
    retry_time_ms: f64,
    stress_time_ms: f64,
    injected_faults: u64,
    best_score_mins: Option<f64>,
}

const POLICY_NAMES: [&str; 6] = ["Default", "Random", "RelM", "BO", "GBO", "DDPG"];

fn tuner_for(name: &str, seed: u64) -> Box<dyn Tuner> {
    let short_bo = BoConfig {
        max_iterations: 6,
        min_adaptive_samples: 4,
        ..BoConfig::default()
    };
    match name {
        "Default" => Box::new(DefaultPolicy),
        "Random" => Box::new(RandomSearch::new(6, seed)),
        "RelM" => Box::<relm_core::RelmTuner>::default(),
        "BO" => Box::new(BayesOpt::new(seed).with_config(short_bo)),
        "GBO" => Box::new(BayesOpt::guided(seed).with_config(short_bo)),
        "DDPG" => Box::new(DdpgTuner::new(seed).with_budget(5)),
        other => panic!("unknown policy {other}"),
    }
}

fn run_cell(fault_rate: f64, plan_seed: u64, name: &str, cache: Option<&EvalStore>) -> SweepRecord {
    let mut tuner = tuner_for(name, 7);
    let obs = Obs::enabled();
    let mut engine = Engine::new(ClusterSpec::cluster_a()).with_obs(obs.clone());
    if fault_rate > 0.0 {
        engine = engine.with_faults(FaultPlan::new(plan_seed, FaultConfig::uniform(fault_rate)));
    }
    let mut env = TuningEnv::new(engine, wordcount(), 42);
    if let Some(cache) = cache {
        env = env.with_cache(cache.clone());
    }
    let completed = tuner.tune(&mut env).is_ok();

    // Counter self-check 1: the fault total must equal its parts.
    let injected = obs.counter_value("faults.injected");
    let parts: f64 = [
        "faults.injected.container_kill",
        "faults.injected.node_loss",
        "faults.injected.straggler",
        "faults.injected.profile_corruption",
    ]
    .iter()
    .map(|c| obs.counter_value(c))
    .sum();
    assert_eq!(
        injected, parts,
        "{name}@{fault_rate}: faults.injected does not reconcile with per-kind counters"
    );

    // Counter self-check 2: every abort in the cause histogram was either
    // retried away or settled as a censored observation.
    let abort_histogram: f64 = AbortCause::ALL
        .iter()
        .map(|c| obs.counter_value(&format!("env.aborts.{c}")))
        .sum();
    let retries = obs.counter_value("env.retries");
    let censored = env.history().iter().filter(|o| o.result.aborted).count();
    assert_eq!(
        abort_histogram as u64,
        retries as u64 + censored as u64,
        "{name}@{fault_rate}: abort-cause histogram does not reconcile with retries + censored"
    );
    assert_eq!(env.total_retries() as f64, retries);

    let abort_causes: Vec<(String, u32)> = AbortCause::ALL
        .iter()
        .filter_map(|c| {
            let n = env
                .history()
                .iter()
                .filter(|o| o.result.aborted && o.result.abort_cause == Some(*c))
                .count() as u32;
            (n > 0).then(|| (c.as_str().to_string(), n))
        })
        .collect();

    SweepRecord {
        fault_rate,
        policy: name.to_string(),
        completed,
        evaluations: env.evaluations(),
        censored,
        abort_causes,
        retries: env.total_retries(),
        retry_time_ms: env.retry_time().as_ms(),
        stress_time_ms: env.stress_time().as_ms(),
        injected_faults: injected as u64,
        best_score_mins: env.best().map(|o| o.score_mins),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workers = parse_workers(&args, 4);
    let use_cache = !args.iter().any(|a| a == "--no-cache");
    let cache_file: PathBuf = args
        .iter()
        .position(|a| a == "--cache-file")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results/.evalcache/fig05_fault_sweep.jsonl"));

    let cache = use_cache.then(EvalStore::new);
    if let Some(cache) = &cache {
        if cache_file.exists() {
            let (loaded, skipped) = relm_evalcache::store::load(cache, &cache_file)
                .expect("evaluation cache file is readable");
            println!(
                "evalcache: loaded {loaded} entries ({skipped} damaged skipped) from {}",
                cache_file.display()
            );
        }
    }

    let rates = [0.0, 0.05, 0.10, 0.20];
    // Cell order defines output order; the sharded merge preserves it.
    let cells: Vec<(f64, u64, &str)> = rates
        .iter()
        .enumerate()
        .flat_map(|(ri, &rate)| {
            POLICY_NAMES
                .iter()
                .map(move |&name| (rate, 1000 + ri as u64, name))
        })
        .collect();

    println!("Figure 5 extension: tuning under injected faults (WordCount)\n");
    let sweep_start = Instant::now();
    let records = run_sharded(cells, workers, |_, &(rate, plan_seed, name)| {
        run_cell(rate, plan_seed, name, cache.as_ref())
    });
    let sweep_ms = sweep_start.elapsed().as_secs_f64() * 1e3;

    println!(
        "{:<6} {:<8} {:>5} {:>6} {:>8} {:>8} {:>10} {:>10}",
        "rate", "policy", "evals", "cens", "retries", "faults", "stress(m)", "best(m)"
    );
    let mut lines = String::new();
    for (i, rec) in records.iter().enumerate() {
        println!(
            "{:<6} {:<8} {:>5} {:>6} {:>8} {:>8} {:>10.1} {:>10}",
            format!("{:.0}%", rec.fault_rate * 100.0),
            rec.policy,
            rec.evaluations,
            rec.censored,
            rec.retries,
            rec.injected_faults,
            rec.stress_time_ms / 60_000.0,
            rec.best_score_mins
                .map(|s| format!("{s:.2}"))
                .unwrap_or_else(|| "-".into()),
        );
        if (i + 1) % POLICY_NAMES.len() == 0 {
            println!();
        }
        lines.push_str(&serde_json::to_string(rec).expect("record serializes"));
        lines.push('\n');
    }

    let dir = results_dir().expect("results dir");
    let path = dir.join("fig05_fault_sweep.jsonl");
    std::fs::write(&path, lines).expect("write sweep results");
    println!("counter reconciliation: OK (totals match per-kind counters and abort histogram)");
    println!("wrote {}", path.display());

    if let Some(cache) = &cache {
        relm_evalcache::store::save(cache, &cache_file).expect("persist evaluation cache");
        let stats = cache.stats();
        println!(
            "evalcache: hits={} misses={} inserts={} entries={} file={}",
            stats.hits,
            stats.misses,
            stats.inserts,
            cache.len(),
            cache_file.display()
        );
    }
    println!("workers={workers} sweep_ms={sweep_ms:.0}");
    println!("\npaper shape: the white-box policies keep recommending near-optimal configs");
    println!("under modest fault rates because censored observations are penalty-scored,");
    println!("not trusted; black-box policies pay for faults with extra stress time.");
}
