//! Integration proof of the evaluation cache's core contract: a cached
//! replay is indistinguishable from a live evaluation — bitwise-identical
//! serialized `Observation`s, identical session state (seed chain, stress
//! and retry time, penalty baseline), and reconciling observability
//! counters — even under fault injection and retries.

use relm_app::Engine;
use relm_cluster::ClusterSpec;
use relm_common::MemoryConfig;
use relm_faults::{FaultConfig, FaultPlan};
use relm_obs::Obs;
use relm_tune::{EvalStore, TuningEnv};
use relm_workloads::{max_resource_allocation, wordcount};

/// A faulty session: a 10% uniform plan reliably injects faults and
/// triggers retries over this many evaluations.
const EVALS: usize = 12;

fn engine(obs: Obs) -> Engine {
    Engine::new(ClusterSpec::cluster_a())
        .with_obs(obs)
        .with_faults(FaultPlan::new(7, FaultConfig::uniform(0.10)))
}

fn configs(env: &TuningEnv) -> Vec<MemoryConfig> {
    let base = max_resource_allocation(&ClusterSpec::cluster_a(), env.app());
    (0..EVALS)
        .map(|i| {
            let n = 2 + (i % 4) as u32;
            MemoryConfig {
                containers_per_node: n,
                heap: ClusterSpec::cluster_a().heap_for(n),
                task_concurrency: 1 + (i % 3) as u32,
                ..base
            }
        })
        .collect()
}

/// Runs one full session; returns (history JSON lines, counters, env).
fn run_session(cache: Option<EvalStore>) -> (Vec<String>, Vec<(String, f64)>, TuningEnv) {
    let obs = Obs::enabled();
    let mut env = TuningEnv::new(engine(obs.clone()), wordcount(), 42);
    if let Some(cache) = cache {
        env = env.with_cache(cache);
    }
    for config in configs(&env) {
        env.evaluate(&config);
    }
    let history: Vec<String> = env
        .history()
        .iter()
        .map(|o| serde_json::to_string(o).expect("observation serializes"))
        .collect();
    (history, obs.counters(), env)
}

#[test]
fn cached_replay_is_bitwise_identical_to_live_evaluation() {
    let (live_history, live_counters, live_env) = run_session(None);
    assert!(
        live_counters
            .iter()
            .any(|(n, v)| n == "faults.injected" && *v > 0.0),
        "the fixture must actually inject faults"
    );

    // Cold pass through a shared cache: every evaluation is a miss that
    // runs live, so nothing may differ from the uncached session.
    let cache: EvalStore = EvalStore::new();
    let (cold_history, cold_counters, cold_env) = run_session(Some(cache.clone()));
    assert_eq!(
        cold_history, live_history,
        "cold cached run must match live"
    );
    assert_eq!(cold_counters, live_counters);
    let stats = cache.stats();
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.inserts as usize, EVALS);

    // Warm pass: every evaluation replays. History must be *bitwise*
    // identical, counters must reconcile, and session state must land in
    // the same place.
    let (warm_history, warm_counters, warm_env) = run_session(Some(cache.clone()));
    assert_eq!(
        warm_history, live_history,
        "replay must be bitwise-identical"
    );
    assert_eq!(
        warm_counters, live_counters,
        "replayed counters must reconcile"
    );
    assert_eq!(cache.stats().hits as usize, EVALS);
    assert_eq!(
        cache.stats().inserts as usize,
        EVALS,
        "no re-inserts on hits"
    );
    assert_eq!(warm_env.next_seed(), live_env.next_seed());
    assert_eq!(warm_env.worst_mins(), live_env.worst_mins());
    assert_eq!(warm_env.stress_time(), live_env.stress_time());
    assert_eq!(warm_env.retry_time(), live_env.retry_time());
    assert_eq!(warm_env.total_retries(), live_env.total_retries());
    drop(cold_env);
}

#[test]
fn replay_survives_the_persistent_store() {
    let cache: EvalStore = EvalStore::new();
    let (live_history, live_counters, _) = run_session(Some(cache.clone()));

    let path = std::env::temp_dir().join(format!(
        "relm-tune-cache-replay-{}.jsonl",
        std::process::id()
    ));
    relm_evalcache::store::save(&cache, &path).expect("save");
    let restored: EvalStore = EvalStore::new();
    let loaded = relm_evalcache::store::load(&restored, &path).expect("load");
    assert_eq!(loaded, (EVALS, 0));

    // A fresh process (fresh cache handle, fresh obs) replaying from disk
    // must reproduce the original session exactly.
    let (warm_history, warm_counters, _) = run_session(Some(restored.clone()));
    assert_eq!(warm_history, live_history);
    assert_eq!(warm_counters, live_counters);
    assert_eq!(restored.stats().hits as usize, EVALS);
    std::fs::remove_file(&path).ok();
}

#[test]
fn different_fault_plans_do_not_share_entries() {
    let cache: EvalStore = EvalStore::new();
    let obs = Obs::enabled();
    let mut env_a = TuningEnv::new(engine(obs.clone()), wordcount(), 42).with_cache(cache.clone());
    let config = configs(&env_a)[0];
    env_a.evaluate(&config);

    // Same everything except the fault-plan seed: must miss, not hit.
    let other_engine = Engine::new(ClusterSpec::cluster_a())
        .with_obs(Obs::enabled())
        .with_faults(FaultPlan::new(8, FaultConfig::uniform(0.10)));
    let mut env_b = TuningEnv::new(other_engine, wordcount(), 42).with_cache(cache.clone());
    env_b.evaluate(&config);
    assert_eq!(
        cache.stats().hits,
        0,
        "distinct fault plans must not collide"
    );
    assert_eq!(cache.stats().inserts, 2);
}
