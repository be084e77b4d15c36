//! # relm-bench
//!
//! Criterion benchmarks backing Table 10 (per-iteration algorithm
//! overheads) plus throughput benchmarks of the simulator substrate and
//! scaling benchmarks of the surrogate models.
//!
//! Run with `cargo bench -p relm-bench`.
//!
//! The crate also holds the engine's output digest ([`fold_run`]): the
//! golden-output test and `bench_export --engine` both fold every field of
//! `Engine::run`'s output through it, so a speedup that changes one bit of
//! any run is caught.

use relm_app::{AppSpec, Engine, RunResult};
use relm_cluster::ClusterSpec;
use relm_common::hash::Fnv64;
use relm_common::{Mem, MemoryConfig, Millis};
use relm_faults::{FaultConfig, FaultPlan};
use relm_jvm::{GcEvent, GcKind};
use relm_profile::{ContainerTrace, Profile, Timeline};
use relm_workloads::max_resource_allocation;

/// A ready-made (engine, app, default config, profile) bundle the benches
/// share.
pub struct BenchContext {
    /// Simulator for Cluster A.
    pub engine: Engine,
    /// The application under test.
    pub app: AppSpec,
    /// The vendor default configuration.
    pub config: MemoryConfig,
    /// A profile collected under the default configuration.
    pub profile: Profile,
}

/// Builds the shared context for an application constructor.
pub fn context(app: AppSpec) -> BenchContext {
    let engine = Engine::new(ClusterSpec::cluster_a());
    let config = max_resource_allocation(engine.cluster(), &app);
    let (_, profile) = engine.run(&app, &config, 42);
    BenchContext {
        engine,
        app,
        config,
        profile,
    }
}

/// Headline rate of the fault plan the engine digest and benchmark run
/// their faulty half under.
pub const ENGINE_FAULT_RATE: f64 = 0.08;

/// Seed of that fault plan.
pub const ENGINE_FAULT_SEED: u64 = 17;

/// A Cluster A engine, clean or under the uniform
/// [`ENGINE_FAULT_RATE`] plan.
pub fn digest_engine(faulty: bool) -> Engine {
    let engine = Engine::new(ClusterSpec::cluster_a());
    if faulty {
        engine.with_faults(FaultPlan::new(
            ENGINE_FAULT_SEED,
            FaultConfig::uniform(ENGINE_FAULT_RATE),
        ))
    } else {
        engine
    }
}

fn fold_f64(h: &mut Fnv64, x: f64) {
    h.write_u64(x.to_bits());
}

fn fold_mem(h: &mut Fnv64, m: Mem) {
    fold_f64(h, m.as_mb());
}

fn fold_ms(h: &mut Fnv64, t: Millis) {
    fold_f64(h, t.as_ms());
}

fn fold_timeline<T: Copy>(h: &mut Fnv64, tl: &Timeline<T>, mut value: impl FnMut(&mut Fnv64, T)) {
    h.write_u64(tl.len() as u64);
    for &(t, v) in tl.samples() {
        fold_ms(h, t);
        value(h, v);
    }
}

fn fold_config(h: &mut Fnv64, c: &MemoryConfig) {
    let MemoryConfig {
        containers_per_node,
        heap,
        task_concurrency,
        cache_fraction,
        shuffle_fraction,
        new_ratio,
        survivor_ratio,
    } = *c;
    h.write_u64(containers_per_node as u64);
    fold_mem(h, heap);
    h.write_u64(task_concurrency as u64);
    fold_f64(h, cache_fraction);
    fold_f64(h, shuffle_fraction);
    h.write_u64(new_ratio as u64);
    h.write_u64(survivor_ratio as u64);
}

fn fold_event(h: &mut Fnv64, e: &GcEvent) {
    let GcEvent {
        time,
        kind,
        pause,
        heap_used_after,
        old_used_after,
        rss,
    } = *e;
    fold_ms(h, time);
    h.write_u64(match kind {
        GcKind::Young => 0,
        GcKind::Full => 1,
    });
    fold_ms(h, pause);
    fold_mem(h, heap_used_after);
    fold_mem(h, old_used_after);
    fold_mem(h, rss);
}

fn fold_trace(h: &mut Fnv64, c: &ContainerTrace) {
    let ContainerTrace {
        gc_events,
        rss,
        cache_used,
        shuffle_used,
        running_tasks,
        code_overhead,
        peak_heap_used,
        peak_old_used,
    } = c;
    h.write_u64(gc_events.len() as u64);
    for e in gc_events {
        fold_event(h, e);
    }
    fold_timeline(h, rss, fold_mem);
    fold_timeline(h, cache_used, fold_mem);
    fold_timeline(h, shuffle_used, fold_mem);
    fold_timeline(h, running_tasks, |h, n| h.write_u64(n as u64));
    fold_mem(h, *code_overhead);
    fold_mem(h, *peak_heap_used);
    fold_mem(h, *peak_old_used);
}

/// Folds every field of one `Engine::run` output into `h`: floats as
/// their bit patterns, every GC event and every timeline sample. The
/// destructuring is exhaustive, so a field added to either type will not
/// compile until it is folded here too.
pub fn fold_run(h: &mut Fnv64, result: &RunResult, profile: &Profile) {
    let RunResult {
        runtime,
        aborted,
        abort_cause,
        container_failures,
        injected_faults,
        oom_failures,
        rss_kills,
        max_heap_util,
        avg_cpu_util,
        avg_disk_util,
        gc_overhead,
        cache_hit_ratio,
        spill_fraction,
        young_gcs,
        full_gcs,
    } = result;
    fold_ms(h, *runtime);
    h.write_u64(*aborted as u64);
    h.write_str(abort_cause.map(|c| c.as_str()).unwrap_or("none"));
    h.write_u64(*container_failures as u64);
    h.write_u64(*injected_faults as u64);
    h.write_u64(*oom_failures as u64);
    h.write_u64(*rss_kills as u64);
    for x in [
        *max_heap_util,
        *avg_cpu_util,
        *avg_disk_util,
        *gc_overhead,
        *cache_hit_ratio,
        *spill_fraction,
    ] {
        fold_f64(h, x);
    }
    h.write_u64(*young_gcs);
    h.write_u64(*full_gcs);

    let Profile {
        app_name,
        config,
        duration,
        cpu_avg,
        disk_avg,
        cache_hit_ratio,
        spill_fraction,
        containers,
        gc_overhead,
    } = profile;
    h.write_str(app_name);
    fold_config(h, config);
    fold_ms(h, *duration);
    for x in [
        *cpu_avg,
        *disk_avg,
        *cache_hit_ratio,
        *spill_fraction,
        *gc_overhead,
    ] {
        fold_f64(h, x);
    }
    h.write_u64(containers.len() as u64);
    for c in containers {
        fold_trace(h, c);
    }
}
