//! `bench_export --engine`: host time and heap allocations per
//! `Engine::run` over every benchmark application's 192-configuration
//! grid, clean and under a fault plan, written to `BENCH_engine.json` next
//! to a frozen baseline of the engine before its allocation and
//! memoization work, measured on the same machine with this same harness.
//!
//! Each round runs every (application, mode) cell's whole grid once, cells
//! interleaved, and times a fixed calibration kernel right before each
//! cell. On the shared 2-core reference machine the raw µs per run of one
//! binary moved by up to 40% between processes, which swamps a comparison
//! against a frozen baseline; the ratio of a cell's time to the calibration
//! kernel's moved by about 10%. So the file reports both, and the speedup
//! is the ratio of calibrated costs. A first untimed round counts allocations and folds
//! every run's output into a digest, which must equal the baseline's: a
//! faster engine must be the same engine.

use relm_app::{AppSpec, Engine, RunResult};
use relm_bench::{digest_engine, fold_run, ENGINE_FAULT_RATE};
use relm_common::hash::Fnv64;
use relm_common::MemoryConfig;
use relm_profile::Profile;
use relm_tune::ConfigSpace;
use relm_workloads::benchmark_suite;
use serde::{Map, Number, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::time::Instant;

/// Counts the heap allocations (fresh or resized) of the calling thread.
/// It is the whole binary's allocator, so every `bench_export` mode pays
/// one thread-local increment per allocation.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run seed of every engine run in the benchmark.
const SEED: u64 = 7;

/// Timed rounds per cell.
const ROUNDS: usize = 31;

const MODES: [&str; 2] = ["clean", "faulty"];

/// One cell's numbers. `cost` is µs per run scaled to a machine on which
/// the calibration kernel takes 1 ms (median and quartiles over rounds).
struct Measured {
    us_median: f64,
    cost_median: f64,
    cost_q1: f64,
    cost_q3: f64,
    allocs_per_run: f64,
    digest: u64,
}

/// Median µs of the calibration kernel during the baseline runs.
const BASELINE_CALIBRATION_US: f64 = 4108.8;

/// The engine before its allocation and memoization work, measured with
/// this harness on the 2-core reference machine (per cell, the middle of
/// three runs interleaved with runs of the current engine); rows follow
/// `benchmark_suite()` order, clean then faulty.
fn baseline_parent() -> Vec<Measured> {
    let rows: [(f64, f64, f64, f64, f64, u64); 10] = [
        (129.8, 34.97, 30.60, 36.02, 425.8, 0xaa0a_677e_c06e_d5df), // WordCount
        (83.6, 22.36, 20.91, 25.09, 355.8, 0x9dfd_e6f3_8d5b_85c8),  // SortByKey
        (545.4, 142.84, 134.20, 148.88, 609.9, 0x5b05_0980_c1ae_61dd), // K-means
        (1028.8, 242.85, 231.94, 252.49, 736.1, 0xbd4f_ef8e_eff2_df31), // SVM
        (317.4, 74.97, 69.05, 78.34, 517.0, 0x535c_3a87_a4bc_3a10), // PageRank
        (72.1, 18.69, 17.90, 22.25, 614.2, 0xafd8_f1b3_78f8_edaa),  // WordCount
        (64.8, 15.82, 14.93, 18.66, 462.1, 0x3089_e711_9012_c79f),  // SortByKey
        (85.9, 18.15, 16.16, 19.14, 517.9, 0xf0b4_c28b_0d87_75c6),  // K-means
        (244.0, 58.32, 55.34, 66.75, 1831.0, 0x9ccf_e6c8_2fc3_82cd), // SVM
        (74.7, 19.30, 17.53, 22.11, 620.0, 0x1b22_d73e_dd33_17a5),  // PageRank
    ];
    rows.into_iter()
        .map(
            |(us_median, cost_median, cost_q1, cost_q3, allocs_per_run, digest)| Measured {
                us_median,
                cost_median,
                cost_q1,
                cost_q3,
                allocs_per_run,
                digest,
            },
        )
        .collect()
}

/// A fixed workload outside the engine, never to be optimized: SplitMix64
/// draws through Box–Muller into growing vectors, the engine's own mix of
/// transcendental math and allocation. It takes about 5 ms on the
/// reference machine.
fn calibration_kernel() -> f64 {
    let mut state = 0x0123_4567_89ab_cdefu64;
    let mut uniform = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    };
    let mut acc = 0.0;
    for _ in 0..400 {
        let mut samples: Vec<(f64, f64)> = Vec::new();
        for _ in 0..256 {
            let u1 = uniform().max(f64::MIN_POSITIVE);
            let u2 = uniform();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            samples.push((z, u1));
        }
        acc += samples.iter().map(|&(z, _)| z).sum::<f64>();
    }
    acc
}

fn elapsed_us(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1000.0
}

struct Workload {
    app: AppSpec,
    mode: &'static str,
    engine: Engine,
    grid: Vec<MemoryConfig>,
}

/// Runs the cell's whole grid once.
fn run_grid(w: &Workload, mut each: impl FnMut(&RunResult, &Profile)) {
    for config in &w.grid {
        let (result, profile) = w.engine.run(&w.app, config, SEED);
        each(&result, &profile);
    }
}

/// Nearest-rank quantile of an unsorted sample.
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

fn num(x: f64) -> Value {
    Value::Number(Number::F64(x))
}

fn measured_value(m: &Measured) -> Value {
    let mut row = Map::new();
    row.insert("us_median", num(m.us_median));
    row.insert("cost_median", num(m.cost_median));
    row.insert("cost_q1", num(m.cost_q1));
    row.insert("cost_q3", num(m.cost_q3));
    row.insert("cost_iqr", num(round2(m.cost_q3 - m.cost_q1)));
    row.insert("allocs_per_run", num(m.allocs_per_run));
    row.insert("digest", Value::String(format!("{:#018x}", m.digest)));
    Value::Object(row)
}

/// Measures every cell and writes `BENCH_engine.json` under `root`.
pub fn export(root: &Path) {
    let workloads: Vec<Workload> = MODES
        .iter()
        .flat_map(|&mode| {
            benchmark_suite().into_iter().map(move |app| {
                let engine = digest_engine(mode == "faulty");
                let grid = ConfigSpace::for_app(engine.cluster(), &app).grid();
                Workload {
                    app,
                    mode,
                    engine,
                    grid,
                }
            })
        })
        .collect();

    // Untimed first round: allocations and digests.
    let counted: Vec<(f64, u64)> = workloads
        .iter()
        .map(|w| {
            let mut h = Fnv64::new();
            let before = ALLOCS.with(Cell::get);
            run_grid(w, |r, p| fold_run(&mut h, r, p));
            let allocs = ALLOCS.with(Cell::get) - before;
            (round1(allocs as f64 / w.grid.len() as f64), h.finish())
        })
        .collect();

    // Per cell and round: µs per run, and that over the calibration
    // kernel's ms just before.
    let mut us: Vec<Vec<f64>> = vec![Vec::with_capacity(ROUNDS); workloads.len()];
    let mut cost: Vec<Vec<f64>> = vec![Vec::with_capacity(ROUNDS); workloads.len()];
    let mut calibration_us = Vec::with_capacity(ROUNDS * workloads.len());
    for _ in 0..ROUNDS {
        for (i, w) in workloads.iter().enumerate() {
            let start = Instant::now();
            std::hint::black_box(calibration_kernel());
            let cal_us = elapsed_us(start);
            let start = Instant::now();
            run_grid(w, |r, p| {
                std::hint::black_box((r, p));
            });
            let run_us = elapsed_us(start) / w.grid.len() as f64;
            us[i].push(run_us);
            cost[i].push(run_us / cal_us * 1000.0);
            calibration_us.push(cal_us);
        }
    }
    let calibration_us = round1(quantile(&calibration_us, 0.5));

    let current: Vec<Measured> = (0..workloads.len())
        .map(|i| Measured {
            us_median: round1(quantile(&us[i], 0.5)),
            cost_median: round2(quantile(&cost[i], 0.5)),
            cost_q1: round2(quantile(&cost[i], 0.25)),
            cost_q3: round2(quantile(&cost[i], 0.75)),
            allocs_per_run: counted[i].0,
            digest: counted[i].1,
        })
        .collect();
    let baseline = baseline_parent();

    let mut digests_match = true;
    let mut cells: Vec<Value> = Vec::new();
    for (i, w) in workloads.iter().enumerate() {
        let (before, after) = (&baseline[i], &current[i]);
        digests_match &= before.digest == after.digest;
        let speedup = round2(before.cost_median / after.cost_median);
        println!(
            "{:<10} {:<6} cost {:>7.2} (iqr {:>5.2}) vs {:>7.2} before: {speedup:.2}x; \
             {:>7.1} us/run; allocs/run {:>6.1} vs {:>6.1}; digest {:#018x}{}",
            w.app.name,
            w.mode,
            after.cost_median,
            after.cost_q3 - after.cost_q1,
            before.cost_median,
            after.us_median,
            after.allocs_per_run,
            before.allocs_per_run,
            after.digest,
            if before.digest == after.digest {
                ""
            } else {
                " CHANGED"
            },
        );
        let mut cell = Map::new();
        cell.insert("app", Value::String(w.app.name.clone()));
        cell.insert("mode", Value::String(w.mode.to_string()));
        cell.insert("baseline_parent", measured_value(before));
        cell.insert("current", measured_value(after));
        cell.insert("speedup", num(speedup));
        cell.insert(
            "speedup_raw_us",
            num(round2(before.us_median / after.us_median)),
        );
        cells.push(Value::Object(cell));
    }

    // Per mode, the median across apps of each cell's speedup.
    let mut speedup_by_mode = Map::new();
    for mode in MODES {
        let speedups: Vec<f64> = workloads
            .iter()
            .zip(baseline.iter().zip(&current))
            .filter(|(w, _)| w.mode == mode)
            .map(|(_, (before, after))| before.cost_median / after.cost_median)
            .collect();
        let speedup = round2(quantile(&speedups, 0.5));
        println!("{mode}: median speedup across apps {speedup:.2}x");
        speedup_by_mode.insert(mode, num(speedup));
    }
    println!(
        "calibration kernel: {calibration_us:.1} us (baseline runs: \
         {BASELINE_CALIBRATION_US:.1} us)"
    );

    let mut file = Map::new();
    file.insert(
        "description",
        Value::String(
            "Host time and heap allocations per Engine::run over each benchmark app's \
             192-configuration grid (seed 7), clean and under a uniform fault plan, against \
             a frozen baseline of the engine before its allocation and memoization work"
                .to_string(),
        ),
    );
    file.insert(
        "units",
        Value::String(
            "cost: us per run scaled to a 1 ms calibration kernel (median, quartiles over \
             rounds); us_median: raw host us per run; allocs_per_run: heap allocations"
                .to_string(),
        ),
    );
    file.insert(
        "nproc",
        Value::Number(Number::U64(
            std::thread::available_parallelism().map_or(0, |n| n.get()) as u64,
        )),
    );
    file.insert("rounds", Value::Number(Number::U64(ROUNDS as u64)));
    file.insert(
        "grid_configs",
        Value::Number(Number::U64(workloads[0].grid.len() as u64)),
    );
    file.insert("seed", Value::Number(Number::U64(SEED)));
    file.insert("fault_rate", num(ENGINE_FAULT_RATE));
    file.insert("calibration_us", num(calibration_us));
    file.insert("baseline_calibration_us", num(BASELINE_CALIBRATION_US));
    file.insert("digests_match_baseline", Value::Bool(digests_match));
    file.insert("speedup_median_across_apps", Value::Object(speedup_by_mode));
    file.insert("cells", Value::Array(cells));

    let out = root.join("BENCH_engine.json");
    let json = serde_json::to_string_pretty(&Value::Object(file)).expect("bench file serializes");
    std::fs::write(&out, json + "\n").expect("write BENCH_engine.json");
    println!("wrote {}", out.display());
    assert!(
        digests_match,
        "engine output differs from the baseline's: a speedup must not change any run"
    );
}
