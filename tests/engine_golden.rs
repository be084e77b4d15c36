//! Golden output of the execution simulator.
//!
//! Folds every field of `Engine::run`'s `(RunResult, Profile)` — floats as
//! bit patterns, every GC event, every timeline sample — over all five
//! benchmark applications, a fixed slice of the Exhaustive Search grid and
//! two seeds, with and without a fault plan. The constant was computed
//! before the engine's allocation and memoization work; any change to the
//! simulator that moves a single bit of any run fails here.

use relm::prelude::*;
use relm_bench::{digest_engine, fold_run};
use relm_common::hash::Fnv64;

/// Digest of the golden cells, pinned from the engine before its
/// performance work.
const GOLDEN: u64 = 0xea4b_1338_dee5_f26e;

/// Every `GRID_STRIDE`-th configuration of each application's grid (24 of
/// 192) keeps the debug-build test to a few seconds.
const GRID_STRIDE: usize = 8;

const SEEDS: [u64; 2] = [7, 1_000_003];

#[test]
fn engine_output_matches_the_golden_digest() {
    let mut h = Fnv64::new();
    let mut runs = 0;
    for faulty in [false, true] {
        let engine = digest_engine(faulty);
        for app in benchmark_suite() {
            let grid = ConfigSpace::for_app(engine.cluster(), &app).grid();
            for config in grid.iter().step_by(GRID_STRIDE) {
                for seed in SEEDS {
                    let (result, profile) = engine.run(&app, config, seed);
                    fold_run(&mut h, &result, &profile);
                    runs += 1;
                }
            }
        }
    }
    assert_eq!(runs, 2 * 5 * 24 * SEEDS.len());
    assert_eq!(
        h.finish(),
        GOLDEN,
        "engine output changed: digest {:#018x}",
        h.finish()
    );
}
