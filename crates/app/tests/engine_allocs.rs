//! Allocation gate for `Engine::run`.
//!
//! A counting global allocator tallies every heap allocation (fresh or
//! resized) made by the test's own thread while the engine runs a fixed
//! slice of the Exhaustive Search grid, clean and under a fault plan.
//! Allocation counts are exact and carry no run-to-run noise, so unlike a
//! timing gate this one can only fail when the engine really allocates
//! more.

use relm_app::Engine;
use relm_cluster::ClusterSpec;
use relm_faults::{FaultConfig, FaultPlan};
use relm_tune::ConfigSpace;
use relm_workloads::benchmark_suite;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Every `GRID_STRIDE`-th configuration of each application's grid.
const GRID_STRIDE: usize = 16;

/// Allocations the engine made over the slice before its allocation
/// work, counted with this harness: clean runs, then faulty runs.
const BEFORE_CLEAN: u64 = 29_016;
const BEFORE_FAULTY: u64 = 45_972;

/// Total allocations made inside `Engine::run` over the grid slice.
fn allocations(engine: &Engine) -> u64 {
    let mut total = 0;
    for app in benchmark_suite() {
        let grid = ConfigSpace::for_app(engine.cluster(), &app).grid();
        for config in grid.iter().step_by(GRID_STRIDE) {
            let before = ALLOCS.with(Cell::get);
            let out = engine.run(&app, config, 7);
            total += ALLOCS.with(Cell::get) - before;
            drop(out);
        }
    }
    total
}

#[test]
fn engine_runs_allocate_far_less_than_before() {
    let clean = allocations(&Engine::new(ClusterSpec::cluster_a()));
    let faulty = allocations(
        &Engine::new(ClusterSpec::cluster_a())
            .with_faults(FaultPlan::new(17, FaultConfig::uniform(0.08))),
    );
    println!("allocations: clean {clean} (before {BEFORE_CLEAN}), faulty {faulty} (before {BEFORE_FAULTY})");
    assert!(
        clean * 10 <= BEFORE_CLEAN * 6,
        "clean runs made {clean} allocations, over 60% of the {BEFORE_CLEAN} before"
    );
    assert!(
        faulty * 10 <= BEFORE_FAULTY * 4,
        "faulty runs made {faulty} allocations, over 40% of the {BEFORE_FAULTY} before"
    );
}
