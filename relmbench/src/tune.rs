//! `tune_converge`: RelM, BO, GBO and DDPG each run `Tuner::tune` to
//! their own stopping rule on all five applications, one session at a
//! time on one thread, in-process.

use crate::settle::{SessionInput, Settled};
use crate::stats::Bag;
use crate::{mix, Round};
use relm_bo::{BayesOpt, BoConfig};
use relm_core::RelmTuner;
use relm_ddpg::DdpgTuner;
use relm_obs::{FieldValue, Obs};
use relm_tune::Tuner;
use relm_workloads::benchmark_suite;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

pub const POLICIES: [&str; 4] = ["relm", "bo", "gbo", "ddpg"];
/// Spans one traced session may record; the run fails if any is dropped.
const SESSION_SPAN_CAPACITY: usize = 1 << 16;

fn tuner(policy: usize, seed: u64, scoring_threads: usize) -> Box<dyn Tuner> {
    let bo = BoConfig {
        scoring_threads,
        ..BoConfig::default()
    };
    match policy {
        0 => Box::new(RelmTuner::default()),
        1 => Box::new(BayesOpt::new(seed).with_config(bo)),
        2 => Box::new(BayesOpt::guided(seed).with_config(bo)),
        _ => Box::new(DdpgTuner::new(seed)),
    }
}

/// One round: every tuner on every application. With `traced`, each
/// session gets its own recording handle and its spans are booked into
/// the round's ledger.
pub fn round(seed: u64, scoring_threads: usize, traced: bool) -> Round {
    let mut round = Round::default();
    for policy in 0..POLICIES.len() {
        for a in 0..APPS {
            session(&mut round, seed, (policy, 0, a), scoring_threads, traced);
        }
    }
    round
}

/// Applications in the suite: sessions cycle through all of them.
pub const APPS: usize = 5;

/// Runs tuner `policy` to convergence on application `a` under session
/// seed `s` of `seed`, and books it into `round`.
pub fn session(
    round: &mut Round,
    seed: u64,
    (policy, s, a): (usize, usize, usize),
    scoring_threads: usize,
    traced: bool,
) {
    let obs = if traced {
        Obs::with_capacity(SESSION_SPAN_CAPACITY)
    } else {
        Obs::disabled()
    };
    let app = benchmark_suite().swap_remove(a);
    let key = format!("{}/{}/{s}", POLICIES[policy], app.name);
    let input = SessionInput {
        app,
        base_seed: mix(seed, (s * APPS + a) as u64),
        faults: None,
    };
    let mut env = input.env(&obs);
    let mut tuner = tuner(policy, mix(seed ^ 0x7E57, s as u64), scoring_threads);
    round.tally.attempted += 1;
    let t0 = Instant::now();
    let outcome = {
        let _span = obs.span("bench.tune");
        catch_unwind(AssertUnwindSafe(|| tuner.tune(&mut env)))
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    match outcome {
        Ok(Ok(_)) => {}
        Ok(Err(e)) => {
            round.tally.protocol += 1;
            round.tally.note(format!("{key}: {e}"));
            return;
        }
        Err(_) => {
            round.tally.panics += 1;
            round.tally.note(format!("{key}: tuner panicked"));
            return;
        }
    }
    round.wall_s += wall_ms / 1e3;
    let evals = env.evaluations();
    round.evals += evals as u64;
    round.converge.push((policy, wall_ms));
    round.steps_ms.push(wall_ms / evals.max(1) as f64);
    if traced {
        book_session(&obs, policy, wall_ms, evals, &mut round.bag);
    }
    let stress_ms = env.stress_time().as_ms();
    round.settled.push(Settled::new(
        key,
        Some(policy),
        input,
        env.history().to_vec(),
        stress_ms,
    ));
}

/// Books one traced session: tuner self time (session wall minus the
/// environment's evaluate spans), engine host time, and each tuner
/// layer's own spans as per-call samples and per-session sums.
fn book_session(obs: &Obs, policy: usize, wall_ms: f64, evals: usize, bag: &mut Bag) {
    let snapshot = obs.snapshot();
    bag.add("obs.spans_dropped", snapshot.dropped_spans as f64);
    let p = POLICIES[policy];
    let mut evaluate_ms = 0.0;
    let mut engine_ms = 0.0;
    for span in &snapshot.spans {
        let ms = span.duration_ms();
        let layer = match span.name.as_str() {
            "env.evaluate" => {
                evaluate_ms += ms;
                continue;
            }
            "engine.run" => {
                engine_ms += ms;
                bag.add("engine_run_ms", ms);
                bag.add("engine_run_n", 1.0);
                continue;
            }
            "bo.fit_surrogate" => {
                bag.push("surrogate.fit_ms", ms);
                bag.add("surrogate.fit_ms", ms);
                let guided = span
                    .fields
                    .iter()
                    .any(|(k, v)| k == "guided" && *v == FieldValue::Bool(true));
                if guided {
                    "gbo.fit_ms"
                } else {
                    "bo.fit_ms"
                }
            }
            "bo.maximize_ei" if policy == 2 => "gbo.acq_ms",
            "bo.maximize_ei" => "bo.acq_ms",
            "ddpg.act" => "ddpg.act_ms",
            "ddpg.update" => "ddpg.update_ms",
            "relm.derive_stats" => "relm.stats_ms",
            "relm.decide" => "relm.decide_ms",
            _ => continue,
        };
        bag.push(layer, ms);
        bag.add(layer, ms);
    }
    for (name, value) in &snapshot.counters {
        if name == "engine.runs" || name == "engine.aborts" {
            bag.add(name, *value);
        }
    }
    for h in &snapshot.histograms {
        match h.name.as_str() {
            "engine.run_ms" => bag.add("sim_run_ms", h.sum),
            "engine.gc_ms" => bag.add("sim_gc_ms", h.sum),
            _ => {}
        }
    }
    bag.add(&format!("sessions.{p}"), 1.0);
    if matches!(policy, 1 | 2) {
        bag.add("sessions.bo_family", 1.0);
    }
    bag.add(&format!("wall_ms.{p}"), wall_ms);
    bag.add(&format!("evals.{p}"), evals as f64);
    bag.add(&format!("self_ms.{p}"), wall_ms - evaluate_ms);
    bag.add(&format!("engine_ms.{p}"), engine_ms);
}
