//! The seeded fault plan: rates plus a deterministic site-addressed
//! injector.

use relm_common::Rng;
use serde::{Deserialize, Serialize};

/// A fault the plan injects into one wave attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InjectedFault {
    /// Kill one container (a transient infrastructure hiccup: preemption,
    /// an operator restart, a kernel OOM-killer race).
    ContainerKill,
    /// Lose a whole node: every container on it dies at once.
    NodeLoss,
}

/// Injection rates. All probabilities are per decision site; a rate of 0
/// disables that fault class entirely.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability that a container is killed during one wave attempt.
    pub container_kill_rate: f64,
    /// Probability that a node is lost during one wave attempt.
    pub node_loss_rate: f64,
    /// Probability that a container straggles during one wave attempt.
    pub straggler_rate: f64,
    /// Wall-time multiplier applied to a straggling container's wave
    /// (≥ 1.0).
    pub straggler_slowdown: f64,
    /// Probability that a run's collected profile comes back degraded
    /// (monitoring gaps, clock skew, lost samples).
    pub profile_corruption_rate: f64,
    /// Relative noise applied to a corrupted profile's summary statistics.
    pub profile_noise: f64,
}

impl FaultConfig {
    /// No faults at all.
    pub fn off() -> Self {
        FaultConfig {
            container_kill_rate: 0.0,
            node_loss_rate: 0.0,
            straggler_rate: 0.0,
            straggler_slowdown: 1.0,
            profile_corruption_rate: 0.0,
            profile_noise: 0.0,
        }
    }

    /// A balanced mix scaled by one headline `rate` — the knob the
    /// fault-rate sweep turns. Container kills fire at the full rate,
    /// node loss at a quarter of it (nodes fail less often than
    /// containers), stragglers at half, and profile corruption at half.
    pub fn uniform(rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        FaultConfig {
            container_kill_rate: rate,
            node_loss_rate: rate * 0.25,
            straggler_rate: rate * 0.5,
            straggler_slowdown: 2.5,
            profile_corruption_rate: rate * 0.5,
            profile_noise: 0.25,
        }
    }

    /// True when every rate is zero — the plan will never inject.
    pub fn is_off(&self) -> bool {
        self.container_kill_rate == 0.0
            && self.node_loss_rate == 0.0
            && self.straggler_rate == 0.0
            && self.profile_corruption_rate == 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::off()
    }
}

/// Site tags keep the per-site random streams decorrelated: two different
/// fault classes drawing at the same `(run, stage, wave, container,
/// attempt)` coordinates see independent uniforms.
#[derive(Clone, Copy)]
enum Site {
    ContainerKill = 1,
    NodeLoss = 2,
    Straggler = 3,
    Profile = 4,
}

/// A fully deterministic fault plan. Every decision is a pure function of
/// `(plan seed, site)`, so two engines holding equal plans inject exactly
/// the same faults regardless of evaluation order, thread, or platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    config: FaultConfig,
}

// Site addressing uses FNV-1a from `relm_common::hash` — the same
// construction the engine uses for sticky data skew and the evaluation
// cache uses for content addressing, chosen for cross-platform stability.
use relm_common::hash::{fnv1a64_parts as site_hash, fnv1a64_str as str_hash};

impl FaultPlan {
    /// Creates a plan from a seed and rates.
    pub fn new(seed: u64, config: FaultConfig) -> Self {
        FaultPlan { seed, config }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's rates.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// True when this plan never injects anything.
    pub fn is_off(&self) -> bool {
        self.config.is_off()
    }

    /// The random stream at one site: FNV-1a over the plan seed, the site
    /// tag, the run seed, the stage name's hash and up to three `coords`.
    fn site_rng(&self, site: Site, run_seed: u64, stage: &str, coords: &[u64]) -> Rng {
        let mut parts = [self.seed, site as u64, run_seed, str_hash(stage), 0, 0, 0];
        let len = 4 + coords.len();
        parts[4..len].copy_from_slice(coords);
        Rng::new(site_hash(&parts[..len]))
    }

    /// Does this wave attempt kill `container`? Transient: a retry of the
    /// same wave draws a new attempt coordinate and usually survives.
    pub fn container_kill(
        &self,
        run_seed: u64,
        stage: &str,
        wave: u32,
        container: usize,
        attempt: u32,
    ) -> Option<InjectedFault> {
        if self.config.container_kill_rate <= 0.0 {
            return None;
        }
        let mut rng = self.site_rng(
            Site::ContainerKill,
            run_seed,
            stage,
            &[wave as u64, container as u64, attempt as u64],
        );
        rng.chance(self.config.container_kill_rate)
            .then_some(InjectedFault::ContainerKill)
    }

    /// Does this wave attempt lose a node? Returns the victim node index
    /// in `[0, nodes)`.
    pub fn node_loss(
        &self,
        run_seed: u64,
        stage: &str,
        wave: u32,
        attempt: u32,
        nodes: u32,
    ) -> Option<u32> {
        if self.config.node_loss_rate <= 0.0 || nodes == 0 {
            return None;
        }
        let mut rng = self.site_rng(
            Site::NodeLoss,
            run_seed,
            stage,
            &[wave as u64, attempt as u64],
        );
        rng.chance(self.config.node_loss_rate)
            .then(|| rng.below(nodes as usize) as u32)
    }

    /// Does `container` straggle during this wave attempt? Returns the
    /// slowdown multiplier (≥ 1.0).
    pub fn straggler(
        &self,
        run_seed: u64,
        stage: &str,
        wave: u32,
        container: usize,
        attempt: u32,
    ) -> Option<f64> {
        if self.config.straggler_rate <= 0.0 {
            return None;
        }
        let mut rng = self.site_rng(
            Site::Straggler,
            run_seed,
            stage,
            &[wave as u64, container as u64, attempt as u64],
        );
        if !rng.chance(self.config.straggler_rate) {
            return None;
        }
        // Spread the slowdown in [1 + (s-1)/2, 1 + 3(s-1)/2]: some
        // stragglers limp, some crawl.
        let base = self.config.straggler_slowdown.max(1.0) - 1.0;
        Some(1.0 + base * rng.uniform_in(0.5, 1.5))
    }

    /// Is this run's profile corrupted? Returns a noise generator for the
    /// corruption, seeded per run.
    pub fn profile_corruption(&self, run_seed: u64) -> Option<ProfileNoise> {
        if self.config.profile_corruption_rate <= 0.0 {
            return None;
        }
        let mut rng = self.site_rng(Site::Profile, run_seed, "", &[]);
        rng.chance(self.config.profile_corruption_rate)
            .then_some(ProfileNoise {
                rng,
                relative: self.config.profile_noise,
            })
    }
}

/// Deterministic noise source for one corrupted profile.
#[derive(Debug)]
pub struct ProfileNoise {
    rng: Rng,
    relative: f64,
}

impl ProfileNoise {
    /// The next multiplicative noise factor, centred at 1.0 and clamped
    /// away from zero.
    pub fn factor(&mut self) -> f64 {
        self.rng.noise_factor(self.relative)
    }

    /// A deterministic biased coin, for dropping individual samples
    /// (monitoring gaps lose events, not just precision).
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.chance(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(rate: f64) -> FaultPlan {
        FaultPlan::new(42, FaultConfig::uniform(rate))
    }

    #[test]
    fn off_plan_never_injects() {
        let p = FaultPlan::new(1, FaultConfig::off());
        assert!(p.is_off());
        for wave in 0..50 {
            assert!(p.container_kill(9, "map", wave, 3, 0).is_none());
            assert!(p.node_loss(9, "map", wave, 0, 8).is_none());
            assert!(p.straggler(9, "map", wave, 3, 0).is_none());
        }
        assert!(p.profile_corruption(9).is_none());
    }

    #[test]
    fn decisions_are_deterministic_per_site() {
        let a = plan(0.3);
        let b = plan(0.3);
        for wave in 0..100 {
            for container in 0..4 {
                assert_eq!(
                    a.container_kill(7, "shuffle", wave, container, 1),
                    b.container_kill(7, "shuffle", wave, container, 1)
                );
                assert_eq!(
                    a.straggler(7, "shuffle", wave, container, 1),
                    b.straggler(7, "shuffle", wave, container, 1)
                );
            }
            assert_eq!(
                a.node_loss(7, "shuffle", wave, 2, 8),
                b.node_loss(7, "shuffle", wave, 2, 8)
            );
        }
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let a = FaultPlan::new(1, FaultConfig::uniform(0.3));
        let b = FaultPlan::new(2, FaultConfig::uniform(0.3));
        let hits = |p: &FaultPlan| -> usize {
            (0..200)
                .filter(|&w| p.container_kill(5, "map", w, 0, 0).is_some())
                .count()
        };
        // Same expected rate, different draw sites.
        let ha = hits(&a);
        let hb = hits(&b);
        assert!(ha > 0 && hb > 0);
        let same: usize = (0..200)
            .filter(|&w| {
                a.container_kill(5, "map", w, 0, 0).is_some()
                    == b.container_kill(5, "map", w, 0, 0).is_some()
            })
            .count();
        assert!(same < 200, "plans with different seeds must disagree");
    }

    #[test]
    fn retry_attempts_draw_independently() {
        // A kill on attempt 0 must not imply a kill on attempt 1 — that is
        // what makes injected kills *transient*.
        let p = plan(0.3);
        let differs = (0..200).any(|w| {
            p.container_kill(3, "map", w, 0, 0).is_some()
                != p.container_kill(3, "map", w, 0, 1).is_some()
        });
        assert!(differs);
    }

    #[test]
    fn rates_are_approximately_honoured() {
        let p = FaultPlan::new(11, FaultConfig::uniform(0.2));
        let n = 5_000;
        let kills = (0..n)
            .filter(|&w| p.container_kill(1, "map", w, 0, 0).is_some())
            .count();
        let frac = kills as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.03, "kill rate {frac} far from 0.2");
    }

    #[test]
    fn straggler_slowdown_is_above_one() {
        let p = plan(0.9);
        let mut seen = 0;
        for w in 0..100 {
            if let Some(s) = p.straggler(2, "map", w, 1, 0) {
                assert!(s > 1.0, "slowdown {s} must exceed 1.0");
                seen += 1;
            }
        }
        assert!(seen > 0);
    }

    #[test]
    fn node_loss_victim_is_in_range() {
        let p = FaultPlan::new(3, FaultConfig::uniform(1.0));
        for w in 0..50 {
            if let Some(node) = p.node_loss(4, "map", w, 0, 8) {
                assert!(node < 8);
            }
        }
    }

    #[test]
    fn profile_noise_is_deterministic() {
        let mut config = FaultConfig::off();
        config.profile_corruption_rate = 1.0;
        config.profile_noise = 0.25;
        let p = FaultPlan::new(42, config);
        let mut a = p.profile_corruption(17).unwrap();
        let mut b = p.profile_corruption(17).unwrap();
        for _ in 0..16 {
            assert_eq!(a.factor(), b.factor());
        }
    }

    #[test]
    fn plan_round_trips_through_json() {
        let p = plan(0.15);
        let text = serde_json::to_string(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&text).unwrap();
        assert_eq!(p, back);
    }
}
