//! The benchmark's inputs: a fixed pool of studies, each a generated
//! world, censorship scenario and measurement platform, and the timed
//! set-up that assembles one.
//!
//! A run samples studies from the pool in a seeded order. Many small
//! studies per run, rather than one large one, keep a run's figures from
//! hinging on a few: throughput and snapshot latency differ by ±25-30%
//! from one study to the next, and a run averages over dozens of them,
//! which is what makes two seeds comparable. The pool is not much larger
//! than what one run measures, so two seeds' mixes overlap by half or
//! more and differ less than two independent samples would.

use churnlab_bgp::{ChurnConfig, RoutingSim};
use churnlab_censor::{CensorConfig, CensorshipScenario};
use churnlab_platform::{Platform, PlatformConfig, PlatformScale};
use churnlab_topology::{generator, GeneratedWorld, WorldConfig, WorldScale};
use std::time::Instant;

/// Studies in the pool; `reference.json` holds a digest for each.
pub const POOL: u64 = 128;

/// The shape of every study in a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Label recorded with the reference digests.
    pub label: &'static str,
    world: WorldScale,
    platform: PlatformScale,
    /// URL-corpus override (0 keeps the preset's corpus).
    urls: usize,
    /// Tests-per-pair override (0 keeps the preset's cadence).
    tests_per_pair: u32,
}

/// The benchmark size: the Small world and platform presets (184
/// vantage points) with a 2-URL corpus tested at 24 tests per (vantage,
/// URL) pair over the year (2 tests on each of 12 testing days, the
/// paper's monthly cadence). About 8.8k measurements and 0.25 s of
/// fused campaign per study.
pub const BENCH: Size = Size {
    label: "small-2url-24tpp",
    world: WorldScale::Small,
    platform: PlatformScale::Small,
    urls: 2,
    tests_per_pair: 24,
};

/// The self-test size: the Smoke presets (about 9k measurements).
#[cfg(test)]
pub const SMOKE: Size = Size {
    label: "smoke",
    world: WorldScale::Smoke,
    platform: PlatformScale::Smoke,
    urls: 0,
    tests_per_pair: 0,
};

/// Seconds spent in each set-up step of one study.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `generator::generate` (the AS graph, prefixes, geography).
    pub generate_s: f64,
    /// `CensorshipScenario::generate_for_world`.
    pub scenario_s: f64,
    /// `Platform::new` (corpus, vantage placement, censor compilation).
    pub platform_new_s: f64,
    /// `RoutingSim` assembly.
    pub sim_new_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.scenario_s + self.platform_new_s + self.sim_new_s
    }
}

/// An assembled world and scenario, plus the configs a platform and a
/// routing simulator are built from. Sub-seeds follow the repository's
/// `Bench::assemble` convention.
struct World {
    world: GeneratedWorld,
    scenario: CensorshipScenario,
    platform_cfg: PlatformConfig,
    churn_cfg: ChurnConfig,
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// An assembled study: its platform plus what a fresh routing
/// simulator is built from.
pub struct Study<'w> {
    /// The measurement platform.
    pub platform: Platform<'w>,
    world: &'w World,
}

impl Study<'_> {
    /// A routing simulator with a cold tree cache. Each generator pass
    /// gets its own, so every pass computes the same trees.
    pub fn sim(&self) -> RoutingSim<'_> {
        RoutingSim::with_cache_capacity(
            &self.world.world.topology,
            &self.world.churn_cfg,
            self.world.world.config.tree_cache_capacity,
        )
    }
}

/// Assemble pool study `id` at `size`, timing each step (one `sim()`
/// call stands for the simulator's assembly), and hand it to `f`.
pub fn with_study<R>(size: &Size, id: u64, f: impl FnOnce(SetupTimes, &Study<'_>) -> R) -> R {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let world_cfg = WorldConfig::preset(size.world, id);
    let world = generator::generate(&world_cfg);
    times.generate_s = secs_since(t);

    let mut platform_cfg = PlatformConfig::preset(size.platform, id.wrapping_add(1));
    if size.urls > 0 {
        platform_cfg.n_urls = size.urls;
    }
    if size.tests_per_pair > 0 {
        platform_cfg.tests_per_pair = size.tests_per_pair;
    }
    let t = Instant::now();
    let mut censor_cfg = CensorConfig::scaled_for(world_cfg.n_countries);
    censor_cfg.seed = id.wrapping_add(2);
    censor_cfg.total_days = platform_cfg.total_days;
    let scenario = CensorshipScenario::generate_for_world(&world, &censor_cfg);
    times.scenario_s = secs_since(t);
    let churn_cfg = ChurnConfig {
        seed: id.wrapping_add(3),
        total_days: platform_cfg.total_days,
        ..ChurnConfig::default()
    };
    let w = World {
        world,
        scenario,
        platform_cfg,
        churn_cfg,
    };

    let t = Instant::now();
    let platform = Platform::new(&w.world, &w.scenario, w.platform_cfg.clone());
    times.platform_new_s = secs_since(t);
    let study = Study {
        platform,
        world: &w,
    };
    let t = Instant::now();
    drop(std::hint::black_box(study.sim()));
    times.sim_new_s = secs_since(t);
    f(times, &study)
}

/// SplitMix64: the benchmark's own seeded stream (input order only;
/// every study's content comes from the repository's generators).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The pool studies a run with `seed` measures, in order: a seeded
/// permutation of the pool, repeated if a run outlasts it.
pub fn order(seed: u64) -> impl Iterator<Item = u64> {
    let mut ids: Vec<u64> = (0..POOL).collect();
    let mut state = seed;
    for i in (1..ids.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        ids.swap(i, j);
    }
    ids.into_iter().cycle()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_a_seeded_permutation() {
        let a: Vec<u64> = order(1).take(POOL as usize).collect();
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..POOL).collect::<Vec<_>>());
        assert_eq!(a, order(1).take(POOL as usize).collect::<Vec<_>>());
        assert_ne!(a, order(2).take(POOL as usize).collect::<Vec<_>>());
    }
}
