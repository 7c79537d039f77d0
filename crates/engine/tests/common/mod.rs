//! The smoke study the engine's integration tests share: one seed
//! derives the world, the censors, the platform and the churn process.

#![allow(dead_code)] // each test binary uses its own subset

use churnlab_bgp::{ChurnConfig, RoutingSim};
use churnlab_censor::{CensorConfig, CensorshipScenario};
use churnlab_platform::{Measurement, Platform, PlatformConfig, PlatformScale};
use churnlab_topology::{generator, GeneratedWorld, WorldConfig, WorldScale};

pub struct Study {
    pub world: GeneratedWorld,
    pub scenario: CensorshipScenario,
    pub platform_cfg: PlatformConfig,
    pub churn_cfg: ChurnConfig,
}

pub fn study(seed: u64) -> Study {
    let world = generator::generate(&WorldConfig::preset(WorldScale::Smoke, seed));
    let mut censor_cfg = CensorConfig::scaled_for(world.topology.countries().len());
    censor_cfg.seed = seed.wrapping_add(2);
    let platform_cfg = PlatformConfig::preset(PlatformScale::Smoke, seed.wrapping_add(1));
    censor_cfg.total_days = platform_cfg.total_days;
    let scenario = CensorshipScenario::generate_for_world(&world, &censor_cfg);
    let churn_cfg = ChurnConfig {
        seed: seed.wrapping_add(3),
        total_days: platform_cfg.total_days,
        ..ChurnConfig::default()
    };
    Study { world, scenario, platform_cfg, churn_cfg }
}

impl Study {
    pub fn platform(&self) -> Platform<'_> {
        Platform::new(&self.world, &self.scenario, self.platform_cfg.clone())
    }

    pub fn sim(&self) -> RoutingSim<'_> {
        RoutingSim::new(&self.world.topology, &self.churn_cfg)
    }
}

/// The study's platform and its whole campaign, collected.
pub fn measurements(s: &Study) -> (Platform<'_>, Vec<Measurement>) {
    let platform = s.platform();
    let (ms, _) = platform.run_collect(&s.sim());
    (platform, ms)
}
