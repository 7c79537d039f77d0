//! # churnlab-bench
//!
//! Experiment harness regenerating every table and figure of the paper
//! (see the `experiments` binary: `cargo run -p churnlab-bench --release
//! --bin experiments -- all`), plus Criterion performance benches and the
//! design-choice ablations called out in DESIGN.md.
//!
//! This library exposes the study-assembly helpers the binary and benches
//! share.

#![forbid(unsafe_code)]

pub mod argv;
pub mod campaignbench;
pub mod enginebench;
pub mod gate;
pub mod internbench;
pub mod longhaul;
pub mod matrix;
pub mod obsbench;
pub mod replaybench;
pub mod routebench;
pub mod satbench;

use churnlab_bgp::{ChurnConfig, RoutingSim};
use churnlab_censor::{CensorConfig, CensorshipScenario};
use churnlab_core::pipeline::{Pipeline, PipelineConfig, PipelineResults};
use churnlab_platform::{DatasetStats, Platform, PlatformConfig, PlatformScale};
use churnlab_topology::{generator, GeneratedWorld, WorldConfig, WorldScale};

/// Scales the harness understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds.
    Smoke,
    /// Under a minute.
    Small,
    /// Paper-scale (minutes; ~5M measurements).
    Paper,
}

/// Parse from CLI text (`smoke`, `small`, `paper`).
impl std::str::FromStr for Scale {
    type Err = ();

    fn from_str(s: &str) -> Result<Scale, ()> {
        match s {
            "smoke" => Ok(Scale::Smoke),
            "small" => Ok(Scale::Small),
            "paper" => Ok(Scale::Paper),
            _ => Err(()),
        }
    }
}

impl Scale {

    /// World preset.
    pub fn world(self, seed: u64) -> WorldConfig {
        let w = match self {
            Scale::Smoke => WorldScale::Smoke,
            Scale::Small => WorldScale::Small,
            Scale::Paper => WorldScale::Paper,
        };
        WorldConfig::preset(w, seed)
    }

    /// The CLI/manifest label.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }

    /// Platform preset.
    pub fn platform(self, seed: u64) -> PlatformConfig {
        let p = match self {
            Scale::Smoke => PlatformScale::Smoke,
            Scale::Small => PlatformScale::Small,
            Scale::Paper => PlatformScale::Paper,
        };
        PlatformConfig::preset(p, seed)
    }
}

/// An assembled world + scenario, reusable across pipeline variants.
pub struct Bench {
    /// The world.
    pub world: GeneratedWorld,
    /// Censorship ground truth.
    pub scenario: CensorshipScenario,
    /// Platform config.
    pub platform_cfg: PlatformConfig,
    /// Churn config.
    pub churn_cfg: ChurnConfig,
}

impl Bench {
    /// Assemble for a scale and seed.
    pub fn assemble(scale: Scale, seed: u64) -> Bench {
        let world_cfg = scale.world(seed);
        let platform_cfg = scale.platform(seed.wrapping_add(1));
        let world = generator::generate(&world_cfg);
        let mut censor_cfg = CensorConfig::scaled_for(world_cfg.n_countries);
        censor_cfg.seed = seed.wrapping_add(2);
        censor_cfg.total_days = platform_cfg.total_days;
        let scenario = CensorshipScenario::generate_for_world(&world, &censor_cfg);
        let churn_cfg = ChurnConfig {
            seed: seed.wrapping_add(3),
            total_days: platform_cfg.total_days,
            ..ChurnConfig::default()
        };
        Bench { world, scenario, platform_cfg, churn_cfg }
    }

    /// A routing simulator over this bench's world, honoring the world
    /// config's `tree_cache_capacity` (0 = sized automatically from the
    /// world's footprint).
    pub fn sim(&self) -> RoutingSim<'_> {
        RoutingSim::with_cache_capacity(
            &self.world.topology,
            &self.churn_cfg,
            self.world.config.tree_cache_capacity,
        )
    }

    /// Run the measurement campaign through a pipeline config.
    pub fn run(&self, pipeline_cfg: PipelineConfig) -> (DatasetStats, PipelineResults) {
        let platform = Platform::new(&self.world, &self.scenario, self.platform_cfg.clone());
        let sim = self.sim();
        let mut pipeline = Pipeline::new(&platform, pipeline_cfg);
        let stats = platform.run(&sim, |m| pipeline.ingest(&m));
        (stats, pipeline.finish())
    }

    /// Default pipeline config for this bench's period.
    pub fn pipeline_cfg(&self) -> PipelineConfig {
        PipelineConfig::paper(self.platform_cfg.total_days)
    }
}
