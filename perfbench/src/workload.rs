//! The three served workloads: their streams, server configurations,
//! app and backend factories, and subscriber plans. Every input is a
//! pure function of the workload seed.

use fgqos_encoder::app::EncoderApp;
use fgqos_graph::iterate::IterationMode;
use fgqos_serve::{
    ChurnAction, ChurnEvent, ChurnStorm, FeedbackConfig, PacedSource, RingConfig, ServerConfig,
    StreamSpec,
};
use fgqos_sim::app::TableApp;
use fgqos_sim::budget::{BudgetSpec, ChannelParams};
use fgqos_sim::exec::{Deterministic, StochasticLoad};
use fgqos_sim::runner::RunConfig;
use fgqos_sim::runtime::{ExecBackend, ModelBackend};
use fgqos_sim::scenario::LoadScenario;
use fgqos_sim::SimError;
use fgqos_time::Cycles;

use crate::stats::Digest;

/// Pool width: the driver thread plus one resident worker.
pub const WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TableMix8,
    PixelQcif4,
    PixelChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TableMix8,
        Workload::PixelQcif4,
        Workload::PixelChurn,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::TableMix8 => "table_mix8",
            Workload::PixelQcif4 => "pixel_qcif4",
            Workload::PixelChurn => "pixel_churn",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Macroblocks per frame of every stream in the workload.
    #[must_use]
    pub fn macroblocks(self) -> usize {
        match self {
            Workload::TableMix8 | Workload::PixelQcif4 => 99,
            Workload::PixelChurn => (CHURN_W / 16) * (CHURN_H / 16),
        }
    }

    /// The shared server every pass of the workload runs on.
    #[must_use]
    pub fn server_config(self) -> ServerConfig {
        match self {
            Workload::TableMix8 | Workload::PixelQcif4 => ServerConfig::new(WORKERS).capacity(1e6),
            Workload::PixelChurn => ServerConfig::new(WORKERS)
                .capacity(3.0)
                .ring(RingConfig::frames(2))
                .feedback(FeedbackConfig {
                    lag_frames: 1,
                    lag_windows: 1,
                    clear_windows: 8,
                }),
        }
    }

    /// Drain interval (in ticks) of each subscriber opened per attached
    /// stream.
    #[must_use]
    pub fn subscribers(self) -> &'static [u64] {
        match self {
            Workload::TableMix8 => &[],
            Workload::PixelQcif4 => &[1],
            Workload::PixelChurn => &[1, 96],
        }
    }

    /// The attach/detach script. Static workloads attach every stream
    /// at time zero.
    #[must_use]
    pub fn script(self, seed: u64) -> Vec<ChurnEvent> {
        let at_zero = |spec| ChurnEvent {
            at: Cycles::ZERO,
            action: ChurnAction::Attach(spec),
        };
        match self {
            Workload::TableMix8 => table_specs(seed).into_iter().map(at_zero).collect(),
            Workload::PixelQcif4 => qcif_specs(seed).into_iter().map(at_zero).collect(),
            Workload::PixelChurn => churn_storm(seed).events(),
        }
    }
}

/// Stream class of a spec name, used to split per-stream layer times.
#[must_use]
pub fn class_of(name: &str) -> &'static str {
    if name.starts_with("paced") {
        "paced"
    } else if name.starts_with("channel") {
        "channel"
    } else {
        "pixel"
    }
}

/// SplitMix64 of `seed` and a stream index: independent per-stream
/// seeds from one workload seed.
#[must_use]
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const TABLE_STREAMS: u64 = 8;
/// Channel floor as a share of the stream period, in per-mille. Below
/// about 880 the floor budget makes `q_min` infeasible on some frames
/// (the controller falls back, and some seeds miss a deadline); at 900
/// `q_min` is always feasible, so the workload stays inside Proposition
/// 2.1's precondition.
const CHANNEL_FLOOR_PER_MILLE: u64 = 900;

/// `table_mix8`: four paced streams (deterministic nominal load, period
/// 2P, so budgets recur) and four on an adversarial channel (stochastic
/// load, budgets move every frame), all timing-only at 99 macroblocks
/// playing the paper's 582-frame benchmark.
fn table_specs(seed: u64) -> Vec<StreamSpec> {
    let base = RunConfig::paper_defaults().scaled_to_macroblocks(99);
    let p = base.period.get();
    (0..TABLE_STREAMS)
        .map(|i| {
            let s = mix(seed, i);
            let source = PacedSource::new(LoadScenario::paper_benchmark(s));
            if i % 2 == 0 {
                StreamSpec::builder(format!("paced-{}", i / 2))
                    .seed(s)
                    .config(base.with_period(Cycles::new(2 * p)))
                    .source(source)
                    .build()
            } else {
                let channel =
                    ChannelParams::adversarial(p * CHANNEL_FLOOR_PER_MILLE / 1000, p, mix(s, 1));
                StreamSpec::builder(format!("channel-{}", i / 2))
                    .seed(s)
                    .config(base.with_budget_source(BudgetSpec::Channel(channel)))
                    .source(source)
                    .build()
            }
        })
        .collect()
}

pub const QCIF_W: usize = 176;
pub const QCIF_H: usize = 144;
const QCIF_STREAMS: u64 = 4;
const QCIF_FRAMES: usize = 250;

/// `pixel_qcif4`: four pixel encoders at 176x144, pipelined macroblock
/// order, 250 frames of the paper's benchmark scenario each.
fn qcif_specs(seed: u64) -> Vec<StreamSpec> {
    let config = RunConfig::paper_defaults()
        .scaled_to_macroblocks(99)
        .with_iteration_mode(IterationMode::Pipelined);
    (0..QCIF_STREAMS)
        .map(|i| {
            let s = mix(seed, 100 + i);
            StreamSpec::builder(format!("qcif-{i}"))
                .seed(s)
                .config(config)
                .source(PacedSource::new(
                    LoadScenario::paper_benchmark(s).truncated(QCIF_FRAMES),
                ))
                .build()
        })
        .collect()
}

pub const CHURN_W: usize = 48;
pub const CHURN_H: usize = 32;

/// `pixel_churn`: 160 Poisson arrivals, a 16-stream flash crowd, Pareto
/// lifetimes of 16-240 frames, a quarter of the streams detached
/// mid-life.
fn churn_storm(seed: u64) -> ChurnStorm {
    ChurnStorm {
        arrivals: 160,
        flash_crowd: 16,
        min_lifetime_frames: 16,
        max_lifetime_frames: 240,
        detach_fraction: 0.25,
        macroblocks: Workload::PixelChurn.macroblocks(),
        ..ChurnStorm::paper_default(mix(seed, 200))
    }
}

/// App factory of the timing-only table streams.
pub fn table_app(scenario: LoadScenario, _spec: &StreamSpec) -> Result<TableApp, SimError> {
    TableApp::with_macroblocks(scenario, 99)
}

/// Paced table streams run the deterministic nominal model; channel
/// streams the stochastic model seeded per stream.
pub fn table_backend(spec: &StreamSpec) -> Box<dyn ExecBackend> {
    if class_of(&spec.name) == "paced" {
        Box::new(ModelBackend::new(Deterministic::nominal()))
    } else {
        Box::new(ModelBackend::new(StochasticLoad::new(spec.seed)))
    }
}

/// The camera clip a pixel stream encodes: a fixed input per stream slot
/// (its name), like a standard test sequence. The workload seed varies
/// everything else: scene activity, execution-time models, the churn
/// script. Synthetic content alone moves a four-stream run's mean
/// quality by about 9 % from seed to seed, which would drown every other
/// effect.
fn clip_seed(name: &str) -> u64 {
    let mut d = Digest::default();
    d.bytes(name.as_bytes());
    d.value()
}

/// App factory of the pixel streams at `w`x`h`.
pub fn pixel_app(
    w: usize,
    h: usize,
) -> impl FnMut(LoadScenario, &StreamSpec) -> Result<EncoderApp, SimError> + Copy {
    move |scenario, spec| EncoderApp::new(scenario, w, h, clip_seed(&spec.name))
}

/// The pixel encoder's own work-driven backend.
pub fn pixel_backend(spec: &StreamSpec) -> Box<dyn ExecBackend> {
    Box::new(EncoderApp::work_backend(spec.seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_pure_functions_of_the_seed() {
        let key = |events: Vec<ChurnEvent>| -> Vec<(Cycles, String, u64)> {
            events
                .into_iter()
                .map(|e| match e.action {
                    ChurnAction::Attach(spec) => (e.at, spec.name, spec.seed),
                    ChurnAction::Detach(name) => (e.at, name, 0),
                })
                .collect()
        };
        for w in Workload::ALL {
            let a = key(w.script(5));
            assert_eq!(a, key(w.script(5)));
            assert_ne!(a, key(w.script(6)), "{}", w.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
