//! Ablations for the Section 4 extension directions:
//!
//! * quality policies (max vs smooth vs hysteresis vs soft-deadline);
//! * online average estimation (frozen vs EWMA vs windowed) under a
//!   *miscalibrated* offline profile;
//! * deadline decomposition (per-iteration pacing vs final-only).

use fgqos_bench::ExpConfig;
use fgqos_core::estimator::{AvgEstimator, EwmaEstimator, WindowEstimator};
use fgqos_core::policy::{Hysteresis, MaxQuality, QualityPolicy, Smooth, SoftDeadline};
use fgqos_sim::app::{ParallelApp, TableApp};
use fgqos_sim::exec::StochasticLoad;
use fgqos_sim::runner::{DeadlineShape, Mode, Runner};

fn main() {
    let mut cfg = ExpConfig::from_args();
    // Ablations default to a lighter scale than the figures.
    if cfg.frames == fgqos_time::fig5::FRAME_COUNT {
        cfg.frames = 200;
    }
    println!(
        "== Ablations (frames={} macroblocks={} seed={}) ==",
        cfg.frames, cfg.macroblocks, cfg.seed
    );

    println!("\n-- policies --");
    println!(
        "{:<18} {:>6} {:>8} {:>10} {:>10} {:>12}",
        "policy", "skips", "misses", "mean q", "PSNR dB", "q switches"
    );
    let policies: Vec<(&str, Box<dyn QualityPolicy>)> = vec![
        ("max (paper)", Box::new(MaxQuality::new())),
        ("smooth(1)", Box::new(Smooth::new(1))),
        ("smooth(2)", Box::new(Smooth::new(2))),
        ("hysteresis(8)", Box::new(Hysteresis::new(8))),
        ("soft-deadline", Box::new(SoftDeadline::new())),
    ];
    for (name, mut policy) in policies {
        let app = TableApp::with_macroblocks(cfg.scenario(), cfg.macroblocks).unwrap();
        let mut runner = Runner::new(app, cfg.run_config(1)).unwrap();
        let res = runner.run_controlled(policy.as_mut(), cfg.seed).unwrap();
        let switches: usize = res.frames().iter().map(|f| f.quality_switches).sum();
        println!(
            "{name:<18} {:>6} {:>8} {:>10.2} {:>10.2} {:>12}",
            res.skips(),
            res.misses(),
            res.mean_quality(),
            res.mean_psnr(),
            switches
        );
    }

    println!("\n-- estimators (offline averages inflated 2x) --");
    println!(
        "{:<18} {:>6} {:>8} {:>10} {:>10}",
        "estimator", "skips", "misses", "mean q", "PSNR dB"
    );
    for which in ["frozen", "ewma", "window"] {
        let app = miscalibrated_app(&cfg);
        let qs = app.profile().qualities().clone();
        let n_actions = app.body().len();
        let mut runner = Runner::new(app, cfg.run_config(1)).unwrap();
        let mut policy = MaxQuality::new();
        let mut exec = StochasticLoad::new(cfg.seed);
        let mut ewma;
        let mut window;
        let estimator: Option<&mut dyn AvgEstimator> = match which {
            "ewma" => {
                ewma = EwmaEstimator::new(n_actions, qs, 0.1);
                Some(&mut ewma)
            }
            "window" => {
                window = WindowEstimator::new(n_actions, qs, 64);
                Some(&mut window)
            }
            _ => None,
        };
        let res = runner
            .run(Mode::Controlled, &mut policy, &mut exec, estimator)
            .unwrap();
        println!(
            "{which:<18} {:>6} {:>8} {:>10.2} {:>10.2}",
            res.skips(),
            res.misses(),
            res.mean_quality(),
            res.mean_psnr()
        );
    }

    println!("\n-- deadline decomposition --");
    println!(
        "{:<18} {:>6} {:>8} {:>10} {:>10}",
        "shape", "skips", "misses", "mean q", "PSNR dB"
    );
    for (name, shape) in [
        ("per-iteration", DeadlineShape::PerIteration),
        ("final-only", DeadlineShape::FinalOnly),
    ] {
        let app = TableApp::with_macroblocks(cfg.scenario(), cfg.macroblocks).unwrap();
        let mut runner = Runner::new(app, cfg.run_config(1).with_deadline_shape(shape)).unwrap();
        let res = runner
            .run_controlled(&mut MaxQuality::new(), cfg.seed)
            .unwrap();
        println!(
            "{name:<18} {:>6} {:>8} {:>10.2} {:>10.2}",
            res.skips(),
            res.misses(),
            res.mean_quality(),
            res.mean_psnr()
        );
    }
    println!("\n(mean q under soft-deadline exceeds max-policy's; misses may be nonzero:");
    println!(" that is the documented trade-off of judging only the average constraint)");
}

/// A table app whose *declared* averages are twice reality: the estimator
/// ablation shows online learning recovering the lost quality headroom.
fn miscalibrated_app(cfg: &ExpConfig) -> TableApp {
    let app = TableApp::with_macroblocks(cfg.scenario(), cfg.macroblocks).unwrap();
    // Inflate the declared averages (capped at wc) by doubling via the
    // profile update API.
    let mut profile = app.profile().clone();
    let levels: Vec<fgqos_time::Quality> = profile.qualities().iter().collect();
    for a in 0..profile.n_actions() {
        for &q in &levels {
            let current = profile.avg_idx(a, q);
            let doubled = fgqos_time::Cycles::new(current.get().saturating_mul(2));
            let _ = profile.update_avg(a, q, doubled);
        }
    }
    app.with_profile_override(profile)
}
