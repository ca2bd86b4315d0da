//! Runtime-layer integration: the `Clock`/`ExecBackend` seam end-to-end.
//!
//! Three claims are pinned here:
//!
//! * the explicit seam (`run_on` with a `VirtualClock` + `ModelBackend`)
//!   is the *same computation* as the legacy `run` entry points — every
//!   per-frame record identical;
//! * `DeadlineShape::FinalOnly` survives a full stream end-to-end, on
//!   both the timing-only app and the pixel encoder (the smoke tests
//!   only exercised `PerIteration`);
//! * a wall-clock run of the pixel encoder completes in real time
//!   without skips.

use std::time::Duration;

use fine_grain_qos::core::policy::MaxQuality;
use fine_grain_qos::encoder::app::EncoderApp;
use fine_grain_qos::encoder::timing;
use fine_grain_qos::prelude::*;
use fine_grain_qos::sim::exec::StochasticLoad;
use fine_grain_qos::sim::runner::DeadlineShape;
use fine_grain_qos::sim::runtime::{MeasuredBackend, ModelBackend, VirtualClock, WallClock};

#[test]
fn explicit_seam_reproduces_legacy_run_byte_for_byte() {
    let mk = || {
        let scenario = LoadScenario::paper_benchmark(11).truncated(60);
        let app = TableApp::with_macroblocks(scenario, 10).unwrap();
        Runner::new(app, RunConfig::paper_defaults().scaled_to_macroblocks(10)).unwrap()
    };
    let mut legacy = mk();
    let expected = legacy.run_controlled(&mut MaxQuality::new(), 33).unwrap();
    let mut seam = mk();
    let mut clock = VirtualClock::new();
    let mut backend = ModelBackend::new(StochasticLoad::new(33));
    let actual = seam
        .run_on(
            &mut clock,
            &mut backend,
            Mode::Controlled,
            &mut MaxQuality::new(),
            None,
        )
        .unwrap();
    assert_eq!(expected.frames(), actual.frames());
    assert_eq!(expected.summary(), actual.summary());
}

#[test]
fn final_only_deadlines_run_a_full_stream_end_to_end() {
    // FinalOnly: only the last macroblock's actions carry the budget —
    // the controller has maximal freedom inside the frame but must still
    // land every frame inside its buffer budget (Proposition 2.1 applies
    // to the final deadline exactly as to the paced ones).
    let scenario = LoadScenario::paper_benchmark(11).truncated(80);
    let app = TableApp::with_macroblocks(scenario, 10).unwrap();
    let config = RunConfig::paper_defaults()
        .scaled_to_macroblocks(10)
        .with_deadline_shape(DeadlineShape::FinalOnly);
    let mut runner = Runner::new(app, config).unwrap();
    let res = runner.run_controlled(&mut MaxQuality::new(), 9).unwrap();
    assert_eq!(res.frames().len(), 80);
    assert_eq!(res.skips(), 0, "{}", res.summary());
    assert_eq!(res.misses(), 0, "{}", res.summary());
    assert_eq!(res.fallbacks(), 0);
    assert!(runner.monitor().all_safe());
    // The shape actually buys quality: with the whole budget available
    // up front, the mean level must not fall below the paced shape's on
    // the same stream and seed.
    let scenario = LoadScenario::paper_benchmark(11).truncated(80);
    let app = TableApp::with_macroblocks(scenario, 10).unwrap();
    let paced_config = RunConfig::paper_defaults().scaled_to_macroblocks(10);
    let mut paced = Runner::new(app, paced_config).unwrap();
    let paced_res = paced.run_controlled(&mut MaxQuality::new(), 9).unwrap();
    assert!(
        res.mean_quality() >= paced_res.mean_quality() - 1e-9,
        "final-only {} vs per-iteration {}",
        res.mean_quality(),
        paced_res.mean_quality()
    );
}

#[test]
fn final_only_deadlines_hold_for_the_pixel_encoder() {
    let scenario = LoadScenario::paper_benchmark(3).truncated(10);
    let app = EncoderApp::new(scenario, 48, 32, 5).unwrap();
    let n = fine_grain_qos::sim::app::ParallelApp::iterations(&app);
    let config = RunConfig::paper_defaults()
        .scaled_to_macroblocks(n)
        .with_deadline_shape(DeadlineShape::FinalOnly);
    let mut runner = Runner::new(app, config).unwrap();
    let mut clock = VirtualClock::new();
    let mut backend = EncoderApp::work_backend(3);
    let res = runner
        .run_on(
            &mut clock,
            &mut backend,
            Mode::Controlled,
            &mut MaxQuality::new(),
            None,
        )
        .unwrap();
    assert_eq!(res.skips(), 0, "{}", res.summary());
    assert_eq!(res.misses(), 0, "{}", res.summary());
    assert!(res.mean_psnr() > 26.0, "{}", res.summary());
}

#[test]
fn wall_clock_pixel_run_completes_without_skips() {
    // A short live run, as in examples/live_encoder.rs but sized for the
    // test suite: 4 frames at a 40 ms real period. The encoder needs
    // well under a period per frame, so even a loaded CI host keeps up;
    // misses are not asserted (they depend on host jitter), skips are
    // (they would need a full period of stall).
    let scenario = LoadScenario::paper_benchmark(3).truncated(4);
    let app = EncoderApp::new(scenario, 48, 32, 7).unwrap();
    let n = fine_grain_qos::sim::app::ParallelApp::iterations(&app);
    let config = RunConfig::paper_defaults().scaled_to_macroblocks(n);
    let rate = timing::wall_rate(n, Duration::from_millis(40));
    let mut runner = Runner::new(app, config).unwrap();
    let mut clock = WallClock::new(rate);
    let mut backend = MeasuredBackend::new();
    let res = runner
        .run_on(
            &mut clock,
            &mut backend,
            Mode::Controlled,
            &mut MaxQuality::new(),
            None,
        )
        .unwrap();
    assert_eq!(res.frames().len(), 4);
    assert_eq!(res.skips(), 0, "{}", res.summary());
}
