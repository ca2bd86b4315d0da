//! The pixel encoder on the wall-clock runtime: a *live* controlled run.
//!
//! Everything the other examples simulate on the deterministic virtual
//! clock here happens in real time: the camera produces a frame every
//! `PERIOD_MS` milliseconds of wall time, the runner sleeps until
//! arrivals, each action is charged the real time it took
//! ([`MeasuredBackend`]), and deadline misses would reflect the host's
//! actual timing. The cycle domain is mapped onto the wall clock with
//! [`timing::wall_rate`]: the frame's share of the paper's 320 Mcycle
//! period spans exactly one real camera period, i.e. the platform is
//! scaled down from the paper's 8 GHz to what a comfortable real-time
//! margin on commodity hardware requires.
//!
//! On an idle machine the run completes with zero skips and zero misses
//! (the encoder needs far less than a period per frame; the generous
//! period absorbs OS scheduling jitter).
//!
//! ```sh
//! cargo run --release --example live_encoder
//! ```

use std::time::{Duration, Instant};

use fine_grain_qos::core::policy::MaxQuality;
use fine_grain_qos::encoder::app::EncoderApp;
use fine_grain_qos::encoder::timing;
use fine_grain_qos::sim::app::ParallelApp;
use fine_grain_qos::sim::runner::{Mode, RunConfig, Runner};
use fine_grain_qos::sim::runtime::{Clock, MeasuredBackend, WallClock};
use fine_grain_qos::sim::scenario::LoadScenario;

/// Real camera period. 25 ms ≈ 40 frame/s — scaled down in *cycle* terms,
/// but generous in wall terms for a 48×32 synthetic stream.
const PERIOD_MS: u64 = 25;
const FRAMES: usize = 16;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = LoadScenario::paper_benchmark(3).truncated(FRAMES);
    let app = EncoderApp::new(scenario, 48, 32, 7)?;
    let macroblocks = app.iterations();
    let config = RunConfig::paper_defaults().scaled_to_macroblocks(macroblocks);

    let rate = timing::wall_rate(macroblocks, Duration::from_millis(PERIOD_MS));
    println!(
        "live run: {FRAMES} frames of {macroblocks} macroblocks, camera period {PERIOD_MS} ms"
    );
    println!(
        "platform: {:.1} Mcycle/s (paper's 8 GHz scaled {}x down), budget {} per frame",
        rate as f64 / 1e6,
        8_000_000_000u64 / rate,
        config.period,
    );

    let mut runner = Runner::new(app, config)?;
    let mut clock = WallClock::new(rate);
    let mut backend = MeasuredBackend::new();
    let started = Instant::now();
    let result = runner.run_on(
        &mut clock,
        &mut backend,
        Mode::Controlled,
        &mut MaxQuality::new(),
        None,
    )?;
    let elapsed = started.elapsed();

    println!("\nframe  latency(ms)  encode(ms)  q̄     PSNR(dB)  misses");
    let to_ms = |c: fine_grain_qos::time::Cycles| c.get() as f64 * 1e3 / rate as f64;
    for f in result.frames() {
        if f.skipped {
            println!("{:>5}  (skipped)", f.frame);
            continue;
        }
        println!(
            "{:>5}  {:>11.2}  {:>10.2}  {:>4.2}  {:>8.2}  {:>6}",
            f.frame,
            to_ms(f.latency),
            to_ms(f.encode_cycles),
            f.mean_quality,
            f.psnr_db,
            f.misses,
        );
    }
    println!(
        "\n{} in {:.2} s of wall time (clock read {:.1} Mcycle)",
        result.summary(),
        elapsed.as_secs_f64(),
        clock.now().get() as f64 / 1e6,
    );

    let verdict = if result.skips() == 0 && result.misses() == 0 {
        "PASS: zero skips, zero misses in real time"
    } else {
        "WARN: the host was too loaded to hold the scaled real-time deadlines"
    };
    println!("{verdict}");
    Ok(())
}
