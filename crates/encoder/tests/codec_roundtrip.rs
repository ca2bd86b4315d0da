//! Encoder/decoder consistency: an independent decoder, given only the
//! bitstream, the previous reference and the frame QP, must reproduce
//! the encoder's reconstruction **bit-exactly** — the property that keeps
//! a hybrid codec from drifting.

use fgqos_core::policy::{ConstantQuality, MaxQuality, QualityPolicy};
use fgqos_encoder::app::EncoderApp;
use fgqos_encoder::decoder::decode_frame;
use fgqos_encoder::psnr::psnr;
use fgqos_sim::app::ParallelApp;
use fgqos_sim::exec::WorkDriven;
use fgqos_sim::runner::{Mode, RunConfig, Runner};
use fgqos_sim::scenario::LoadScenario;
use fgqos_time::Quality;

fn run_stream(
    frames: usize,
    policy: &mut dyn QualityPolicy,
    mode: Mode,
    seed: u64,
) -> Runner<EncoderApp> {
    let scenario = LoadScenario::paper_benchmark(seed).truncated(frames);
    let app = EncoderApp::new(scenario, 64, 48, seed).expect("app");
    let n = app.iterations();
    let config = RunConfig::paper_defaults().scaled_to_macroblocks(n);
    let mut runner = Runner::new(app, config).expect("runner");
    let mut exec = WorkDriven::new(0, 1.0, seed);
    runner.run(mode, policy, &mut exec, None).expect("run");
    runner
}

#[test]
fn decoder_reproduces_encoder_reconstruction_exactly() {
    // Run a few frames under the controller, then decode the last frame
    // from its bitstream alone.
    let runner = run_stream(6, &mut MaxQuality::new(), Mode::Controlled, 21);
    let app = runner.app();
    let streams = app.last_frame_streams();
    assert_eq!(streams.len(), 12, "one substream per macroblock");
    let decoded = decode_frame(
        streams,
        app.last_frame_reference(),
        64,
        48,
        app.last_frame_qp(),
    )
    .expect("decodes");
    assert_eq!(
        decoded.data(),
        app.displayed().data(),
        "decoder output differs from encoder reconstruction"
    );
}

#[test]
fn decoder_agrees_across_quality_levels() {
    for q in [0u8, 3, 7] {
        let runner = run_stream(
            4,
            &mut ConstantQuality::new(Quality::new(q)),
            Mode::Constant,
            33,
        );
        let app = runner.app();
        let decoded = decode_frame(
            app.last_frame_streams(),
            app.last_frame_reference(),
            64,
            48,
            app.last_frame_qp(),
        )
        .expect("decodes");
        assert_eq!(
            decoded.data(),
            app.displayed().data(),
            "drift at constant q{q}"
        );
    }
}

#[test]
fn decoded_frame_quality_tracks_reported_psnr() {
    // The PSNR the app reports must equal PSNR(source, decoded) — the
    // decoder sees exactly what the display would.
    let frames = 5;
    let scenario = LoadScenario::paper_benchmark(8).truncated(frames);
    let source_cam = fgqos_encoder::synth::SyntheticCamera::new(&scenario, 64, 48, 8);
    let runner = run_stream(frames, &mut MaxQuality::new(), Mode::Controlled, 8);
    let app = runner.app();
    let decoded = decode_frame(
        app.last_frame_streams(),
        app.last_frame_reference(),
        64,
        48,
        app.last_frame_qp(),
    )
    .expect("decodes");
    let source = source_cam.frame(frames - 1);
    let db = psnr(&source, &decoded);
    assert!(db > 20.0, "decoded quality implausible: {db} dB");
    assert_eq!(
        db,
        psnr(&source, app.displayed()),
        "decoded and reconstructed frames must score identically"
    );
}

#[test]
fn bitstream_size_shrinks_with_better_motion_search() {
    // More search ⇒ better prediction ⇒ smaller residual streams.
    let lo = run_stream(
        4,
        &mut ConstantQuality::new(Quality::new(0)),
        Mode::Constant,
        55,
    );
    let hi = run_stream(
        4,
        &mut ConstantQuality::new(Quality::new(7)),
        Mode::Constant,
        55,
    );
    let bytes = |r: &Runner<EncoderApp>| -> usize {
        r.app().last_frame_streams().iter().map(Vec::len).sum()
    };
    assert!(
        bytes(&hi) <= bytes(&lo),
        "q7 stream ({}) larger than q0 stream ({})",
        bytes(&hi),
        bytes(&lo)
    );
}
