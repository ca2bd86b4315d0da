//! CI serving smoke: measures N pixel streams on the shared-pool
//! stream server against running the same N streams sequentially, writes
//! machine-readable `BENCH_serve.json` (uploaded as a CI artifact), and
//! fails when shared-pool aggregate throughput at 4 streams is *worse*
//! than the 4 sequential single-stream runs on a host that actually has
//! ≥ 4 cores. Also cross-checks the isolation contract: every served
//! stream's series must be byte-identical to its solo run.
//!
//! A further gate rides on the same run: **churn determinism** — the
//! seeded churn storm must produce byte-identical admission logs and
//! stream results at 1 and 4 workers.
//!
//! Usage: `serve_smoke [out_dir]` (default `.`). Exit code 1 on gate
//! failure, isolation violation, or churn divergence.

use std::time::{Duration, Instant};

use fgqos_core::policy::MaxQuality;
use fgqos_encoder::app::EncoderApp;
use fgqos_graph::iterate::IterationMode;
use fgqos_serve::{ChurnStorm, PacedSource, ServeReport, ServerConfig, StreamSpec};
use fgqos_sim::app::TableApp;
use fgqos_sim::exec::StochasticLoad;
use fgqos_sim::runner::{Mode, RunConfig, Runner, StreamResult};
use fgqos_sim::runtime::{ExecBackend, ModelBackend, VirtualClock};
use fgqos_sim::scenario::LoadScenario;

/// Pixel workload shape per stream: 6×4 macroblocks gives the wavefront
/// enough width for 4 workers while 4 concurrent streams stay in CI
/// budget.
const W: usize = 96;
const H: usize = 64;
const FRAMES: usize = 10;
const STREAMS: usize = 4;
/// Timed repetitions per configuration (best-of to shed scheduler noise).
const REPS: usize = 2;

fn scenario(i: usize) -> LoadScenario {
    LoadScenario::paper_benchmark(30 + i as u64).truncated(FRAMES)
}

fn stream_config(mb: usize) -> RunConfig {
    RunConfig::paper_defaults()
        .scaled_to_macroblocks(mb)
        .with_iteration_mode(IterationMode::Pipelined)
}

fn seed(i: usize) -> u64 {
    1000 + i as u64
}

fn macroblocks() -> usize {
    (W / 16) * (H / 16)
}

/// One solo sequential run of stream `i` (no pool anywhere).
fn solo_run(i: usize) -> StreamResult {
    let app = EncoderApp::new(scenario(i), W, H, seed(i)).expect("app");
    let mut runner = Runner::new(app, stream_config(macroblocks())).expect("runner");
    let mut clock = VirtualClock::new();
    let mut backend = EncoderApp::work_backend(seed(i));
    runner
        .run_on(
            &mut clock,
            &mut backend,
            Mode::Controlled,
            &mut MaxQuality::new(),
            None,
        )
        .expect("solo run")
}

/// Best-of-`REPS` wall time of running all streams sequentially, one
/// after another; returns the last rep's results for the isolation check.
fn time_sequential() -> (Duration, Vec<StreamResult>) {
    let mut best = Duration::MAX;
    let mut last = Vec::new();
    for _ in 0..REPS {
        let start = Instant::now();
        let results: Vec<StreamResult> = (0..STREAMS).map(solo_run).collect();
        best = best.min(start.elapsed());
        last = results;
    }
    (best, last)
}

/// Best-of-`REPS` wall time of serving all streams on one shared pool.
fn time_shared(workers: usize) -> (Duration, Vec<StreamResult>) {
    let mut best = Duration::MAX;
    let mut last = Vec::new();
    for _ in 0..REPS {
        // Generous admission capacity: this bench gates throughput, not
        // admission (the paper-shaped pixel demand would otherwise be
        // priced against the virtual 8 GHz platform, which is not what a
        // wall-clock smoke measures).
        let server = ServerConfig::new(workers).capacity(1e6).build();
        let specs: Vec<StreamSpec> = (0..STREAMS)
            .map(|i| {
                StreamSpec::builder(format!("s{i}"))
                    .priority(1)
                    .seed(seed(i))
                    .config(stream_config(macroblocks()))
                    .source(PacedSource::new(scenario(i)))
                    .build()
            })
            .collect();
        let start = Instant::now();
        let report = server
            .serve(
                specs,
                |scn, spec| EncoderApp::new(scn, W, H, spec.seed),
                |spec| Box::new(EncoderApp::work_backend(spec.seed)),
            )
            .expect("serve");
        best = best.min(start.elapsed());
        assert!(report.all_safe(), "served streams must stay safe");
        last = report
            .outcomes()
            .iter()
            .map(|o| o.result.clone().expect("all admitted"))
            .collect();
    }
    (best, last)
}

fn fps(frames: usize, d: Duration) -> f64 {
    frames as f64 / d.as_secs_f64().max(1e-9)
}

/// Runs the seeded churn storm (timing-only streams, virtual clocks) at
/// `workers` workers: attaches, mid-life detaches, re-admissions.
fn run_churn(workers: usize) -> (usize, ServeReport) {
    let server = ServerConfig::new(workers).capacity(3.0).build();
    let mut session = server.session(
        |scenario, _spec| TableApp::with_macroblocks(scenario, 8),
        |spec: &StreamSpec| {
            Box::new(ModelBackend::new(StochasticLoad::new(spec.seed))) as Box<dyn ExecBackend>
        },
    );
    let events = ChurnStorm::paper_default(5).events();
    let n = events.len();
    session.run_script(events).expect("churn script");
    session.run_to_completion().expect("churn drain");
    (n, session.finish())
}

/// Byte-level equivalence of two churn runs: admission log, lifecycle
/// counters, and every stream's per-frame series.
fn churn_reports_identical(a: &ServeReport, b: &ServeReport) -> bool {
    a.admission().sequence() == b.admission().sequence()
        && a.admission().lifecycle() == b.admission().lifecycle()
        && a.ticks() == b.ticks()
        && a.outcomes().len() == b.outcomes().len()
        && a.outcomes().iter().zip(b.outcomes()).all(|(x, y)| {
            x.name == y.name
                && x.decision == y.decision
                && x.detached == y.detached
                && match (&x.result, &y.result) {
                    (Some(rx), Some(ry)) => rx.frames() == ry.frames(),
                    (None, None) => true,
                    _ => false,
                }
        })
}

fn main() {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| ".".into());
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = 4usize;
    let total_frames = STREAMS * FRAMES;

    let (t_seq, seq_results) = time_sequential();
    let (t_shared, shared_results) = time_shared(workers);

    // Isolation cross-check: served == solo, byte for byte.
    let isolated = seq_results
        .iter()
        .zip(&shared_results)
        .all(|(a, b)| a.frames() == b.frames());

    let speedup = t_seq.as_secs_f64() / t_shared.as_secs_f64().max(1e-9);
    let gate_enforced = cores >= 4;
    let gate_pass = !gate_enforced || speedup >= 1.0;

    // Churn determinism: the storm replayed at 1 and 4 workers.
    let (churn_events, churn_ref) = run_churn(1);
    let (_, churn_wide) = run_churn(workers);
    let churn_deterministic = churn_reports_identical(&churn_ref, &churn_wide);

    let mut streams = String::new();
    for (i, r) in shared_results.iter().enumerate() {
        streams.push_str(&format!(
            "    {{\"stream\": {i}, \"frames\": {}, \"skips\": {}, \"misses\": {}, \"mean_quality\": {:.3}, \"mean_psnr_db\": {:.2}}},\n",
            r.frames().len(),
            r.skips(),
            r.misses(),
            r.mean_quality(),
            r.mean_psnr(),
        ));
    }
    let streams = streams.trim_end_matches(",\n").to_string() + "\n";

    let json = format!(
        "{{\n  \"workload\": \"{STREAMS} pixel streams {W}x{H}, {FRAMES} frames each, pipelined wavefront\",\n  \
         \"host_cores\": {cores},\n  \
         \"shared_pool_workers\": {workers},\n  \
         \"sequential_total_wall_ms\": {:.3},\n  \
         \"sequential_aggregate_frames_per_sec\": {:.2},\n  \
         \"shared_wall_ms\": {:.3},\n  \
         \"shared_aggregate_frames_per_sec\": {:.2},\n  \
         \"speedup_shared_vs_sequential\": {speedup:.3},\n  \
         \"isolation_byte_identical\": {isolated},\n  \
         \"streams\": [\n{streams}  ],\n  \
         \"churn\": {{\"events\": {churn_events}, \"ticks\": {}, \"deterministic\": {churn_deterministic}}},\n  \
         \"gate\": {{\"enforced\": {gate_enforced}, \"pass\": {gate_pass}}}\n}}\n",
        t_seq.as_secs_f64() * 1e3,
        fps(total_frames, t_seq),
        t_shared.as_secs_f64() * 1e3,
        fps(total_frames, t_shared),
        churn_ref.ticks(),
    );

    std::fs::write(format!("{out_dir}/BENCH_serve.json"), &json).expect("write BENCH_serve.json");
    print!("{json}");

    if !isolated {
        eprintln!("FAIL: served stream series diverged from solo runs");
        std::process::exit(1);
    }
    if !gate_pass {
        eprintln!(
            "FAIL: shared-pool serving slower than sequential at {STREAMS} streams \
             (speedup {speedup:.3}) on a {cores}-core host"
        );
        std::process::exit(1);
    }
    if !churn_deterministic {
        eprintln!("FAIL: churn storm diverged between 1 and {workers} workers");
        std::process::exit(1);
    }
    if !gate_enforced {
        eprintln!("note: <4 cores available; throughput gate reported but not enforced");
    }
}
