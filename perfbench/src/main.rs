//! `perfbench`: the repository benchmark.
//!
//! Serves one of three fixed workloads through the public
//! `StreamSession` API on virtual clocks, one driver thread stepping back
//! to back over a 2-worker pool, checks the outputs, and prints every
//! metric by name and unit. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! perfbench --workload <table_mix8|pixel_qcif4|pixel_churn> [--seed N]
//!           [--seconds S] [--trace 0|1] [--trace-out PATH]
//! perfbench --steady N [--workload W] [--seed N] [--seconds S]
//! ```
//!
//! * `--trace 0` (default): end-to-end metrics from sessions with
//!   telemetry off.
//! * `--trace 1`: per-layer metrics from the traced run: a seam replay
//!   with a span around every stepper, pool and output-plane call, a
//!   telemetry-on session, and an untraced session for the telemetry
//!   overhead ratio. Spans are written as Chrome trace JSON.
//! * `--steady N`: runs every (or the given) workload N times in
//!   alternating order and prints each end-to-end metric's median,
//!   quartiles and (max - min) / median.
//!
//! Exit code 0 with the JSON line when every output check passes, 1 with
//! the JSON line when a check fails, 1 without it on a serving error, 2
//! on bad arguments.

mod ledger;
mod paper;
mod replay;
mod session;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fgqos_serve::ServeError;
use fgqos_telemetry::{SpanEvent, TelemetrySnapshot};

use crate::ledger::{chrome_event, chrome_trace};
use crate::replay::ReplayRun;
use crate::session::{Outcome, SessionRun};
use crate::stats::{quantile, ratio_line, safe_div, sorted, Timing};
use crate::workload::{
    pixel_app, pixel_backend, table_app, table_backend, Workload, CHURN_H, CHURN_W, QCIF_H, QCIF_W,
    WORKERS,
};

/// The seed the benchmark runs on by default.
pub const DEFAULT_SEED: u64 = 1;
/// The seed later claims are re-checked on.
pub const HELD_OUT_SEED: u64 = 20_050_307;
/// Setup-only repetitions before each measured pass.
const SETUP_REPS_PER_PASS: usize = 8;
/// The stated bound on the seam replay's unattributed tick time: the
/// layer spans must cover all but this share of the summed tick time.
const RESIDUAL_LIMIT_PCT: f64 = 5.0;
/// Session span events exported to the Chrome trace (earliest first).
const SESSION_TRACE_EVENTS: usize = 20_000;

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 9] = [
    ("frames_per_s", "frames/s"),
    ("tick_p50_ms", "ms"),
    ("tick_p99_ms", "ms"),
    ("setup_s", "s"),
    ("mean_quality", "level"),
    ("mean_psnr_db", "dB"),
    ("frame_ok_ratio", "ratio"),
    ("attach_p50_us", "us"),
    ("attach_p90_us", "us"),
];

/// Per-layer metrics of the traced run: name and unit.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("pool.phase1_us_per_tick", "us"),
    ("pool.tasks_per_tick", "count"),
    ("pool.overhead_ns_per_task", "ns"),
    ("pool.steals", "count"),
    ("pool.parks", "count"),
    ("encoder.kernel_ns_per_task", "ns"),
    ("encoder.kernel_us_per_frame", "us"),
    ("stepper.select_us_per_tick", "us"),
    ("stepper.prepare_us_per_frame", "us"),
    ("stepper.prepare_us_per_frame.paced", "us"),
    ("stepper.prepare_us_per_frame.channel", "us"),
    ("stepper.commit_us_per_frame", "us"),
    ("stepper.commit_us_per_frame.paced", "us"),
    ("stepper.commit_us_per_frame.channel", "us"),
    ("sched.table_lookups", "count"),
    ("sched.envelope_builds", "count"),
    ("sched.envelope_refreshes", "count"),
    ("sched.full_table_builds", "count"),
    ("sched.spec_hit_ratio", "ratio"),
    ("core.decisions_per_frame", "count"),
    ("core.fallbacks", "count"),
    ("core.decide_ns", "ns"),
    ("core.overhead_pct", "%"),
    ("serve.ticks", "count"),
    ("serve.due_per_tick", "count"),
    ("serve.tick_residual_us", "us"),
    ("admission.admitted", "count"),
    ("admission.degraded", "count"),
    ("admission.rejected", "count"),
    ("lifecycle.readmitted", "count"),
    ("lifecycle.downgraded", "count"),
    ("lifecycle.upgraded", "count"),
    ("budget.feedback_downgrades", "count"),
    ("distribute.publish_us_per_frame", "us"),
    ("distribute.drain_us_per_tick", "us"),
    ("distribute.published", "count"),
    ("distribute.delivered_ratio", "ratio"),
    ("distribute.lagged_frames", "count"),
    ("distribute.publisher_stalls", "count"),
    ("telemetry.overhead_ratio", "ratio"),
    ("ledger.tick_us", "us"),
    ("ledger.residual_pct", "%"),
    ("ledger.spans", "count"),
];

const USAGE: &str = "usage: perfbench --workload <table_mix8|pixel_qcif4|pixel_churn> \
[--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]\n       \
perfbench --steady N [--workload W] [--seed N] [--seconds S]";

type Metrics = BTreeMap<&'static str, f64>;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    steady: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        steady: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?),
            "--steady" => {
                let n: usize = value()?.parse().map_err(|e| format!("--steady: {e}"))?;
                if n == 0 {
                    return Err("--steady needs at least one run".into());
                }
                args.steady = Some(n);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_none() && args.steady.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The output checks' verdict over a run.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Verdict {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            println!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

fn session_pass(
    w: Workload,
    seed: u64,
    telemetry: bool,
    setup_only: bool,
) -> Result<SessionRun, ServeError> {
    let config = w.server_config().telemetry(telemetry);
    let script = w.script(seed);
    let subs = w.subscribers();
    match w {
        Workload::TableMix8 => {
            session::run(config, script, subs, table_app, table_backend, setup_only)
        }
        Workload::PixelQcif4 => session::run(
            config,
            script,
            subs,
            pixel_app(QCIF_W, QCIF_H),
            pixel_backend,
            setup_only,
        ),
        Workload::PixelChurn => session::run(
            config,
            script,
            subs,
            pixel_app(CHURN_W, CHURN_H),
            pixel_backend,
            setup_only,
        ),
    }
}

/// The seam replay of a static workload (`None` for `pixel_churn`, whose
/// admission decisions only the session makes).
fn replay_pass(w: Workload, seed: u64) -> Result<Option<ReplayRun>, ServeError> {
    let script = w.script(seed);
    let subscribe = !w.subscribers().is_empty();
    match w {
        Workload::TableMix8 => replay::run(script, subscribe, table_app, table_backend).map(Some),
        Workload::PixelQcif4 => {
            replay::run(script, subscribe, pixel_app(QCIF_W, QCIF_H), pixel_backend).map(Some)
        }
        Workload::PixelChurn => Ok(None),
    }
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn counter(snap: &TelemetrySnapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

/// Checks every session pass must pass, on both telemetry settings.
fn check_session(v: &mut Verdict, w: Workload, run: &SessionRun, outcome: &Outcome, tag: &str) {
    v.check(outcome.failed == 0, || {
        format!(
            "{} {tag}: frame_fail_ratio {} (base {} of {})",
            w.name(),
            safe_div(outcome.failed as f64, outcome.delivered as f64),
            outcome.failed,
            outcome.delivered
        )
    });
    let stalls = run
        .report
        .snapshot()
        .counter("distribute.publisher_stalls")
        .unwrap_or(0);
    v.check(stalls == 0, || {
        format!("{} {tag}: {stalls} publisher stalls", w.name())
    });
}

/// End-to-end measurement (tracing off).
fn measure_e2e(w: Workload, seed: u64, seconds: f64) -> Result<(Verdict, Metrics), ServeError> {
    let mut v = Verdict::default();
    let mut setup_ns = Vec::new();
    let mut attach_ns = Vec::new();
    let started = Instant::now();
    let mut step_ns = Vec::new();
    let mut pass_fps = Vec::new();
    let mut first: Option<Outcome> = None;
    let mut passes = 0;
    loop {
        // Setup-only repetitions spread over the run, so a slow spell of
        // the host cannot own every setup sample.
        for _ in 0..SETUP_REPS_PER_PASS {
            let r = session_pass(w, seed, false, true)?;
            setup_ns.push(r.setup_ns as f64);
            attach_ns.extend(r.attach_ns.iter().map(|&x| x as f64));
        }
        let r = session_pass(w, seed, false, false)?;
        passes += 1;
        let o = Outcome::of(&r.report);
        check_session(&mut v, w, &r, &o, "session");
        setup_ns.push(r.setup_ns as f64);
        attach_ns.extend(r.attach_ns.iter().map(|&x| x as f64));
        step_ns.extend(r.step_ns.iter().map(|&x| x as f64));
        pass_fps.push(o.committed as f64 / (r.loop_ns as f64 / 1e9));
        println!(
            "pass {passes}: {:.1} frames/s ({} frames / {:.6} s), setup {:.3} ms",
            pass_fps[pass_fps.len() - 1],
            o.committed,
            r.loop_ns as f64 / 1e9,
            r.setup_ns as f64 / 1e6
        );
        v.attempted += o.delivered;
        v.failed += o.failed;
        match &first {
            None => first = Some(o),
            Some(f) => v.check(f.digest == o.digest, || {
                format!(
                    "{}: pass {passes} digest {} != {}",
                    w.name(),
                    o.digest,
                    f.digest
                )
            }),
        }
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let o = first.expect("at least one pass");
    let tick = Timing::of(&step_ns, 0.99);
    let attach = Timing::of(&attach_ns, 0.90);
    let setup = Timing::of(&setup_ns, 0.90);
    let mut m = Metrics::new();
    let fps = sorted(&pass_fps);
    m.insert("frames_per_s", quantile(&fps, 0.5));
    m.insert("tick_p50_ms", tick.median / 1e6);
    m.insert("tick_p99_ms", tick.tail / 1e6);
    m.insert("setup_s", setup.median / 1e9);
    m.insert("mean_quality", safe_div(o.quality_sum, o.committed as f64));
    m.insert("mean_psnr_db", safe_div(o.psnr_sum, o.committed as f64));
    m.insert(
        "frame_ok_ratio",
        1.0 - safe_div(o.failed as f64, o.delivered as f64),
    );
    m.insert("attach_p50_us", attach.median / 1e3);
    m.insert("attach_p90_us", attach.tail / 1e3);

    println!(
        "== {} seed {seed}: {passes} passes on {WORKERS} workers, host parallelism {} ==",
        w.name(),
        host_parallelism()
    );
    println!("digest {} (records, admission sequence, summary)", o.digest);
    println!(
        "frames_per_s: median {:.3} over {} passes (min {:.3}, max {:.3})",
        m["frames_per_s"],
        fps.len(),
        fps[0],
        fps[fps.len() - 1]
    );
    println!("{}", tick.line("tick", "ns"));
    println!("{}", setup.line("setup", "ns"));
    println!("{}", attach.line("attach", "ns"));
    println!(
        "{}",
        ratio_line("frame_fail_ratio", o.failed as f64, o.delivered as f64)
    );
    println!(
        "{}",
        ratio_line("mean_quality", o.quality_sum, o.committed as f64)
    );
    println!(
        "{}",
        ratio_line("mean_psnr_db", o.psnr_sum, o.committed as f64)
    );
    v.check(tick.beyond >= 10, || {
        format!(
            "{}: only {} tick samples beyond p99 (need 10)",
            w.name(),
            tick.beyond
        )
    });
    Ok((v, m))
}

/// Layer times the pool's own spans show in a telemetry-on session:
/// kernel windows and commits inside each tick span. Only ticks before
/// the first dropped span count.
#[derive(Debug, Default)]
struct SessionSpans {
    ticks: u64,
    tick_ns: u64,
    phase1_ns: u64,
    kernel_ns: u64,
    kernels: u64,
    commit_ns: u64,
    commits: u64,
}

fn session_spans(events: &[SpanEvent], dropped: u64) -> SessionSpans {
    let coord = WORKERS as u32;
    let mut kernels: Vec<&SpanEvent> = events
        .iter()
        .filter(|e| e.name == "kernel" && e.tid < coord)
        .collect();
    kernels.sort_by_key(|e| e.start_ns);
    // A full lane stops recording: past the earliest lane's last kernel,
    // some kernels are missing.
    let cutoff = if dropped > 0 {
        (0..coord)
            .map(|t| {
                kernels
                    .iter()
                    .filter(|e| e.tid == t)
                    .map(|e| e.start_ns)
                    .max()
                    .unwrap_or(0)
            })
            .min()
            .unwrap_or(0)
    } else {
        u64::MAX
    };
    let commits: Vec<&SpanEvent> = events
        .iter()
        .filter(|e| e.name == "commit" && e.tid == coord)
        .collect();
    let mut s = SessionSpans::default();
    let (mut k, mut c) = (0usize, 0usize);
    for tick in events.iter().filter(|e| e.name == "tick" && e.tid == coord) {
        let end = tick.start_ns + tick.dur_ns;
        if end > cutoff {
            break;
        }
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        while k < kernels.len() && kernels[k].start_ns < end {
            let e = kernels[k];
            if e.start_ns >= tick.start_ns {
                lo = lo.min(e.start_ns);
                hi = hi.max(e.start_ns + e.dur_ns);
                s.kernel_ns += e.dur_ns;
                s.kernels += 1;
            }
            k += 1;
        }
        while c < commits.len() && commits[c].start_ns < end {
            if commits[c].start_ns >= tick.start_ns {
                s.commit_ns += commits[c].dur_ns;
                s.commits += 1;
            }
            c += 1;
        }
        if hi > lo {
            s.phase1_ns += hi - lo;
        }
        s.ticks += 1;
        s.tick_ns += tick.dur_ns;
    }
    s
}

/// One round of the traced run: per-layer metrics plus the round's
/// output checks.
#[allow(clippy::too_many_lines)]
fn traced_round(
    w: Workload,
    seed: u64,
    decide_ns: f64,
    v: &mut Verdict,
    print: bool,
) -> Result<(Metrics, Option<ReplayRun>, SessionRun, String), ServeError> {
    let off = session_pass(w, seed, false, false)?;
    let on = session_pass(w, seed, true, false)?;
    let rep = replay_pass(w, seed)?;
    let o_off = Outcome::of(&off.report);
    let o_on = Outcome::of(&on.report);
    check_session(v, w, &off, &o_off, "telemetry off");
    check_session(v, w, &on, &o_on, "telemetry on");
    v.attempted += o_on.delivered;
    v.failed += o_on.failed;
    v.check(on.report.summary() == off.report.summary(), || {
        format!(
            "{}: telemetry-on summary differs from telemetry-off",
            w.name()
        )
    });
    v.check(
        on.report.admission().sequence() == off.report.admission().sequence(),
        || format!("{}: telemetry-on admission sequence differs", w.name()),
    );
    if let Some(rep) = &rep {
        for (name, result) in &rep.results {
            let served = off
                .report
                .outcome(name)
                .and_then(|o| o.result.as_ref())
                .map(|r| r.frames());
            v.check(served == Some(result.frames()), || {
                format!(
                    "{}: replayed stream {name} differs from the session's",
                    w.name()
                )
            });
        }
    }

    let snap = on.report.snapshot();
    let ticks = counter(&snap, "serve.ticks");
    let off_fps = o_off.committed as f64 / (off.loop_ns as f64 / 1e9);
    let on_fps = o_on.committed as f64 / (on.loop_ns as f64 / 1e9);
    let decisions_per_frame = safe_div(
        counter(&snap, "controller.decisions"),
        counter(&snap, "controller.frames"),
    );
    let hits = counter(&snap, "sched.spec_hits");
    let misses = counter(&snap, "sched.spec_misses");
    let mut m = Metrics::new();
    for name in [
        "pool.steals",
        "pool.parks",
        "sched.table_lookups",
        "sched.envelope_builds",
        "sched.envelope_refreshes",
        "sched.full_table_builds",
        "serve.ticks",
        "admission.admitted",
        "admission.degraded",
        "admission.rejected",
        "lifecycle.readmitted",
        "lifecycle.downgraded",
        "lifecycle.upgraded",
        "budget.feedback_downgrades",
        "distribute.published",
        "distribute.publisher_stalls",
    ] {
        m.insert(name, counter(&snap, name));
    }
    m.insert("core.fallbacks", counter(&snap, "controller.fallbacks"));
    m.insert("sched.spec_hit_ratio", safe_div(hits, hits + misses));
    m.insert("core.decisions_per_frame", decisions_per_frame);
    m.insert("core.decide_ns", decide_ns);
    m.insert(
        "core.overhead_pct",
        decide_ns * decisions_per_frame / (1e9 / off_fps) * 100.0,
    );
    m.insert("serve.due_per_tick", safe_div(o_on.committed as f64, ticks));
    m.insert(
        "pool.tasks_per_tick",
        safe_div(counter(&snap, "pool.tasks"), ticks),
    );
    m.insert("telemetry.overhead_ratio", safe_div(off_fps, on_fps));
    m.insert(
        "distribute.drain_us_per_tick",
        us(safe_div(on.drain_ns as f64, ticks)),
    );
    m.insert(
        "distribute.delivered_ratio",
        safe_div(on.delivered as f64, (on.delivered + on.lagged) as f64),
    );
    m.insert("distribute.lagged_frames", on.lagged as f64);
    let step_mean_ns = safe_div(
        on.step_ns.iter().map(|&x| x as f64).sum(),
        on.step_ns.len() as f64,
    );

    let mut lines = Vec::new();
    if let Some(rep) = &rep {
        let l = &rep.ledger;
        let t = rep.ticks as f64;
        let f = rep.frames as f64;
        let reduced = l.reduce();
        let sum = |name: &str| -> f64 {
            reduced
                .iter()
                .filter(|((n, _), _)| *n == name)
                .fold(0.0, |acc, (_, r)| acc + r.total_ns as f64)
        };
        let per_call = |name: &str, cat: &str| {
            reduced
                .get(&(name, cat))
                .map_or(0.0, |r| safe_div(r.total_ns as f64, r.calls as f64))
        };
        let select = sum("select");
        let prepare = sum("prepare");
        let run_dag = sum("run_dag");
        let commit = sum("commit");
        let publish = sum("publish");
        let merge = sum("merge");
        let tick_spans = l.spans.iter().filter(|s| s.parent.is_none());
        let tick_total: f64 = tick_spans.clone().map(|s| s.dur_ns as f64).sum();
        let tick_self: f64 = tick_spans.map(|s| s.self_ns() as f64).sum();
        let pool_self: f64 = l
            .spans
            .iter()
            .filter(|s| s.name == "run_dag")
            .map(|s| s.self_ns() as f64)
            .sum();
        m.insert("pool.phase1_us_per_tick", us(run_dag / t));
        m.insert(
            "pool.overhead_ns_per_task",
            safe_div(pool_self, rep.tasks as f64),
        );
        m.insert(
            "encoder.kernel_ns_per_task",
            safe_div(rep.kernel_ns as f64, rep.tasks as f64),
        );
        m.insert("encoder.kernel_us_per_frame", us(rep.kernel_ns as f64 / f));
        m.insert("stepper.select_us_per_tick", us(select / t));
        m.insert("stepper.prepare_us_per_frame", us(prepare / f));
        m.insert("stepper.commit_us_per_frame", us(commit / f));
        for (key, name, cat) in [
            ("stepper.prepare_us_per_frame.paced", "prepare", "paced"),
            ("stepper.prepare_us_per_frame.channel", "prepare", "channel"),
            ("stepper.commit_us_per_frame.paced", "commit", "paced"),
            ("stepper.commit_us_per_frame.channel", "commit", "channel"),
        ] {
            m.insert(key, us(per_call(name, cat)));
        }
        m.insert("distribute.publish_us_per_frame", us(publish / f));
        m.insert(
            "serve.tick_residual_us",
            us(step_mean_ns - (select + prepare + merge + run_dag + commit + publish) / t),
        );
        m.insert("ledger.tick_us", us(tick_total / t));
        m.insert(
            "ledger.residual_pct",
            safe_div(tick_self, tick_total) * 100.0,
        );
        m.insert("ledger.spans", l.spans.len() as f64);
        if print {
            lines.push(format!(
                "seam replay: {} ticks, {} frames, {} tasks, {} spans",
                rep.ticks,
                rep.frames,
                rep.tasks,
                l.spans.len()
            ));
            lines.push(format!(
                "{:<12} {:<10} {:>8} {:>12} {:>12} {:>10}",
                "span", "cat", "calls", "total_ms", "self_ms", "us/tick"
            ));
            for ((name, cat), r) in l.reduce() {
                lines.push(format!(
                    "{name:<12} {cat:<10} {:>8} {:>12.3} {:>12.3} {:>10.3}",
                    r.calls,
                    r.total_ns as f64 / 1e6,
                    r.self_ns as f64 / 1e6,
                    r.total_ns as f64 / 1e3 / t
                ));
            }
            lines.push(format!(
                "account: tick {:.3} ms = select {:.3} + prepare {:.3} + merge {:.3} + run_dag {:.3} + commit {:.3} + publish {:.3} + drain {:.3} + residual {:.3} ({:.2}% of tick, stated limit {RESIDUAL_LIMIT_PCT}%)",
                tick_total / 1e6,
                select / 1e6,
                prepare / 1e6,
                merge / 1e6,
                run_dag / 1e6,
                commit / 1e6,
                publish / 1e6,
                sum("drain") / 1e6,
                tick_self / 1e6,
                safe_div(tick_self, tick_total) * 100.0
            ));
            lines.push(format!(
                "pool: run_dag worker-time {:.3} ms x {WORKERS} - kernels {:.3} ms = dispatch {:.3} ms ({:.1} ns/task over {} tasks)",
                run_dag / 1e6,
                rep.kernel_ns as f64 / 1e6,
                pool_self / 1e6,
                safe_div(pool_self, rep.tasks as f64),
                rep.tasks
            ));
        }
        v.check(safe_div(tick_self, tick_total) * 100.0 <= RESIDUAL_LIMIT_PCT, || {
            format!(
                "{}: layer spans leave {:.2}% of tick time unattributed (limit {RESIDUAL_LIMIT_PCT}%)",
                w.name(),
                safe_div(tick_self, tick_total) * 100.0
            )
        });
    } else {
        let s = session_spans(&on.spans, on.spans_dropped);
        let t = s.ticks as f64;
        let attributed = s.phase1_ns + s.commit_ns;
        m.insert(
            "pool.phase1_us_per_tick",
            us(safe_div(s.phase1_ns as f64, t)),
        );
        m.insert(
            "pool.overhead_ns_per_task",
            safe_div(
                (s.phase1_ns * WORKERS as u64) as f64 - s.kernel_ns as f64,
                s.kernels as f64,
            ),
        );
        m.insert(
            "encoder.kernel_ns_per_task",
            safe_div(s.kernel_ns as f64, s.kernels as f64),
        );
        m.insert(
            "encoder.kernel_us_per_frame",
            us(safe_div(s.kernel_ns as f64, s.commits as f64)),
        );
        m.insert(
            "stepper.select_us_per_tick",
            us(safe_div(on.select_ns as f64, on.step_ns.len() as f64)),
        );
        m.insert(
            "stepper.commit_us_per_frame",
            us(safe_div(s.commit_ns as f64, s.commits as f64)),
        );
        for key in [
            "stepper.prepare_us_per_frame",
            "stepper.prepare_us_per_frame.paced",
            "stepper.prepare_us_per_frame.channel",
            "stepper.commit_us_per_frame.paced",
            "stepper.commit_us_per_frame.channel",
            "distribute.publish_us_per_frame",
        ] {
            m.insert(key, 0.0);
        }
        m.insert(
            "serve.tick_residual_us",
            us(safe_div(s.tick_ns as f64 - attributed as f64, t)),
        );
        m.insert("ledger.tick_us", us(safe_div(s.tick_ns as f64, t)));
        m.insert(
            "ledger.residual_pct",
            safe_div(s.tick_ns as f64 - attributed as f64, s.tick_ns as f64) * 100.0,
        );
        m.insert("ledger.spans", on.spans.len() as f64);
        if print {
            lines.push(format!(
                "session spans: {} events ({} dropped); {} complete ticks: kernel window {:.3} ms, kernels {:.3} ms ({} tasks), commit+publish {:.3} ms ({} frames), rest {:.3} ms of {:.3} ms",
                on.spans.len(),
                on.spans_dropped,
                s.ticks,
                s.phase1_ns as f64 / 1e6,
                s.kernel_ns as f64 / 1e6,
                s.kernels,
                s.commit_ns as f64 / 1e6,
                s.commits,
                (s.tick_ns - attributed.min(s.tick_ns)) as f64 / 1e6,
                s.tick_ns as f64 / 1e6
            ));
            lines.push(
                "prepare and publish run inside step() here: their time is in the tick residual, and their metrics read 0".into(),
            );
        }
    }
    if print {
        let step = Timing::of(
            &on.step_ns.iter().map(|&x| x as f64).collect::<Vec<_>>(),
            0.99,
        );
        lines.push(step.line("telemetry-on step", "ns"));
        let attach = Timing::of(
            &on.attach_ns.iter().map(|&x| x as f64).collect::<Vec<_>>(),
            0.90,
        );
        lines.push(attach.line("telemetry-on attach", "ns"));
        if !on.detach_ns.is_empty() {
            let detach = Timing::of(
                &on.detach_ns.iter().map(|&x| x as f64).collect::<Vec<_>>(),
                0.90,
            );
            lines.push(detach.line("telemetry-on detach", "ns"));
        }
        lines.push(ratio_line(
            "telemetry.overhead_ratio (fps off / on)",
            off_fps,
            on_fps,
        ));
        lines.push(ratio_line("sched.spec_hit_ratio", hits, hits + misses));
        lines.push(ratio_line(
            "distribute.delivered_ratio",
            on.delivered as f64,
            (on.delivered + on.lagged) as f64,
        ));
        lines.push(ratio_line(
            "core.decisions_per_frame",
            counter(&snap, "controller.decisions"),
            counter(&snap, "controller.frames"),
        ));
        lines.push(format!("digest {}", o_on.digest));
    }
    Ok((m, rep, on, lines.join("\n")))
}

/// The traced run: rounds of (untraced session, telemetry-on session,
/// seam replay) until `seconds` have passed; per-layer metrics are the
/// per-round medians.
fn measure_traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace_out: &str,
) -> Result<(Verdict, Metrics), ServeError> {
    let mut v = Verdict::default();
    let decide = paper::decide_ns(w.macroblocks(), Duration::from_millis(300));
    let started = Instant::now();
    let mut rounds: Vec<Metrics> = Vec::new();
    loop {
        let first = rounds.is_empty();
        let (m, rep, on, text) = traced_round(w, seed, decide, &mut v, first)?;
        if first {
            println!(
                "== {} seed {seed}: traced run on {WORKERS} workers, host parallelism {} ==",
                w.name(),
                host_parallelism()
            );
            println!("{text}");
            write_trace(trace_out, rep.as_ref(), &on);
        }
        rounds.push(m);
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    // Counts are deterministic: every round must agree.
    for (name, _) in PER_LAYER.iter().filter(|(_, unit)| *unit == "count") {
        let first = rounds[0].get(name).copied();
        let deterministic = !matches!(*name, "pool.steals" | "pool.parks" | "ledger.spans");
        v.check(
            !deterministic || rounds.iter().all(|r| r.get(name).copied() == first),
            || format!("{}: count {name} differs between rounds", w.name()),
        );
    }
    let mut m = Metrics::new();
    println!(
        "-- per-layer medians over {} rounds (min, max) --",
        rounds.len()
    );
    for (name, unit) in PER_LAYER {
        let values: Vec<f64> = rounds
            .iter()
            .map(|r| r.get(name).copied().unwrap_or(0.0))
            .collect();
        let s = sorted(&values);
        m.insert(name, quantile(&s, 0.5));
        println!(
            "{name:<40} {:>14.4} {unit:<6} ({:.4}, {:.4})",
            m[name],
            s[0],
            s[s.len() - 1]
        );
    }
    let assumed = paper::assumed_overhead_pct(w.macroblocks());
    println!(
        "paper check: core.overhead_pct {:.4}% measured ({:.1} ns/decision x {:.0} decisions/frame) | paper < {}% | assumed {:.4}% (overheads tool, {} cycles/decision)",
        m["core.overhead_pct"],
        m["core.decide_ns"],
        m["core.decisions_per_frame"],
        paper::PAPER_OVERHEAD_PCT,
        assumed,
        fgqos_tool::report::DECISION_COST_CYCLES
    );
    Ok((v, m))
}

/// Writes the first round's spans as one Chrome trace: the seam replay
/// as process 1, the earliest telemetry-on session spans as process 2.
fn write_trace(path: &str, rep: Option<&ReplayRun>, on: &SessionRun) {
    let mut events = Vec::new();
    if let Some(rep) = rep {
        rep.ledger.chrome_events(1, &mut events);
    }
    let mut session: Vec<&SpanEvent> = on.spans.iter().collect();
    session.sort_by_key(|e| e.start_ns);
    for e in session.into_iter().take(SESSION_TRACE_EVENTS) {
        events.push(chrome_event(e.name, e.cat, 2, e.tid, e.start_ns, e.dur_ns));
    }
    let doc = chrome_trace(&events);
    let path = std::path::Path::new(path);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, doc) {
        Ok(()) => println!("trace: {} events -> {}", events.len(), path.display()),
        Err(e) => println!("trace: not written to {}: {e}", path.display()),
    }
}

/// `--steady N`: every workload N times, alternating the order.
fn steady(
    workloads: &[Workload],
    seed: u64,
    seconds: f64,
    runs: usize,
) -> Result<Verdict, ServeError> {
    let mut v = Verdict::default();
    let mut values: BTreeMap<(&'static str, &'static str), Vec<f64>> = BTreeMap::new();
    for r in 0..runs {
        let mut order = workloads.to_vec();
        if r % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let (rv, m) = measure_e2e(w, seed, seconds)?;
            v.attempted += rv.attempted;
            v.failed += rv.failed;
            v.failures.extend(rv.failures);
            for (name, value) in m {
                values.entry((w.name(), name)).or_default().push(value);
            }
        }
    }
    println!("== steadiness: {runs} runs per workload, seed {seed}, {seconds} s each ==");
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>14} {:>10}",
        "workload", "metric", "median", "q1", "q3", "range/med"
    );
    for w in workloads {
        for (name, _) in END_TO_END {
            let s = sorted(&values[&(w.name(), name)]);
            let med = quantile(&s, 0.5);
            println!(
                "{:<12} {:<16} {:>14.6} {:>14.6} {:>14.6} {:>10.4}",
                w.name(),
                name,
                med,
                quantile(&s, 0.25),
                quantile(&s, 0.75),
                safe_div(s[s.len() - 1] - s[0], med)
            );
        }
    }
    Ok(v)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(v: &Verdict, metrics: &Metrics, defs: &[(&str, &str)]) -> String {
    let body: Vec<String> = defs
        .iter()
        .map(|(name, unit)| {
            let value = metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        v.correct(),
        v.attempted.max(1),
        v.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match (args.steady, args.workload) {
        (Some(runs), w) => {
            let workloads = w.map_or(Workload::ALL.to_vec(), |w| vec![w]);
            steady(&workloads, args.seed, args.seconds, runs).map(|v| (v, Metrics::new(), &[][..]))
        }
        (None, Some(w)) if args.trace => {
            let out = args
                .trace_out
                .clone()
                .unwrap_or_else(|| format!("perfbench/out/{}.trace.json", w.name()));
            measure_traced(w, args.seed, args.seconds, &out).map(|(v, m)| (v, m, &PER_LAYER[..]))
        }
        (None, Some(w)) => {
            measure_e2e(w, args.seed, args.seconds).map(|(v, m)| (v, m, &END_TO_END[..]))
        }
        (None, None) => unreachable!("parse_args requires a workload"),
    };
    match outcome {
        Ok((v, m, defs)) => {
            println!("{}", result_json(&v, &m, defs));
            if !v.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: serving error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload pixel_churn --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::PixelChurn));
        assert_eq!(a.seed, 7);
        assert!(a.trace);
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2 --workload table_mix8").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload table_mix8 --bogus").is_err());
    }

    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = fgqos_telemetry::json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.as_obj()
                .and_then(|o| o.get(key))
                .and_then(|v| v.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    let o = m.as_obj().expect("metric object");
                    let s = |k| o.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |defs: &[(&str, &str)]| -> Vec<(String, String)> {
            defs.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }
}
