//! The closed-loop session driver: one thread runs a workload's script
//! through the public `StreamSession` API, stepping back to back and
//! timing every `attach`, `detach`, `step` and `drain` call.

use std::time::Instant;

use fgqos_serve::{
    Broadcast, ChurnAction, ChurnEvent, Delivery, ServeError, ServeReport, ServerConfig,
    StreamSpec, Subscriber,
};
use fgqos_sim::runtime::{ExecBackend, ParallelApp};
use fgqos_sim::scenario::LoadScenario;
use fgqos_sim::SimError;
use fgqos_telemetry::SpanEvent;

use crate::stats::Digest;

/// Everything one session pass measured and produced.
pub struct SessionRun {
    /// Server build plus every call before the first `step()`.
    pub setup_ns: u64,
    /// Wall time of each `attach` call.
    pub attach_ns: Vec<u64>,
    /// Wall time of each `step()` call that advanced at least one stream.
    pub step_ns: Vec<u64>,
    /// Wall time of each `detach` call.
    pub detach_ns: Vec<u64>,
    /// From the first `step()` to the return of the last one.
    pub loop_ns: u64,
    /// Summed wall time of the `next_tick_time` calls that pace the
    /// script.
    pub select_ns: u64,
    /// Summed wall time of the subscriber `drain` calls.
    pub drain_ns: u64,
    /// Frames and lag gaps the subscribers received.
    pub delivered: u64,
    pub lagged: u64,
    /// Span events of the server's telemetry plane (telemetry on only),
    /// and how many the recorder dropped.
    pub spans: Vec<SpanEvent>,
    pub spans_dropped: u64,
    pub report: ServeReport,
}

/// What the report says about the frames, for the quality metrics and
/// the output checks.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Camera frames delivered to admitted streams (encoded or skipped).
    pub delivered: u64,
    /// Committed (non-skipped) frames.
    pub committed: u64,
    /// Skipped frames plus frames with at least one deadline miss.
    pub failed: u64,
    pub quality_sum: f64,
    pub psnr_sum: f64,
    /// Digest of every frame record, the admission sequence and the
    /// report summary.
    pub digest: String,
}

impl Outcome {
    #[must_use]
    pub fn of(report: &ServeReport) -> Self {
        let mut o = Outcome::default();
        let mut d = Digest::default();
        for out in report.outcomes() {
            d.bytes(out.name.as_bytes());
            d.debug(&out.decision);
            let Some(result) = &out.result else { continue };
            for rec in result.frames() {
                d.debug(rec);
                o.delivered += 1;
                if rec.skipped || rec.misses > 0 {
                    o.failed += 1;
                }
                if !rec.skipped {
                    o.committed += 1;
                    o.quality_sum += rec.mean_quality;
                    o.psnr_sum += rec.psnr_db;
                }
            }
        }
        d.debug(&report.admission().sequence());
        d.bytes(report.summary().as_bytes());
        o.digest = d.hex();
        o
    }
}

/// Timed subscriber drains and what they delivered.
#[derive(Default)]
struct Drains {
    ns: u64,
    delivered: u64,
    lagged: u64,
}

impl Drains {
    fn drain(&mut self, sub: &mut Subscriber) {
        let t0 = Instant::now();
        let got = sub.drain();
        self.ns += ns(t0);
        for d in got {
            match d {
                Delivery::Frame(_) => self.delivered += 1,
                Delivery::Lagged(n) => self.lagged += n,
                Delivery::Empty | Delivery::Closed => {}
            }
        }
    }
}

/// One stream's output handle and its subscribers with their drain
/// intervals.
struct Listener {
    output: Broadcast,
    subs: Vec<(Subscriber, u64)>,
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Runs `script` on a fresh server built from `config`. With
/// `setup_only`, stops right before the first `step()` (the report then
/// covers no frames).
///
/// # Errors
///
/// Any serving error: the workloads are chosen so that none occurs.
#[allow(clippy::too_many_arguments)]
pub fn run<A, FA, FB>(
    config: ServerConfig,
    script: Vec<ChurnEvent>,
    drain_every: &[u64],
    make_app: FA,
    make_backend: FB,
    setup_only: bool,
) -> Result<SessionRun, ServeError>
where
    A: ParallelApp,
    FA: FnMut(LoadScenario, &StreamSpec) -> Result<A, SimError>,
    FB: FnMut(&StreamSpec) -> Box<dyn ExecBackend>,
{
    let t_setup = Instant::now();
    let server = config.build();
    let mut session = server.session(make_app, make_backend);
    let mut events = script.into_iter().peekable();
    let mut listeners: Vec<Listener> = Vec::new();
    let mut attach_ns = Vec::new();
    let mut step_ns = Vec::new();
    let mut detach_ns = Vec::new();
    let mut select_ns = 0u64;
    let mut drains = Drains::default();
    let mut setup_ns = None;
    let mut loop_start = None;
    let mut loop_end = t_setup;
    let mut tick = 0u64;
    loop {
        // Fire every script event due before the next tick.
        if let Some(ev) = events.peek() {
            let t0 = Instant::now();
            let next = session.next_tick_time();
            select_ns += ns(t0);
            if next.is_none_or(|t| t >= ev.at) {
                let ev = events.next().expect("peeked");
                match ev.action {
                    ChurnAction::Attach(spec) => {
                        let name = spec.name.clone();
                        let t0 = Instant::now();
                        session.attach(spec)?;
                        attach_ns.push(ns(t0));
                        if !drain_every.is_empty() {
                            let output = session.broadcast(&name)?;
                            let subs = drain_every
                                .iter()
                                .map(|&k| (output.subscribe(), k))
                                .collect();
                            listeners.push(Listener { output, subs });
                        }
                    }
                    ChurnAction::Detach(name) => {
                        let t0 = Instant::now();
                        session.detach(&name)?;
                        detach_ns.push(ns(t0));
                    }
                }
                continue;
            }
        }
        if setup_ns.is_none() {
            setup_ns = Some(ns(t_setup));
            if setup_only {
                break;
            }
        }
        let t0 = Instant::now();
        loop_start.get_or_insert(t0);
        let advanced = session.step()?;
        loop_end = Instant::now();
        if !advanced {
            if events.peek().is_none() {
                break;
            }
            continue;
        }
        step_ns.push(loop_end.duration_since(t0).as_nanos() as u64);
        tick += 1;
        for l in &mut listeners {
            for (sub, every) in &mut l.subs {
                if tick.is_multiple_of(*every) {
                    drains.drain(sub);
                }
            }
        }
        // A closed ring has nothing more to deliver once drained.
        listeners.retain_mut(|l| {
            if !l.output.is_closed() {
                return true;
            }
            for (sub, _) in &mut l.subs {
                drains.drain(sub);
            }
            false
        });
    }
    let loop_ns = loop_start.map_or(0, |s| loop_end.duration_since(s).as_nanos() as u64);
    let report = session.finish();
    let recorder = server.telemetry().spans();
    Ok(SessionRun {
        setup_ns: setup_ns.unwrap_or_else(|| ns(t_setup)),
        attach_ns,
        step_ns,
        detach_ns,
        loop_ns,
        select_ns,
        drain_ns: drains.ns,
        delivered: drains.delivered,
        lagged: drains.lagged,
        spans: recorder.events(),
        spans_dropped: recorder.dropped(),
        report,
    })
}
