//! Seam replay: the traced copy of `StreamSession::step` for workloads
//! whose streams all attach at time zero. It drives the same streams
//! tick by tick through the public stepper seam (`next_ready_time`,
//! `next_parallel_frame`, `run_dag` over the merged kernel DAG,
//! `commit_parallel_frame`, `encoded_output` + `Broadcast::publish`) and
//! wraps every call in a span, so each layer's share of a tick is
//! measured by the benchmark's own code.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

use fgqos_core::estimator::AvgEstimator;
use fgqos_core::policy::{MaxQuality, QualityPolicy};
use fgqos_serve::{
    Broadcast, ChurnAction, ChurnEvent, RingConfig, ServeError, StreamSpec, Subscriber,
};
use fgqos_sim::runner::{Mode, ParallelStream, RunConfig, Runner, StreamResult};
use fgqos_sim::runtime::{ExecBackend, ParallelApp, VirtualClock, WorkStealingPool};
use fgqos_sim::scenario::LoadScenario;
use fgqos_sim::SimError;
use fgqos_time::Cycles;

use crate::ledger::{Ledger, Span, SpanId};
use crate::workload::{class_of, WORKERS};

/// Ticks whose per-kernel spans are kept for the exported trace (later
/// kernels are still timed and charged to their `run_dag` span).
const KERNEL_SPAN_TICKS: u64 = 8;

thread_local! {
    static LANE: Cell<u32> = const { Cell::new(u32::MAX) };
}
static NEXT_LANE: AtomicU32 = AtomicU32::new(1);

/// Trace lane of the calling thread: 0 for the driver, then one per
/// pool worker in order of first use.
fn lane() -> u32 {
    LANE.with(|l| {
        if l.get() == u32::MAX {
            l.set(NEXT_LANE.fetch_add(1, Ordering::Relaxed));
        }
        l.get()
    })
}

struct Stream<A: ParallelApp> {
    name: String,
    class: &'static str,
    runner: Runner<A>,
    st: Option<ParallelStream>,
    clock: VirtualClock,
    backend: Box<dyn ExecBackend>,
    policy: MaxQuality,
    listener: Option<(Broadcast, Subscriber)>,
    result: Option<StreamResult>,
}

impl<A: ParallelApp> Stream<A> {
    fn finish(&mut self) {
        if let Some(st) = self.st.take() {
            let name = self.policy.name();
            self.result = Some(self.runner.finish_parallel(st, name));
            if let Some((out, _)) = &self.listener {
                out.close();
            }
        }
    }
}

/// The merged phase-1 DAG of one due set (rebuilt when the set changes).
struct Merged {
    due: Vec<usize>,
    offsets: Vec<usize>,
    indegree: Vec<usize>,
    succs: Vec<Vec<usize>>,
}

/// Per-task kernel timing slots, written by whichever worker ran the
/// task.
#[derive(Default)]
struct KernelClock {
    start: Vec<AtomicU64>,
    dur: Vec<AtomicU64>,
    lane: Vec<AtomicU32>,
}

impl KernelClock {
    fn ensure(&mut self, n: usize) {
        while self.start.len() < n {
            self.start.push(AtomicU64::new(0));
            self.dur.push(AtomicU64::new(0));
            self.lane.push(AtomicU32::new(0));
        }
    }
}

/// What one replay pass produced.
pub struct ReplayRun {
    /// Per-stream results in attach order.
    pub results: Vec<(String, StreamResult)>,
    pub ledger: Ledger,
    pub ticks: u64,
    /// Frames prepared and committed.
    pub frames: u64,
    pub tasks: u64,
    /// Summed wall time of every `run_kernel` call.
    pub kernel_ns: u128,
}

/// Replays the streams of `script` (attach events at time zero only).
/// With `subscribe`, every stream gets one subscriber drained after each
/// tick, like the session run.
///
/// # Errors
///
/// Stream materialization and stepping errors.
pub fn run<A, FA, FB>(
    script: Vec<ChurnEvent>,
    subscribe: bool,
    mut make_app: FA,
    mut make_backend: FB,
) -> Result<ReplayRun, ServeError>
where
    A: ParallelApp,
    FA: FnMut(LoadScenario, &StreamSpec) -> Result<A, SimError>,
    FB: FnMut(&StreamSpec) -> Box<dyn ExecBackend>,
{
    let mut streams: Vec<Stream<A>> = Vec::new();
    for ev in script {
        let ChurnAction::Attach(mut spec) = ev.action else {
            return Err(ServeError::InvalidConfig(
                "replay takes attach-only scripts",
            ));
        };
        let scenario = spec.source.collect_scenario()?;
        let app = make_app(scenario, &spec).map_err(ServeError::Sim)?;
        let backend = make_backend(&spec);
        let config: RunConfig = spec.config;
        let mut runner = Runner::new(app, config).map_err(ServeError::Sim)?;
        let st = runner.start_parallel(Mode::Controlled)?;
        let listener = subscribe.then(|| {
            let out = Broadcast::new(RingConfig::default());
            let sub = out.subscribe();
            (out, sub)
        });
        streams.push(Stream {
            class: class_of(&spec.name),
            name: spec.name,
            runner,
            st: Some(st),
            clock: VirtualClock::new(),
            backend,
            policy: MaxQuality::new(),
            listener,
            result: None,
        });
    }

    let pool = WorkStealingPool::new(WORKERS);
    let epoch = Instant::now();
    let mut ledger = Ledger::new(epoch);
    LANE.with(|l| l.set(0));
    let mut clock = KernelClock::default();
    let mut merged: Option<Merged> = None;
    let (mut ticks, mut frames, mut tasks, mut kernel_ns) = (0u64, 0u64, 0u64, 0u128);
    loop {
        let tick = ledger.open("tick", "serve", None);
        // Select: finalize exhausted streams, then find the earliest
        // pending deadline.
        let sel = ledger.open("select", "stepper", Some(tick));
        let mut ready: Vec<(usize, Cycles)> = Vec::new();
        for (i, s) in streams.iter_mut().enumerate() {
            let Some(st) = &s.st else { continue };
            match st.next_ready_time(&mut s.clock) {
                Some(t) => ready.push((i, t)),
                None => s.finish(),
            }
        }
        let t_min = ready.iter().map(|&(_, t)| t).min();
        ledger.close(sel);
        let Some(t_min) = t_min else {
            ledger.spans.truncate(tick);
            break;
        };

        // Prepare every due stream's frame.
        let mut due: Vec<usize> = Vec::new();
        for &(i, t) in &ready {
            if t != t_min {
                continue;
            }
            let s = &mut streams[i];
            let span = ledger.open("prepare", s.class, Some(tick));
            let st = s.st.as_mut().expect("ready streams are running");
            let mut est: Option<&mut dyn AvgEstimator> = None;
            let more = s
                .runner
                .next_parallel_frame(st, &mut s.clock, &mut s.policy, &mut est)?;
            if more {
                due.push(i);
            } else {
                s.finish();
            }
            ledger.close(span);
        }

        // Phase 1: the due frames' kernels as one DAG on the pool.
        let views: Vec<_> = due
            .iter()
            .map(|&i| {
                let s = &streams[i];
                s.runner
                    .parallel_kernels(s.st.as_ref().expect("due streams are running"))
                    .expect("frame just prepared")
            })
            .collect();
        let mut phase1: Option<(SpanId, usize)> = None;
        if !views.is_empty() {
            if merged.as_ref().is_none_or(|m| m.due != due) {
                let span = ledger.open("merge", "serve", Some(tick));
                merged = Some(merge(&due, &views));
                ledger.close(span);
            }
            let m = merged.as_ref().expect("merged DAG just ensured");
            let n = m.indegree.len();
            clock.ensure(n);
            let kc = &clock;
            let span = ledger.open("run_dag", "pool", Some(tick));
            pool.run_dag(&m.indegree, &m.succs, |g| {
                let vi = m.offsets.partition_point(|&o| o <= g) - 1;
                let t0 = Instant::now();
                views[vi].run_kernel(g - m.offsets[vi]);
                let t1 = Instant::now();
                let start = t0.saturating_duration_since(epoch).as_nanos() as u64;
                kc.start[g].store(start, Ordering::Relaxed);
                kc.dur[g].store(t1.duration_since(t0).as_nanos() as u64, Ordering::Relaxed);
                kc.lane[g].store(lane(), Ordering::Relaxed);
            });
            ledger.close(span);
            ledger.spans[span].width = WORKERS as u32;
            phase1 = Some((span, n));
        }
        drop(views);

        // Phase 2: sequential commits, each followed by its publish.
        for &i in &due {
            let s = &mut streams[i];
            let st = s.st.as_mut().expect("due streams are running");
            let frame = st.pending_frame();
            let span = ledger.open("commit", s.class, Some(tick));
            let mut est: Option<&mut dyn AvgEstimator> = None;
            s.runner.commit_parallel_frame(
                st,
                &mut s.clock,
                s.backend.as_mut(),
                &mut s.policy,
                &mut est,
            )?;
            ledger.close(span);
            if let (Some((out, _)), Some(frame)) = (&s.listener, frame) {
                let span = ledger.open("publish", "distribute", Some(tick));
                if let Some(rec) = st.record(frame).filter(|r| !r.skipped) {
                    let timestamp = rec.start + rec.encode_cycles;
                    let quality = rec.mean_quality;
                    if let Some(ef) = s.runner.app_mut().encoded_output(timestamp, quality) {
                        out.publish(ef);
                    }
                }
                ledger.close(span);
            }
        }
        frames += due.len() as u64;

        if subscribe {
            let span = ledger.open("drain", "distribute", Some(tick));
            for s in &mut streams {
                if let Some((_, sub)) = &mut s.listener {
                    sub.drain();
                }
            }
            ledger.close(span);
        }
        ledger.close(tick);

        // Kernel bookkeeping happens outside the tick span, so the
        // tracer's own work does not inflate the tick it measures.
        if let Some((span, n)) = phase1 {
            let m = merged.as_ref().expect("phase 1 ran on the merged DAG");
            let keep = ticks < KERNEL_SPAN_TICKS;
            let mut sum = 0u64;
            for g in 0..n {
                let dur = clock.dur[g].load(Ordering::Relaxed);
                sum += dur;
                if keep {
                    let vi = m.offsets.partition_point(|&o| o <= g) - 1;
                    ledger.push_child(Span {
                        name: "run_kernel",
                        cat: streams[m.due[vi]].class,
                        tid: clock.lane[g].load(Ordering::Relaxed),
                        start_ns: clock.start[g].load(Ordering::Relaxed),
                        dur_ns: dur,
                        parent: Some(span),
                        child_ns: 0,
                        width: 1,
                    });
                }
            }
            if !keep {
                ledger.charge(span, sum);
            }
            tasks += n as u64;
            kernel_ns += u128::from(sum);
        }
        ticks += 1;
    }
    let results = streams
        .into_iter()
        .map(|s| {
            let result = s.result.expect("every stream finished");
            (s.name, result)
        })
        .collect();
    Ok(ReplayRun {
        results,
        ledger,
        ticks,
        frames,
        tasks,
        kernel_ns,
    })
}

fn merge<A: ParallelApp>(due: &[usize], views: &[fgqos_sim::runner::Phase1View<'_, A>]) -> Merged {
    let mut offsets = Vec::with_capacity(views.len());
    let mut total = 0usize;
    for v in views {
        offsets.push(total);
        total += v.len();
    }
    let mut indegree = Vec::with_capacity(total);
    let mut succs: Vec<Vec<usize>> = Vec::with_capacity(total);
    for (v, &off) in views.iter().zip(&offsets) {
        indegree.extend_from_slice(v.indegree());
        for s in v.succs() {
            succs.push(s.iter().map(|&x| x + off).collect());
        }
    }
    Merged {
        due: due.to_vec(),
        offsets,
        indegree,
        succs,
    }
}
