//! Frame-by-frame stepping of a run — the runner's one frame loop, and
//! the seam the multi-stream serving layer multiplexes on.
//!
//! Every run executes frames through these steps. A stream *server*
//! interleaves many runs over one shared pool, which requires the
//! per-frame loop to be externally driven:
//!
//! 1. [`Runner::start_parallel`] — open a [`ParallelStream`]: the
//!    portable state of one in-flight run (pipeline, records, speculation
//!    seed, per-instance slot buffers);
//! 2. [`Runner::next_parallel_frame`] — advance to the next encodable
//!    frame and prepare its controller: after this, the frame's kernels
//!    are exposed as a [`Phase1View`];
//! 3. [`Runner::parallel_kernels`] — *phase 1, optional*: an immutable,
//!    [`Sync`] view of the pending frame's kernel DAG. The caller
//!    executes the tasks on any executor it likes — a dedicated pool, or
//!    a [`super::WorkStealingPool`] shared with *other streams' frames*
//!    (the server merges several views into one task graph);
//! 4. [`Runner::commit_parallel_frame`] — phase 2, the sequential
//!    commit: consumes cached kernels only when valid and runs every
//!    other action in place;
//! 5. [`Runner::finish_parallel`] — close the stream and collect its
//!    [`StreamResult`].
//!
//! A sequential run ([`Runner::run_on`]) is this loop with step 3
//! skipped: it never builds the kernel DAG, and the commit executes each
//! action directly, without snapshots or speculation counts.
//! [`Runner::run_parallel_on`] runs step 3 on a pool of its own.
//!
//! # Isolation
//!
//! Everything a frame's decisions depend on lives in the
//! [`ParallelStream`] and its runner — nothing is shared between streams
//! except the executor that happens to run the (pure, data-complete)
//! phase-1 kernels. A stream stepped through this API on a
//! [`VirtualClock`] + [`crate::runtime::ModelBackend`] therefore produces
//! the same bytes no matter how many other streams share the pool, which
//! is the serving layer's isolation contract. Solo runs, sequential and
//! parallel, are implemented over these steps, so "byte-identical to
//! running alone" is equality by construction, not by test alone.
//!
//! [`VirtualClock`]: crate::runtime::VirtualClock

use std::sync::OnceLock;

use fgqos_core::estimator::AvgEstimator;
use fgqos_core::policy::QualityPolicy;
use fgqos_core::CycleController;
use fgqos_graph::ActionId;
use fgqos_time::{Cycles, Quality, QualityProfile, QualitySet};

use super::{FrameRecord, Mode, Runner, StreamResult};
use crate::app::ParallelApp;
use crate::budget::BudgetSource;
use crate::exec::ExecCtx;
use crate::pipeline::InputPipeline;
use crate::runtime::parallel::{FramePlan, SpecSlot};
use crate::runtime::{Clock, ExecBackend};
use crate::SimError;

/// The portable state of one in-flight run, stepped frame by frame by
/// its [`Runner`]. Create with [`Runner::start_parallel`].
///
/// The struct is intentionally runner-agnostic (no generic parameter):
/// a server holds one per stream next to the stream's runner, clock and
/// backend, and the compiler cannot mix the pair up because every
/// stepping method takes both.
pub struct ParallelStream {
    mode: Mode,
    qs: QualitySet,
    pipe: InputPipeline,
    records: Vec<Option<FrameRecord>>,
    /// Declared profile (drives tables; learns from the estimator).
    body_profile: QualityProfile,
    /// Generative profile (drives execution-time models).
    gen_profile: QualityProfile,
    /// Speculation seed: the quality committed at each unrolled instance
    /// during the most recent frame.
    spec_q: Vec<Quality>,
    /// Phase-1 results of the pending frame, one per unrolled instance;
    /// allocated once per run and reset per frame. Empty for a
    /// sequential run.
    slots: Vec<OnceLock<SpecSlot>>,
    /// Whether each instance's committed state matches what phase 1
    /// read (the taint flags of the pending frame's commit).
    valid: Vec<bool>,
    /// Live per-frame budget source (see [`crate::budget`]); owned by
    /// the stream so served and solo runs replay the same channel.
    source: BudgetSource,
    /// Most recent finite sourced budget, for the delta histogram.
    prev_budget: Option<Cycles>,
    hits: u64,
    misses: u64,
    pending: Option<PendingFrame>,
}

/// A frame that has been prepared but not yet committed.
struct PendingFrame {
    frame: usize,
    arrival: Cycles,
    now: Cycles,
    budget: Cycles,
    ctl: CycleController,
    activity: f64,
}

impl ParallelStream {
    /// Whether a prepared frame is awaiting [`Runner::commit_parallel_frame`].
    #[must_use]
    pub fn has_pending_frame(&self) -> bool {
        self.pending.is_some()
    }

    /// Camera frame index of the pending frame, if any.
    #[must_use]
    pub fn pending_frame(&self) -> Option<usize> {
        self.pending.as_ref().map(|p| p.frame)
    }

    /// Frames committed so far (diagnostics; skipped frames excluded).
    #[must_use]
    pub fn committed_frames(&self) -> usize {
        self.records.iter().flatten().filter(|r| !r.skipped).count()
    }

    /// The committed record of camera frame `frame`, if it has been
    /// delivered — the publish seam: after
    /// [`Runner::commit_parallel_frame`], a server reads the committed
    /// timing/quality here to stamp the frame's encoded output.
    #[must_use]
    pub fn record(&self, frame: usize) -> Option<&FrameRecord> {
        self.records.get(frame).and_then(Option::as_ref)
    }

    /// Earliest stream time at which this stream can make progress — the
    /// deadline-driven tick seam of a multi-stream server.
    ///
    /// Returns the time the next [`Runner::next_parallel_frame`] call
    /// would start encoding at: *now* when a frame is already pending or
    /// buffered, the next camera arrival when the pipeline is idle, and
    /// `None` when the stream is exhausted (the next
    /// [`Runner::next_parallel_frame`] returns `false`). A server steps
    /// whichever streams have the minimal ready time, so a fast stream
    /// never waits on a slow one's frame clock.
    #[must_use]
    pub fn next_ready_time(&self, clock: &mut dyn Clock) -> Option<Cycles> {
        let now = clock.now();
        if self.pending.is_some() || self.pipe.waiting() > 0 {
            return Some(now);
        }
        if self.pipe.is_exhausted() {
            return None;
        }
        self.pipe.next_arrival_time().map(|t| t.max(now))
    }

    /// Camera frames delivered (encoded or skipped) so far — the length a
    /// detached stream's result is truncated to.
    #[must_use]
    pub fn delivered_frames(&self) -> usize {
        self.records
            .iter()
            .rposition(Option::is_some)
            .map_or(0, |i| i + 1)
    }
}

/// An immutable, [`Sync`] view of one pending frame's kernel DAG:
/// everything an external executor needs to run phase 1.
///
/// Task indices are instance indices of the runner's unrolled graph
/// (`0..len()`); [`Phase1View::indegree`]/[`Phase1View::succs`] describe
/// the dependency DAG and [`Phase1View::run_kernel`] executes one task.
/// Each task must run exactly once, after all its predecessors; a
/// [`super::WorkStealingPool`] does exactly that, but so does any other
/// scheduler — including one interleaving the tasks of *several* views
/// from different streams.
pub struct Phase1View<'a, A: ParallelApp> {
    app: &'a A,
    iter: &'a fgqos_graph::iterate::IteratedGraph,
    plan: &'a FramePlan,
    spec: &'a [Quality],
    slots: &'a [OnceLock<SpecSlot>],
}

impl<A: ParallelApp> Phase1View<'_, A> {
    /// Number of kernel tasks (instances in the unrolled frame graph).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the frame has no kernels (never the case for a valid app).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// In-degree of each task in the execution DAG.
    #[must_use]
    pub fn indegree(&self) -> &[usize] {
        &self.plan.indegree
    }

    /// Successors of each task in the execution DAG.
    #[must_use]
    pub fn succs(&self) -> &[Vec<usize>] {
        &self.plan.succs
    }

    /// Executes kernel task `i` at its speculated quality and stores the
    /// result for the commit phase. Must be called exactly once per task,
    /// only after every predecessor in [`Phase1View::succs`] completed.
    ///
    /// # Panics
    ///
    /// Panics if the same task is executed twice.
    pub fn run_kernel(&self, i: usize) {
        let (a, mb) = self.iter.body_of(ActionId::from_index(i));
        let q = self.spec[i];
        let slot = SpecSlot {
            class: self.app.kernel_class(a, mb, q),
            work: self.app.kernel(a, mb, q),
        };
        self.slots[i]
            .set(slot)
            .expect("each kernel task runs exactly once");
    }
}

impl<A: ParallelApp> Runner<A> {
    /// Opens a steppable run over this runner's stream.
    ///
    /// The caller then alternates [`Runner::next_parallel_frame`] /
    /// phase-1 execution via [`Runner::parallel_kernels`] /
    /// [`Runner::commit_parallel_frame`], and closes the run with
    /// [`Runner::finish_parallel`]. See the module docs for the protocol;
    /// [`Runner::run_parallel_on`] is the single-stream reference driver.
    ///
    /// # Errors
    ///
    /// Propagates pipeline configuration and kernel-DAG validation
    /// errors.
    pub fn start_parallel(&mut self, mode: Mode) -> Result<ParallelStream, SimError> {
        if self.parallel_plan.is_none() {
            self.parallel_plan = Some(FramePlan::build(&self.app, &self.iter, &self.order_pos)?);
        }
        let mut st = self.start_stream(mode)?;
        let n_inst = st.spec_q.len();
        st.slots = (0..n_inst).map(|_| OnceLock::new()).collect();
        st.valid = vec![false; n_inst];
        Ok(st)
    }

    /// [`Runner::start_parallel`] without phase 1 — no kernel DAG, no slot
    /// buffers: how [`Runner::run_on`] opens a sequential run, which never
    /// exposes its kernels.
    pub(super) fn start_stream(&mut self, mode: Mode) -> Result<ParallelStream, SimError> {
        let n_inst = self.iter.graph().len();
        let qs = self.app.profile().qualities().clone();
        // Speculation seed: the level committed at the same instance one
        // frame earlier; before any frame, the maximal level
        // (mis-speculation only costs a re-execution, never correctness).
        let spec_q = self
            .last_spec
            .take()
            .filter(|v| v.len() == n_inst)
            .unwrap_or_else(|| vec![qs.max(); n_inst]);
        let total = self.app.stream_len();
        let pipe = InputPipeline::new(self.config.period, self.config.input_capacity, total)?;
        Ok(ParallelStream {
            mode,
            qs,
            pipe,
            records: vec![None; total],
            body_profile: self.app.profile().clone(),
            gen_profile: self.app.generative_profile().clone(),
            spec_q,
            slots: Vec::new(),
            valid: Vec::new(),
            source: self.make_budget_source(),
            prev_budget: None,
            hits: 0,
            misses: 0,
            pending: None,
        })
    }

    /// Advances the stream to its next encodable frame and prepares the
    /// frame's controller and speculation slots. Returns `false` when the
    /// stream is exhausted (nothing prepared; call
    /// [`Runner::finish_parallel`]).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if the previous frame has not been
    /// committed yet; propagated controller errors otherwise.
    pub fn next_parallel_frame(
        &mut self,
        st: &mut ParallelStream,
        clock: &mut dyn Clock,
        policy: &mut dyn QualityPolicy,
        estimator: &mut Option<&mut dyn AvgEstimator>,
    ) -> Result<bool, SimError> {
        if st.pending.is_some() {
            return Err(SimError::InvalidConfig(
                "previous frame not committed before preparing the next",
            ));
        }
        let Some((frame, arrival, now)) = self.next_frame(clock, &mut st.pipe, &mut st.records)
        else {
            return Ok(false);
        };
        let deadline_budget = match st.pipe.budget_deadline(now) {
            Some(d) => d - now,
            None => Cycles::INFINITY,
        };
        // The stream's budget source can only tighten the deadline (min
        // semantics); the record keeps the sourced budget in both modes,
        // so uncontrolled baselines expose how often they would have
        // overrun the channel.
        let budget = st.source.frame_budget(frame, deadline_budget);
        self.observe_budget(budget, &mut st.prev_budget);
        // Uncontrolled runs do not see deadlines at all.
        let frame_budget = match st.mode {
            Mode::Controlled => budget,
            Mode::Constant => Cycles::INFINITY,
        };
        let qs = st.qs.clone();
        let tables = self.prepare_frame(estimator, &mut st.body_profile, &qs, frame_budget)?;
        let ctl = CycleController::from_shared(tables, qs);
        self.app.begin_frame(frame);
        policy.on_cycle_start();
        let activity = self.app.activity(frame);
        for slot in &mut st.slots {
            slot.take();
        }
        st.valid.fill(false);
        st.pending = Some(PendingFrame {
            frame,
            arrival,
            now,
            budget,
            ctl,
            activity,
        });
        Ok(true)
    }

    /// The pending frame's kernel DAG, ready for an external executor.
    /// `None` when no frame is pending, or when the stream was not opened
    /// with [`Runner::start_parallel`] (a sequential run).
    #[must_use]
    pub fn parallel_kernels<'s>(&'s self, st: &'s ParallelStream) -> Option<Phase1View<'s, A>> {
        let plan = self
            .parallel_plan
            .as_ref()
            .filter(|_| !st.slots.is_empty())?;
        st.pending.as_ref().map(|_| Phase1View {
            app: &self.app,
            iter: &self.iter,
            plan,
            spec: &st.spec_q,
            slots: &st.slots,
        })
    }

    /// Commits the pending frame: replays the controller loop in static
    /// EDF order (phase 2) — decide, obtain the action's work, charge the
    /// backend, complete — until the cycle is finished.
    ///
    /// A kernel phase 1 executed is consumed when its quality class
    /// matches the decision and its inputs were valid, and re-executed
    /// otherwise (a speculation hit or miss). A kernel phase 1 did not
    /// execute is simply run in place, without snapshots and without
    /// counting a hit or a miss — so a caller may skip phase 1 altogether
    /// and pay exactly the sequential cost.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if no frame is pending; propagated
    /// controller protocol errors otherwise.
    pub fn commit_parallel_frame(
        &mut self,
        st: &mut ParallelStream,
        clock: &mut dyn Clock,
        backend: &mut dyn ExecBackend,
        policy: &mut dyn QualityPolicy,
        estimator: &mut Option<&mut dyn AvgEstimator>,
    ) -> Result<(), SimError> {
        let mut p = st
            .pending
            .take()
            .ok_or(SimError::InvalidConfig("no pending frame to commit"))?;
        let app = &mut self.app;
        // A filled slot implies the plan: only a `Phase1View` fills slots.
        let plan = self.parallel_plan.as_ref();
        let mut t = Cycles::ZERO;
        while let Some(d) = p.ctl.decide(t, policy).map_err(SimError::from)? {
            let i = d.action.index();
            let (body_action, mb) = self.iter.body_of(d.action);
            st.spec_q[i] = d.quality;
            let work = match st.slots.get(i).and_then(OnceLock::get) {
                None => app.run_action(body_action, mb, d.quality),
                Some(slot)
                    if plan
                        .is_some_and(|dag| dag.taint_preds[i].iter().all(|&pr| st.valid[pr]))
                        && app.kernel_class(body_action, mb, d.quality) == slot.class =>
                {
                    st.valid[i] = true;
                    st.hits += 1;
                    app.apply(body_action, mb);
                    slot.work
                }
                Some(_) => {
                    // Re-execute, then re-validate: if the rerun
                    // reproduced exactly the state the speculative phase
                    // left (a smaller search radius finding the same
                    // motion vector, say), every phase-1 reader of this
                    // instance saw correct inputs and the mis-speculation
                    // cascade stops here.
                    st.misses += 1;
                    let before = app.snapshot(mb);
                    let work = app.run_action(body_action, mb, d.quality);
                    st.valid[i] = app.snapshot(mb) == before;
                    work
                }
            };
            let ctx = ExecCtx {
                action: body_action,
                iteration: mb,
                quality: d.quality,
                avg: st.gen_profile.avg(body_action, d.quality),
                // Clamp bound stays the *declared* worst case: the
                // safety theorem needs actual <= Cwc_θ as declared.
                worst: st.body_profile.worst(body_action, d.quality),
                activity: p.activity,
                work_units: work,
            };
            let dur = backend.elapse(clock, p.now + t, &ctx);
            t += dur;
            p.ctl.complete(t).map_err(SimError::from)?;
            if let Some(est) = estimator.as_deref_mut() {
                est.observe(body_action, d.quality, dur);
            }
        }
        st.records[p.frame] = Some(self.finish_frame(
            p.ctl,
            &st.body_profile,
            p.frame,
            p.now,
            p.arrival,
            p.budget,
            t,
        ));
        Ok(())
    }

    /// Closes a stepped run: fills never-encoded frames as skips, stores
    /// the speculation seed and diagnostics back on the runner, and
    /// returns the stream's result.
    pub fn finish_parallel(&mut self, st: ParallelStream, policy_name: &str) -> StreamResult {
        self.last_spec = Some(st.spec_q);
        self.spec_hits += st.hits;
        self.spec_misses += st.misses;
        self.metrics.spec_hits.add(st.hits);
        self.metrics.spec_misses.add(st.misses);
        self.collect_result(policy_name, st.records)
    }

    /// Closes a stepped run that is being *detached* mid-stream: the
    /// result covers only the frames delivered while the stream was
    /// attached (encoded or genuinely skipped), instead of marking the
    /// entire undelivered tail as skips the way [`Runner::finish_parallel`]
    /// would. A pending (prepared but uncommitted) frame is discarded.
    pub fn finish_parallel_truncated(
        &mut self,
        mut st: ParallelStream,
        policy_name: &str,
    ) -> StreamResult {
        st.records.truncate(st.delivered_frames());
        self.finish_parallel(st, policy_name)
    }
}
