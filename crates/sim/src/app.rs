//! The application abstraction driven by the runner, and the timing-only
//! reference application.

use fgqos_core::CycleReport;
use fgqos_graph::{ActionId, GraphBuilder, PrecedenceGraph};
use fgqos_time::{fig5, Cycles, Quality, QualityProfile};

use crate::output::EncodedFrame;
use crate::scenario::{LoadScenario, PsnrModel};
use crate::SimError;

/// A cyclic video application: one cycle encodes one frame as `N`
/// iterations (macroblocks) of a body precedence graph, each action
/// split into a pure kernel and its sequential side effects.
///
/// Implementations: [`TableApp`] (timing-only, this crate) and the
/// pixel-level encoder in `fgqos-encoder`.
///
/// # Kernel contract
///
/// `run_action(a, mb, q)` **must** be observationally equivalent to
/// `let w = kernel(a, mb, q); apply(a, mb); w` — the runner uses the
/// split form on cache hits and the fused form on mis-speculation (and
/// on sequential runs), and determinism rests on both paths performing
/// identical state transitions (see [`crate::runtime::parallel`]).
///
/// [`ParallelApp::kernel`] takes `&self` and may be called from several
/// worker threads at once; per-macroblock working state must live behind
/// interior locks keyed by `mb` (see `fgqos-encoder`'s `EncoderApp`). A
/// kernel may read only
///
/// * shared state that is constant for the duration of the frame (the
///   source image, the previous reference frame, the frame QP),
/// * its own macroblock's working state, and
/// * working state written by instances it declared in
///   [`ParallelApp::data_preds`] (or by same-iteration predecessors in
///   the body graph).
///
/// Two structural rules keep the commit phase sound:
///
/// * **exact read sets** — [`ParallelApp::data_preds`] must cover every
///   working-state read that is not a *direct* body-graph edge. Relying
///   on transitive graph coverage is incorrect: output re-validation can
///   confirm an intermediary while an input that bypasses it changed;
/// * **single writer per field** — within one iteration, each
///   working-state field may be written by exactly one action. Otherwise
///   a re-executed early action could clobber the speculated output of a
///   later action that commits from cache without rewriting its fields.
pub trait ParallelApp: Sync {
    /// The per-macroblock body graph (the paper's Fig. 2).
    fn body(&self) -> &PrecedenceGraph;

    /// Macroblocks per frame `N`.
    fn iterations(&self) -> usize;

    /// The *declared* quality-indexed execution-time profile of the body
    /// actions — what the controller's tables are built from.
    fn profile(&self) -> &QualityProfile;

    /// The profile describing the application's *actual* timing
    /// behaviour, fed to execution-time models. Defaults to the declared
    /// profile; override it to study miscalibrated declarations (the
    /// online-estimation ablation).
    fn generative_profile(&self) -> &QualityProfile {
        self.profile()
    }

    /// Activity factor of frame `f` (load multiplier for exec models).
    fn activity(&self, frame: usize) -> f64;

    /// Whether frame `f` starts a new scene (I-frame).
    fn is_iframe(&self, frame: usize) -> bool;

    /// Recorded channel budget of frame `f`, if the app's stream
    /// carries a bandwidth trace — what
    /// [`crate::budget::BudgetSpec::Trace`] runs replay. `None` (the
    /// default) means the pipeline deadline applies alone.
    fn budget_cycles(&self, _frame: usize) -> Option<Cycles> {
        None
    }

    /// Called when the encoder starts frame `f`.
    fn begin_frame(&mut self, frame: usize);

    /// Performs the real work of `action` for macroblock `mb` at quality
    /// `q`; returns work units for work-driven timing (`None` when the
    /// app does not measure work).
    fn run_action(&mut self, action: ActionId, mb: usize, q: Quality) -> Option<u64>;

    /// PSNR (dB) of the encoded frame `f` against its source.
    ///
    /// `quality_index` is the mean level of the frame's
    /// *quality-sensitive* actions (fractional; the controller varies the
    /// level inside a frame) — what analytic PSNR models should key on.
    /// `report` carries the full per-action trace for apps that need
    /// more. Called exactly once per encoded frame, in stream order.
    fn encoded_psnr(&mut self, frame: usize, quality_index: f64, report: &CycleReport) -> f64;

    /// PSNR (dB) of displaying the previous output in place of skipped
    /// frame `f`.
    fn skipped_psnr(&mut self, frame: usize) -> f64;

    /// Total frames available from the camera.
    fn stream_len(&self) -> usize;

    /// A comparable copy of one macroblock's working state, taken with
    /// [`ParallelApp::snapshot`]. The runner uses it to *re-validate*
    /// mis-speculated work: if re-executing an action reproduces exactly
    /// the state the speculative phase left behind, every downstream
    /// kernel read correct inputs and its cached result stays usable —
    /// without this, one mis-speculated motion search would taint its
    /// entire dependency cone and serialize the rest of the frame.
    type Snapshot: PartialEq;

    /// Copies macroblock `mb`'s working state for equality comparison
    /// around a re-execution.
    fn snapshot(&self, mb: usize) -> Self::Snapshot;

    /// Direct *data* predecessors of the kernel for `(action, mb)` that
    /// are not same-iteration body-graph edges: pairs of (producer body
    /// action, producer iteration). Producer iterations must not exceed
    /// `mb`, and same-iteration entries must precede `action` in the
    /// body's EDF order.
    fn data_preds(&self, action: ActionId, mb: usize) -> Vec<(ActionId, usize)> {
        let _ = (action, mb);
        Vec::new()
    }

    /// Fingerprint of the kernel's quality sensitivity: two qualities
    /// with equal fingerprints must make `kernel(action, mb, ·)` produce
    /// identical outputs (state writes and work units). Quality-blind
    /// kernels return a constant — their speculation never misses.
    fn kernel_class(&self, action: ActionId, mb: usize, q: Quality) -> u64 {
        let _ = (action, mb, q);
        0
    }

    /// The pure computation of one action instance; returns the work
    /// units [`ParallelApp::run_action`] would report.
    fn kernel(&self, action: ActionId, mb: usize, q: Quality) -> Option<u64>;

    /// Applies the sequential side effects of a completed kernel (bit
    /// accounting, reconstruction writes, ...). Called in static schedule
    /// order with `&mut self`.
    fn apply(&mut self, action: ActionId, mb: usize);

    /// Takes the most recently committed frame's encoded payload for
    /// zero-copy distribution, or `None` when the app produces no
    /// bitstream (timing-only table apps) or the frame was already
    /// taken.
    ///
    /// Called by the serving layer after each frame commit, *only* when
    /// someone subscribed to the stream's output — apps without
    /// consumers pay nothing. `timestamp` is the frame's completion
    /// time on the caller's clock and `mean_quality` the mean committed
    /// quality; the app supplies the content (index, keyframe flag,
    /// payload) from its own state. Implementations must *move* their
    /// finished buffers into the returned [`EncodedFrame`] (and return
    /// `None` on a second call for the same frame) so publishing stays
    /// copy-free.
    fn encoded_output(&mut self, timestamp: Cycles, mean_quality: f64) -> Option<EncodedFrame> {
        let _ = (timestamp, mean_quality);
        None
    }
}

/// Builds the paper's Fig. 2 macroblock pipeline as a precedence graph.
///
/// Edges: `Grab → Motion_Estimate → DCT → Quantize`, then the decoder
/// loop `Quantize → Inverse_Quantize → IDCT → Reconstruct`, the output
/// path `Quantize → Compress`, and `Intra_Predict` between `Grab` and
/// `DCT` (intra decision must precede the transform).
///
/// # Example
///
/// ```
/// let g = fgqos_sim::app::fig2_body();
/// assert_eq!(g.len(), 9);
/// assert!(g.find("Motion_Estimate").is_some());
/// ```
#[must_use]
pub fn fig2_body() -> PrecedenceGraph {
    let mut b = GraphBuilder::new();
    let grab = b.action(fig5::names::GRAB);
    let me = b.action(fig5::names::MOTION_ESTIMATE);
    let dct = b.action(fig5::names::DCT);
    let quant = b.action(fig5::names::QUANTIZE);
    let intra = b.action(fig5::names::INTRA_PREDICT);
    let compress = b.action(fig5::names::COMPRESS);
    let invq = b.action(fig5::names::INVERSE_QUANTIZE);
    let idct = b.action(fig5::names::IDCT);
    let recon = b.action(fig5::names::RECONSTRUCT);
    b.chain(&[grab, me, dct, quant]).expect("valid chain");
    b.edge(grab, intra).expect("valid edge");
    b.edge(intra, dct).expect("valid edge");
    b.edge(quant, compress).expect("valid edge");
    b.chain(&[quant, invq, idct, recon]).expect("valid chain");
    b.build().expect("fig2 pipeline is acyclic")
}

/// The Fig. 5 profile for the [`fig2_body`] graph, in its action order.
///
/// # Example
///
/// ```
/// let p = fgqos_sim::app::fig2_profile();
/// assert_eq!(p.n_actions(), 9);
/// ```
#[must_use]
pub fn fig2_profile() -> QualityProfile {
    let g = fig2_body();
    let names: Vec<&str> = g
        .ids()
        .map(|a| {
            // Names are 'static in fig5; map back through the graph's storage.
            match g.name(a) {
                n if n == fig5::names::GRAB => fig5::names::GRAB,
                n if n == fig5::names::MOTION_ESTIMATE => fig5::names::MOTION_ESTIMATE,
                n if n == fig5::names::DCT => fig5::names::DCT,
                n if n == fig5::names::QUANTIZE => fig5::names::QUANTIZE,
                n if n == fig5::names::INTRA_PREDICT => fig5::names::INTRA_PREDICT,
                n if n == fig5::names::COMPRESS => fig5::names::COMPRESS,
                n if n == fig5::names::INVERSE_QUANTIZE => fig5::names::INVERSE_QUANTIZE,
                n if n == fig5::names::IDCT => fig5::names::IDCT,
                _ => fig5::names::RECONSTRUCT,
            }
        })
        .collect();
    fig5::body_profile(&names).expect("fig5 covers the fig2 pipeline")
}

/// Timing-only application: the Fig. 2 pipeline shape with the Fig. 5
/// profile, PSNR from the analytic model. `run_action` performs no real
/// work (execution times come entirely from the [`crate::exec`] models).
#[derive(Debug, Clone)]
pub struct TableApp {
    body: PrecedenceGraph,
    profile: QualityProfile,
    declared_override: Option<QualityProfile>,
    scenario: LoadScenario,
    psnr: PsnrModel,
    macroblocks: usize,
}

impl TableApp {
    /// Builds the app at the paper's scale (1584 macroblocks per frame).
    ///
    /// # Errors
    ///
    /// Propagates profile construction errors (none for the built-in
    /// tables).
    pub fn paper_scale(scenario: LoadScenario) -> Result<Self, SimError> {
        Self::with_macroblocks(scenario, fig5::MACROBLOCKS_PER_FRAME)
    }

    /// Builds the app with a custom macroblock count (small values keep
    /// debug-mode tests fast).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if `macroblocks == 0`.
    pub fn with_macroblocks(scenario: LoadScenario, macroblocks: usize) -> Result<Self, SimError> {
        if macroblocks == 0 {
            return Err(SimError::InvalidConfig("macroblocks must be positive"));
        }
        let body = fig2_body();
        let profile = fig2_profile();
        let psnr = PsnrModel::paper_like(profile.qualities(), 0xF165);
        Ok(TableApp {
            body,
            profile,
            declared_override: None,
            scenario,
            psnr,
            macroblocks,
        })
    }

    /// The scenario driving this app.
    #[must_use]
    pub fn scenario(&self) -> &LoadScenario {
        &self.scenario
    }

    /// Replaces the *declared* profile (what the controller believes)
    /// while keeping the Fig. 5 tables as the actual timing behaviour —
    /// the setup for the online-estimation ablation.
    #[must_use]
    pub fn with_profile_override(mut self, declared: QualityProfile) -> Self {
        self.declared_override = Some(declared);
        self
    }
}

/// Timing-only actions do no work, so they trivially satisfy the
/// kernel/apply contract: kernels are no-ops (quality-blind, class 0) and
/// speculation never misses. This makes every fig6/fig8 table run
/// exercisable through [`crate::runner::Runner::run_parallel_on`].
impl ParallelApp for TableApp {
    fn body(&self) -> &PrecedenceGraph {
        &self.body
    }

    fn iterations(&self) -> usize {
        self.macroblocks
    }

    fn profile(&self) -> &QualityProfile {
        self.declared_override.as_ref().unwrap_or(&self.profile)
    }

    fn generative_profile(&self) -> &QualityProfile {
        &self.profile
    }

    fn activity(&self, frame: usize) -> f64 {
        self.scenario.frame(frame).activity
    }

    fn is_iframe(&self, frame: usize) -> bool {
        self.scenario.frame(frame).is_iframe
    }

    fn budget_cycles(&self, frame: usize) -> Option<Cycles> {
        self.scenario.frame(frame).budget_cycles
    }

    fn begin_frame(&mut self, _frame: usize) {}

    fn run_action(&mut self, _action: ActionId, _mb: usize, _q: Quality) -> Option<u64> {
        None
    }

    fn encoded_psnr(&mut self, frame: usize, quality_index: f64, _report: &CycleReport) -> f64 {
        let info = self.scenario.frame(frame);
        self.psnr.encoded_psnr(&info, quality_index)
    }

    fn skipped_psnr(&mut self, frame: usize) -> f64 {
        let info = self.scenario.frame(frame);
        self.psnr.skipped_psnr(&info)
    }

    fn stream_len(&self) -> usize {
        self.scenario.frames()
    }

    type Snapshot = ();

    fn snapshot(&self, _mb: usize) {}

    fn kernel(&self, _action: ActionId, _mb: usize, _q: Quality) -> Option<u64> {
        None
    }

    fn apply(&mut self, _action: ActionId, _mb: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_body_matches_paper_pipeline() {
        let g = fig2_body();
        assert_eq!(g.len(), 9);
        let grab = g.find(fig5::names::GRAB).unwrap();
        let me = g.find(fig5::names::MOTION_ESTIMATE).unwrap();
        let recon = g.find(fig5::names::RECONSTRUCT).unwrap();
        let compress = g.find(fig5::names::COMPRESS).unwrap();
        assert!(g.precedes(grab, recon));
        assert!(g.precedes(me, compress));
        // Grab is the unique source; Compress/Reconstruct are sinks.
        assert_eq!(g.sources(), vec![grab]);
        let sinks = g.sinks();
        assert!(sinks.contains(&compress) && sinks.contains(&recon));
    }

    #[test]
    fn fig2_profile_aligns_with_graph_ids() {
        let g = fig2_body();
        let p = fig2_profile();
        let me = g.find(fig5::names::MOTION_ESTIMATE).unwrap();
        assert_eq!(p.avg(me, 3), fgqos_time::Cycles::new(95_000));
        let grab = g.find(fig5::names::GRAB).unwrap();
        assert_eq!(p.worst(grab, 7), fgqos_time::Cycles::new(24_000));
    }

    #[test]
    fn table_app_reports_shape_and_psnr() {
        let scenario = LoadScenario::paper_benchmark(1).truncated(20);
        let mut app = TableApp::with_macroblocks(scenario, 12).unwrap();
        assert_eq!(app.iterations(), 12);
        assert_eq!(app.body().len(), 9);
        assert_eq!(app.stream_len(), 20);
        assert!(app.is_iframe(0));
        assert!(app.activity(3) > 0.0);
        assert!(app
            .run_action(ActionId::from_index(0), 0, fgqos_time::Quality::new(1))
            .is_none());
        let report = CycleReport::from_records(vec![], 0);
        let db = app.encoded_psnr(5, 3.0, &report);
        assert!((20.0..50.0).contains(&db));
        assert!(app.skipped_psnr(5) < db);
    }

    #[test]
    fn zero_macroblocks_rejected() {
        let scenario = LoadScenario::paper_benchmark(1).truncated(5);
        assert!(matches!(
            TableApp::with_macroblocks(scenario, 0),
            Err(SimError::InvalidConfig(_))
        ));
    }
}
