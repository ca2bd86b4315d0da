//! The paper's runtime-overhead claim, measured: nanoseconds per
//! controller decision on the budget-parametric table path, next to the
//! figure the `overheads` tool derives from its assumed per-decision
//! cycle cost.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fgqos_core::policy::MaxQuality;
use fgqos_core::CycleController;
use fgqos_graph::iterate::{IteratedGraph, IterationMode};
use fgqos_sched::{BudgetTables, DeadlineShape, SharedTables};
use fgqos_sim::app::{fig2_body, fig2_profile};
use fgqos_sim::runner::RunConfig;
use fgqos_time::{fig5, Cycles};
use fgqos_tool::report::DECISION_COST_CYCLES;

use crate::stats::median;

/// The paper's bound on controller runtime overhead, in percent.
pub const PAPER_OVERHEAD_PCT: f64 = 1.5;

/// Median wall time of one `decide` + `complete` pair, in ns, over whole
/// frames of `macroblocks` macroblocks at the stream's period budget,
/// repeated for at least `min_time`.
///
/// # Panics
///
/// Panics if the Fig. 2 tables cannot be built (they always can).
#[must_use]
pub fn decide_ns(macroblocks: usize, min_time: Duration) -> f64 {
    let body = fig2_body();
    let profile = fig2_profile().tile(macroblocks);
    let iter =
        IteratedGraph::new(&body, macroblocks, IterationMode::Sequential).expect("fig2 unrolls");
    let order = iter
        .replay_body_schedule(body.topological_order())
        .expect("topological order replays");
    let qs = profile.qualities().clone();
    let tables = Arc::new(
        BudgetTables::new(order, &profile, DeadlineShape::PerIteration, macroblocks)
            .expect("fig2 budget tables build"),
    );
    let budget = RunConfig::paper_defaults()
        .scaled_to_macroblocks(macroblocks)
        .period;
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 5 || started.elapsed() < min_time {
        let mut ctl = CycleController::from_shared(
            SharedTables::AtBudget(Arc::clone(&tables), budget),
            qs.clone(),
        );
        let mut policy = MaxQuality::new();
        let mut t = Cycles::ZERO;
        let mut n = 0u32;
        let t0 = Instant::now();
        while let Some(d) = ctl.decide(t, &mut policy).expect("decide") {
            t += profile.avg(d.action, d.quality);
            ctl.complete(t).expect("complete");
            n += 1;
        }
        let dt = t0.elapsed();
        std::hint::black_box(ctl.finish());
        samples.push(dt.as_nanos() as f64 / f64::from(n.max(1)));
    }
    median(&samples)
}

/// The runtime overhead the `overheads` tool derives for a frame of
/// `macroblocks` macroblocks: `DECISION_COST_CYCLES` per decision, nine
/// decisions per macroblock, against the mean quality-3 frame cost. In
/// percent.
#[must_use]
pub fn assumed_overhead_pct(macroblocks: usize) -> f64 {
    let decisions = (macroblocks * 9) as f64;
    let frame_cycles = (fig5::macroblock_avg_cycles(3) * macroblocks as u64) as f64;
    decisions * DECISION_COST_CYCLES as f64 / frame_cycles * 100.0
}
