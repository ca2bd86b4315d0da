//! The benchmark video stream: scenes, activity and the analytic PSNR
//! model.
//!
//! Section 3 of the paper uses "a benchmark of 582 frames, consisting of 9
//! sequences produced by a camera every P = 320 Mcycle". The figures show
//! two structural features the scenario must reproduce: eight jumps at the
//! changes of video sequence (I-frames), and two regions of sustained high
//! load where the constant-quality encoders overflow their input buffer
//! and skip frames.
//!
//! We do not have the original footage; [`LoadScenario`] generates a
//! statistically equivalent stream: per-scene base activity, decaying
//! I-frame spikes at scene changes, AR(1) within-scene fluctuation, and
//! two heavy-motion scenes. The per-frame *activity* factor multiplies
//! average execution times in the [`crate::exec`] models and degrades the
//! analytic PSNR in [`PsnrModel`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fgqos_time::{Cycles, QualitySet};

use crate::csv::{parse_csv, render_csv};
use crate::SimError;

/// Static description of one video sequence (scene).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneProfile {
    /// Number of frames in the scene.
    pub frames: usize,
    /// Mean activity (1.0 = the Fig. 5 averages hold exactly).
    pub base_activity: f64,
    /// Motion magnitude in `[0, 1]`; drives skip-frame PSNR and synthetic
    /// pixel motion.
    pub motion: f64,
    /// Texture density in `[0, 1]`; drives synthetic pixel detail.
    pub texture: f64,
    /// Scene-dependent PSNR baseline at the reference quality (dB).
    pub psnr_base: f64,
}

/// Per-frame information derived from the scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameInfo {
    /// Scene index (0-based).
    pub scene: usize,
    /// Frame index within its scene.
    pub index_in_scene: usize,
    /// Whether this frame starts a scene (forced I-frame).
    pub is_iframe: bool,
    /// Load multiplier applied to average execution times.
    pub activity: f64,
    /// Motion magnitude of the scene.
    pub motion: f64,
    /// Texture density of the scene.
    pub texture: f64,
    /// PSNR baseline of the scene (dB).
    pub psnr_base: f64,
    /// Recorded per-frame channel budget, if the trace carries one
    /// (`None` ⇒ the pipeline deadline applies alone; see
    /// [`crate::budget::BudgetSpec::Trace`]).
    pub budget_cycles: Option<Cycles>,
}

/// A fully materialized benchmark stream.
///
/// # Example
///
/// ```
/// use fgqos_sim::scenario::LoadScenario;
///
/// let s = LoadScenario::paper_benchmark(1);
/// assert_eq!(s.frames(), 582);
/// assert_eq!(s.scene_count(), 9);
/// assert!(s.frame(0).is_iframe);
/// ```
#[derive(Debug, Clone)]
pub struct LoadScenario {
    scenes: Vec<SceneProfile>,
    frames: Vec<FrameInfo>,
}

impl LoadScenario {
    /// Builds a scenario from scene profiles, generating per-frame
    /// activity with the given seed (deterministic).
    ///
    /// # Panics
    ///
    /// Panics if `scenes` is empty or any scene has zero frames.
    #[must_use]
    pub fn from_scenes(scenes: Vec<SceneProfile>, seed: u64) -> Self {
        assert!(!scenes.is_empty(), "scenario needs at least one scene");
        assert!(
            scenes.iter().all(|s| s.frames > 0),
            "scenes must have at least one frame"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut frames = Vec::new();
        for (scene_idx, scene) in scenes.iter().enumerate() {
            let mut ar = 0.0f64; // AR(1) deviation around the base
            for k in 0..scene.frames {
                let is_iframe = k == 0;
                // I-frame spike decaying over ~5 frames: poor prediction
                // right after a cut makes every stage work harder.
                let spike = 0.55 * (-(k as f64) / 2.5).exp();
                ar = 0.85 * ar + 0.15 * rng.gen_range(-0.28..0.28);
                let activity = (scene.base_activity + spike + ar).max(0.35);
                frames.push(FrameInfo {
                    scene: scene_idx,
                    index_in_scene: k,
                    is_iframe,
                    activity,
                    motion: scene.motion,
                    texture: scene.texture,
                    psnr_base: scene.psnr_base,
                    budget_cycles: None,
                });
            }
        }
        LoadScenario { scenes, frames }
    }

    /// The paper's benchmark shape: 9 scenes, 582 frames, two
    /// sustained-overload scenes (indices 3 and 6).
    #[must_use]
    pub fn paper_benchmark(seed: u64) -> Self {
        // 9 scenes summing to 582 frames.
        let spec: [(usize, f64, f64, f64, f64); 9] = [
            // frames, base_activity, motion, texture, psnr_base
            (58, 0.92, 0.25, 0.40, 36.8),
            (70, 0.97, 0.35, 0.55, 36.2),
            (61, 0.88, 0.20, 0.35, 37.4),
            (72, 1.22, 0.80, 0.75, 34.9), // heavy motion: overload region 1
            (60, 0.95, 0.30, 0.50, 36.5),
            (68, 0.90, 0.25, 0.45, 37.0),
            (76, 1.18, 0.75, 0.80, 35.1), // heavy motion: overload region 2
            (57, 0.93, 0.30, 0.40, 36.6),
            (60, 0.86, 0.15, 0.30, 37.8),
        ];
        let scenes = spec
            .iter()
            .map(
                |&(frames, base_activity, motion, texture, psnr_base)| SceneProfile {
                    frames,
                    base_activity,
                    motion,
                    texture,
                    psnr_base,
                },
            )
            .collect();
        let s = Self::from_scenes(scenes, seed);
        debug_assert_eq!(s.frames(), 582);
        s
    }

    /// Builds a scenario directly from per-frame infos — the entry point
    /// for frame sources that are not generated by [`LoadScenario::from_scenes`]
    /// (trace replay, channel-fed producers, adversarial generators).
    ///
    /// Frames belong to the scene named by their `scene` field; scene
    /// indices must start at 0 and increase contiguously. Each frame's
    /// `index_in_scene` is recomputed (the input values are ignored), and
    /// scene profiles are summarized from the frames: mean activity;
    /// motion/texture/PSNR base from the scene's first frame.
    ///
    /// # Errors
    ///
    /// [`SimError::Parse`] if `frames` is empty, a frame's activity,
    /// motion, texture or PSNR base is not finite, its activity is not
    /// positive, or scene numbering is not contiguous from zero.
    pub fn from_frames(frames: Vec<FrameInfo>) -> Result<Self, SimError> {
        if frames.is_empty() {
            return Err(SimError::Parse("scenario has no frames".to_owned()));
        }
        let mut out: Vec<FrameInfo> = Vec::with_capacity(frames.len());
        let mut scenes: Vec<SceneProfile> = Vec::new();
        let mut index_in_scene = 0usize;
        for (f, info) in frames.into_iter().enumerate() {
            for (name, v) in [
                ("activity", info.activity),
                ("motion", info.motion),
                ("texture", info.texture),
                ("psnr_base", info.psnr_base),
            ] {
                if !v.is_finite() {
                    return Err(SimError::Parse(format!(
                        "frame {f}: {name} must be finite, got {v}"
                    )));
                }
            }
            if info.activity <= 0.0 {
                return Err(SimError::Parse(format!(
                    "frame {f}: activity must be positive, got {}",
                    info.activity
                )));
            }
            // Contiguity: the first frame opens scene 0; later frames
            // stay in the current scene or open the next one.
            if info.scene != scenes.len().saturating_sub(1) && info.scene != scenes.len() {
                return Err(SimError::Parse(format!(
                    "frame {f}: scene {} does not continue the stream contiguously",
                    info.scene
                )));
            }
            if info.scene == scenes.len() {
                index_in_scene = 0;
                scenes.push(SceneProfile {
                    frames: 0,
                    base_activity: 0.0,
                    motion: info.motion,
                    texture: info.texture,
                    psnr_base: info.psnr_base,
                });
            }
            let profile = scenes.last_mut().expect("scene just ensured");
            profile.frames += 1;
            profile.base_activity += info.activity; // sum; divided below
            out.push(FrameInfo {
                index_in_scene,
                ..info
            });
            index_in_scene += 1;
        }
        for s in &mut scenes {
            s.base_activity /= s.frames as f64;
        }
        Ok(LoadScenario {
            scenes,
            frames: out,
        })
    }

    /// An adversarial stream built to stress the safety argument: the
    /// worst load shapes a camera can produce within the model's bounds.
    ///
    /// Six scenes, ~190 frames: a *lull* (sustained under-load luring any
    /// adaptive layer toward high quality), a *step* into sustained
    /// overload, a frame-rate *square oscillation* between extremes
    /// (maximal pressure on quality-switch smoothness), repeating
    /// *sawtooth ramps*, an *impulse train* of isolated spikes on a
    /// nominal base, and a calm recovery tail. Magnitudes and phase
    /// lengths are jittered deterministically from `seed` within
    /// worst-case bounds, so different seeds give different — equally
    /// hostile — streams.
    ///
    /// The controller's guarantees must survive every one of them: actual
    /// execution times remain clamped at the declared worst case, so a
    /// controlled run still never misses or skips, while constant-quality
    /// baselines collapse (see the `adversarial_*` tests and the server
    /// overload tests).
    #[must_use]
    pub fn adversarial(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xAD5E_7A11);
        let mut frames: Vec<FrameInfo> = Vec::new();
        let push = |frames: &mut Vec<FrameInfo>, scene: usize, activity: f64, motion: f64| {
            let first = frames.last().is_none_or(|f: &FrameInfo| f.scene != scene);
            frames.push(FrameInfo {
                scene,
                index_in_scene: 0, // recomputed by from_frames
                is_iframe: first,
                activity: activity.max(0.35),
                motion,
                texture: 0.7,
                psnr_base: 35.0,
                budget_cycles: None,
            });
        };
        // Scene 0 — lull: sustained under-load.
        let lull = 0.5 + rng.gen_range(0.0..0.1);
        for _ in 0..(28 + (seed as usize % 5)) {
            push(&mut frames, 0, lull + rng.gen_range(-0.05..0.05), 0.1);
        }
        // Scene 1 — step: sustained overload, no warning.
        let step = 1.55 + rng.gen_range(0.0..0.2);
        for _ in 0..36 {
            push(&mut frames, 1, step + rng.gen_range(-0.05..0.05), 0.9);
        }
        // Scene 2 — square oscillation at frame rate.
        let lo = 0.45 + rng.gen_range(0.0..0.1);
        let hi = 1.7 + rng.gen_range(0.0..0.2);
        for k in 0..40 {
            push(&mut frames, 2, if k % 2 == 0 { hi } else { lo }, 0.85);
        }
        // Scene 3 — sawtooth ramps: three 10-frame climbs, instant drop.
        let peak = 1.7 + rng.gen_range(0.0..0.15);
        for k in 0..30 {
            let phase = (k % 10) as f64 / 9.0;
            push(&mut frames, 3, 0.5 + (peak - 0.5) * phase, 0.8);
        }
        // Scene 4 — impulse train: isolated worst-case spikes.
        let spike = 1.9 + rng.gen_range(0.0..0.2);
        for k in 0..36 {
            let a = if k % 4 == 0 { spike } else { 1.0 };
            push(&mut frames, 4, a, 0.75);
        }
        // Scene 5 — recovery tail.
        for _ in 0..20 {
            push(&mut frames, 5, 0.9 + rng.gen_range(-0.05..0.05), 0.2);
        }
        Self::from_frames(frames).expect("generator emits a well-formed stream")
    }

    /// A copy truncated to the first `n` frames (test-scale runs).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn truncated(&self, n: usize) -> Self {
        assert!(n > 0, "cannot truncate to zero frames");
        let frames: Vec<FrameInfo> = self.frames.iter().take(n).copied().collect();
        let last_scene = frames.last().expect("non-empty").scene;
        LoadScenario {
            scenes: self.scenes[..=last_scene].to_vec(),
            frames,
        }
    }

    /// Total number of frames.
    #[must_use]
    pub fn frames(&self) -> usize {
        self.frames.len()
    }

    /// Number of scenes.
    #[must_use]
    pub fn scene_count(&self) -> usize {
        self.scenes.len()
    }

    /// Scene profiles.
    #[must_use]
    pub fn scenes(&self) -> &[SceneProfile] {
        &self.scenes
    }

    /// Info for frame `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f >= frames()`.
    #[must_use]
    pub fn frame(&self, f: usize) -> FrameInfo {
        self.frames[f]
    }

    /// Iterates over all frame infos in stream order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &FrameInfo> {
        self.frames.iter()
    }

    /// Mean activity over the whole stream (should be near 1.0 for the
    /// paper benchmark so that the Fig. 5 averages stay meaningful).
    #[must_use]
    pub fn mean_activity(&self) -> f64 {
        self.frames.iter().map(|f| f.activity).sum::<f64>() / self.frames.len() as f64
    }

    /// Columns of the trace-CSV interchange format, in order.
    pub const TRACE_COLUMNS: [&'static str; 6] = [
        "scene",
        "iframe",
        "activity",
        "motion",
        "texture",
        "psnr_base",
    ];

    /// Name of the *optional* per-frame channel-budget column. Traces
    /// without it (every trace predating the budget seam) parse exactly
    /// as before; traces with it feed
    /// [`crate::budget::BudgetSpec::Trace`] runs. Empty cells mean "no
    /// recorded budget for this frame".
    pub const TRACE_BUDGET_COLUMN: &'static str = "budget_cycles";

    /// Attaches recorded per-frame channel budgets (a bandwidth trace)
    /// to this scenario: frame `f` gets `budgets[f]`; frames past the
    /// end of `budgets` keep their current value.
    ///
    /// # Errors
    ///
    /// [`SimError::Parse`] if `budgets` is longer than the stream, or
    /// any budget is zero or not exactly representable in the trace-CSV
    /// interchange format (budgets must stay below 2^53 cycles so
    /// [`LoadScenario::to_trace_csv`] round-trips them exactly).
    pub fn with_budget_trace<I>(mut self, budgets: I) -> Result<Self, SimError>
    where
        I: IntoIterator<Item = Option<Cycles>>,
    {
        for (f, b) in budgets.into_iter().enumerate() {
            if f >= self.frames.len() {
                return Err(SimError::Parse(format!(
                    "budget trace longer than the stream ({} frames)",
                    self.frames.len()
                )));
            }
            if let Some(b) = b {
                if b.get() == 0 || b.get() >= (1 << 53) {
                    return Err(SimError::Parse(format!(
                        "frame {f}: budget_cycles must be in [1, 2^53), got {}",
                        b.get()
                    )));
                }
            }
            self.frames[f].budget_cycles = b;
        }
        Ok(self)
    }

    /// Serializes the per-frame trace as CSV (one row per frame, columns
    /// [`LoadScenario::TRACE_COLUMNS`], plus
    /// [`LoadScenario::TRACE_BUDGET_COLUMN`] when any frame carries a
    /// recorded budget). Numbers render in Rust's
    /// shortest-round-trip form, so
    /// [`LoadScenario::from_trace_csv`] reproduces the frames exactly.
    #[must_use]
    pub fn to_trace_csv(&self) -> String {
        let with_budgets = self.frames.iter().any(|f| f.budget_cycles.is_some());
        let mut header: Vec<&str> = Self::TRACE_COLUMNS.to_vec();
        if with_budgets {
            header.push(Self::TRACE_BUDGET_COLUMN);
        }
        render_csv(
            &header,
            self.frames.iter().map(move |f| {
                let mut row = vec![
                    Some(f.scene as f64),
                    Some(f64::from(u8::from(f.is_iframe))),
                    Some(f.activity),
                    Some(f.motion),
                    Some(f.texture),
                    Some(f.psnr_base),
                ];
                if with_budgets {
                    row.push(f.budget_cycles.map(|b| b.get() as f64));
                }
                row
            }),
        )
    }

    /// Trace replay: builds a scenario from a per-frame CSV (captured
    /// from a real stream, exported by [`LoadScenario::to_trace_csv`], or
    /// written by hand). Expects the [`LoadScenario::TRACE_COLUMNS`]
    /// columns in any order; extra columns are ignored. Frames belong to
    /// the scene named by their `scene` cell; scene indices must start at
    /// 0 and increase contiguously. Scene profiles are summarized from
    /// the frames (mean activity; motion/texture/PSNR base from the
    /// scene's first frame).
    ///
    /// # Errors
    ///
    /// [`SimError::Parse`] on malformed CSV, missing columns, empty
    /// traces, non-finite activity/motion/texture/PSNR-base cells,
    /// non-positive activity, or non-contiguous scene numbering.
    ///
    /// # Example
    ///
    /// ```
    /// use fgqos_sim::scenario::LoadScenario;
    ///
    /// let csv = "scene,iframe,activity,motion,texture,psnr_base\n\
    ///            0,1,1.2,0.4,0.5,36\n\
    ///            0,0,0.9,0.4,0.5,36\n\
    ///            1,1,1.1,0.7,0.6,35\n";
    /// let s = LoadScenario::from_trace_csv(csv).unwrap();
    /// assert_eq!(s.frames(), 3);
    /// assert_eq!(s.scene_count(), 2);
    /// assert!(s.frame(2).is_iframe);
    /// ```
    pub fn from_trace_csv(text: &str) -> Result<Self, SimError> {
        let doc = parse_csv(text)?;
        let cols: Vec<usize> = Self::TRACE_COLUMNS
            .iter()
            .map(|name| doc.column(name))
            .collect::<Result<_, _>>()?;
        let [scene_c, iframe_c, activity_c, motion_c, texture_c, psnr_c] =
            cols.try_into().expect("six trace columns");
        // Optional channel-budget column: absent ⇒ every frame has a
        // constant (pipeline-derived) budget, as before this column
        // existed.
        let budget_c = doc.column(Self::TRACE_BUDGET_COLUMN).ok();
        if doc.rows.is_empty() {
            return Err(SimError::Parse("trace has no frames".to_owned()));
        }
        // Row-level validation stays here (it can name the source line);
        // scene summarization lives in [`LoadScenario::from_frames`],
        // shared with every other frame source. Contiguity is checked in
        // both places: here for the line-numbered diagnostic, there as
        // the structural invariant every source goes through.
        let mut frames: Vec<FrameInfo> = Vec::with_capacity(doc.rows.len());
        let mut scenes_seen = 0usize;
        for row in 0..doc.rows.len() {
            let line = doc.line(row);
            let scene_f = doc.required(row, scene_c)?;
            if scene_f < 0.0 || scene_f.fract() != 0.0 {
                return Err(SimError::Parse(format!(
                    "line {line}: scene index must be a non-negative integer, got {scene_f}"
                )));
            }
            let scene = scene_f as usize;
            if scene != scenes_seen.saturating_sub(1) && scene != scenes_seen {
                return Err(SimError::Parse(format!(
                    "line {line}: scene {scene} does not continue the trace contiguously"
                )));
            }
            scenes_seen = scenes_seen.max(scene + 1);
            let finite = |col: usize, name: &str| {
                let v = doc.required(row, col)?;
                if v.is_finite() {
                    Ok(v)
                } else {
                    Err(SimError::Parse(format!(
                        "line {line}: {name} must be finite, got {v}"
                    )))
                }
            };
            let activity = finite(activity_c, "activity")?;
            if activity <= 0.0 {
                return Err(SimError::Parse(format!(
                    "line {line}: activity must be positive, got {activity}"
                )));
            }
            let budget_cycles = match budget_c.and_then(|c| doc.rows[row][c]) {
                Some(b) => {
                    if b < 1.0 || b.fract() != 0.0 || b >= (1u64 << 53) as f64 {
                        return Err(SimError::Parse(format!(
                            "line {line}: budget_cycles must be an integer in [1, 2^53), got {b}"
                        )));
                    }
                    Some(Cycles::new(b as u64))
                }
                None => None,
            };
            frames.push(FrameInfo {
                scene,
                index_in_scene: 0, // recomputed by from_frames
                is_iframe: doc.required(row, iframe_c)? != 0.0,
                activity,
                motion: finite(motion_c, "motion")?,
                texture: finite(texture_c, "texture")?,
                psnr_base: finite(psnr_c, "psnr_base")?,
                budget_cycles,
            });
        }
        Self::from_frames(frames)
    }
}

/// Analytic PSNR model for timing-only runs (no pixel encoder).
///
/// Substitution documented in DESIGN.md: the paper measures PSNR between
/// input and output frames of a real encoder; a timing-only simulation
/// needs a surrogate. The model is
///
/// `PSNR(frame, q̄) = psnr_base(scene) + gain(q̄) − penalty·(activity − 1)+ + noise`
///
/// with `gain` logarithmic in the quality level (motion search obeys
/// diminishing returns), calibrated so constant q=3 sits near the scene
/// baseline and the full quality range spans ≈ 6 dB, matching the 33–43 dB
/// band of Figs. 8–9. A skipped frame is displayed as a *repeat* of the
/// previous frame; its PSNR collapses with scene motion (the paper
/// observes values below 25 dB).
#[derive(Debug, Clone)]
pub struct PsnrModel {
    /// `gain[qi]` in dB relative to the reference level.
    gains: Vec<f64>,
    /// dB lost per unit of positive activity deviation.
    overload_penalty: f64,
    rng: StdRng,
    noise_db: f64,
}

impl PsnrModel {
    /// Reference quality index used for calibration (the paper's q=3).
    pub const REFERENCE_LEVEL: f64 = 3.0;

    /// Builds the default model for a quality set, seeded for
    /// reproducible noise.
    #[must_use]
    pub fn paper_like(qualities: &QualitySet, seed: u64) -> Self {
        let nq = qualities.len();
        let reference = Self::REFERENCE_LEVEL.min((nq - 1) as f64);
        let gains = (0..nq)
            .map(|qi| 3.0 * ((qi as f64 + 1.0) / (reference + 1.0)).ln())
            .collect();
        PsnrModel {
            gains,
            overload_penalty: 2.2,
            rng: StdRng::seed_from_u64(seed ^ 0x5150_7357),
            noise_db: 0.25,
        }
    }

    /// PSNR of an encoded frame given the mean quality *index* it was
    /// encoded at (fractional: the controller varies quality inside a
    /// frame).
    pub fn encoded_psnr(&mut self, info: &FrameInfo, mean_quality_idx: f64) -> f64 {
        let qi = mean_quality_idx.clamp(0.0, (self.gains.len() - 1) as f64);
        let lo = qi.floor() as usize;
        let hi = qi.ceil() as usize;
        let frac = qi - qi.floor();
        let gain = self.gains[lo] * (1.0 - frac) + self.gains[hi] * frac;
        let overload = (info.activity - 1.0).max(0.0) * self.overload_penalty;
        let noise = self.rng.gen_range(-self.noise_db..self.noise_db);
        info.psnr_base + gain - overload + noise
    }

    /// PSNR of displaying the previous frame in place of a skipped one.
    pub fn skipped_psnr(&mut self, info: &FrameInfo) -> f64 {
        // Full-motion scenes repeat badly (~18 dB); static scenes degrade
        // gracefully (~27 dB). The paper reports values below 25 dB.
        let base = 27.0 - 9.0 * info.motion;
        let noise = self.rng.gen_range(-1.0..1.0);
        base + noise
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_benchmark_shape() {
        let s = LoadScenario::paper_benchmark(3);
        assert_eq!(s.frames(), 582);
        assert_eq!(s.scene_count(), 9);
        // Exactly 9 I-frames, at scene starts.
        let iframes: Vec<usize> = (0..s.frames()).filter(|&f| s.frame(f).is_iframe).collect();
        assert_eq!(iframes.len(), 9);
        assert_eq!(iframes[0], 0);
        // Mean activity near 1: the Fig. 5 averages stay representative.
        let mean = s.mean_activity();
        assert!((0.9..1.15).contains(&mean), "mean activity {mean}");
    }

    #[test]
    fn scenario_is_deterministic_per_seed() {
        let a = LoadScenario::paper_benchmark(9);
        let b = LoadScenario::paper_benchmark(9);
        let c = LoadScenario::paper_benchmark(10);
        for f in [0usize, 100, 581] {
            assert_eq!(a.frame(f), b.frame(f));
        }
        assert!(
            (0..582).any(|f| a.frame(f).activity != c.frame(f).activity),
            "different seeds must differ"
        );
    }

    #[test]
    fn iframe_spike_decays() {
        let s = LoadScenario::paper_benchmark(5);
        // Average the spike shape over all scenes to smooth AR noise out.
        let mut first = 0.0;
        let mut tenth = 0.0;
        let mut count = 0.0;
        for (f, info) in s.iter().enumerate() {
            if info.is_iframe && f + 10 < s.frames() && s.frame(f + 10).scene == info.scene {
                first += info.activity - info.psnr_base * 0.0; // activity only
                tenth += s.frame(f + 10).activity;
                count += 1.0;
            }
        }
        assert!(count >= 5.0);
        assert!(
            first / count > tenth / count + 0.2,
            "I-frames must spike load: first {} vs tenth {}",
            first / count,
            tenth / count
        );
    }

    #[test]
    fn overload_scenes_are_hotter() {
        let s = LoadScenario::paper_benchmark(4);
        let mean_of = |scene: usize| {
            let frames: Vec<f64> = s
                .iter()
                .filter(|f| f.scene == scene && f.index_in_scene > 5)
                .map(|f| f.activity)
                .collect();
            frames.iter().sum::<f64>() / frames.len() as f64
        };
        assert!(mean_of(3) > mean_of(0) + 0.15);
        assert!(mean_of(6) > mean_of(8) + 0.15);
    }

    #[test]
    fn truncation_keeps_prefix() {
        let s = LoadScenario::paper_benchmark(2);
        let t = s.truncated(100);
        assert_eq!(t.frames(), 100);
        assert_eq!(t.frame(57), s.frame(57));
        assert!(t.scene_count() <= s.scene_count());
    }

    #[test]
    fn trace_csv_round_trips_every_frame_exactly() {
        let s = LoadScenario::paper_benchmark(12);
        let csv = s.to_trace_csv();
        let back = LoadScenario::from_trace_csv(&csv).unwrap();
        assert_eq!(back.frames(), s.frames());
        assert_eq!(back.scene_count(), s.scene_count());
        for f in 0..s.frames() {
            assert_eq!(back.frame(f), s.frame(f), "frame {f}");
        }
        // Scene shapes survive too (base activity is re-summarized from
        // the frames, everything else is exact).
        for (a, b) in s.scenes().iter().zip(back.scenes()) {
            assert_eq!(a.frames, b.frames);
            assert_eq!(a.motion, b.motion);
            assert_eq!(a.texture, b.texture);
            assert_eq!(a.psnr_base, b.psnr_base);
        }
        // And a second round trip is a fixed point.
        assert_eq!(back.to_trace_csv(), csv);
    }

    #[test]
    fn trace_replay_runs_through_the_runner() {
        use crate::app::TableApp;
        use crate::runner::{RunConfig, Runner};
        use fgqos_core::policy::MaxQuality;
        let trace = LoadScenario::paper_benchmark(8)
            .truncated(30)
            .to_trace_csv();
        let replay = LoadScenario::from_trace_csv(&trace).unwrap();
        let app = TableApp::with_macroblocks(replay, 8).unwrap();
        let config = RunConfig::paper_defaults().scaled_to_macroblocks(8);
        let mut runner = Runner::new(app, config).unwrap();
        let res = runner.run_controlled(&mut MaxQuality::new(), 3).unwrap();
        assert_eq!(res.frames().len(), 30);
        assert_eq!(res.skips(), 0);
        assert_eq!(res.misses(), 0);
    }

    #[test]
    fn trace_csv_rejects_malformed_traces() {
        let header = "scene,iframe,activity,motion,texture,psnr_base\n";
        // Missing column.
        assert!(LoadScenario::from_trace_csv("scene,iframe\n0,1\n").is_err());
        // No frames.
        assert!(LoadScenario::from_trace_csv(header).is_err());
        // Scene indices must be contiguous from zero.
        let skip = format!("{header}0,1,1,0.1,0.1,36\n2,1,1,0.1,0.1,36\n");
        assert!(LoadScenario::from_trace_csv(&skip).is_err());
        let neg = format!("{header}-1,1,1,0.1,0.1,36\n");
        assert!(LoadScenario::from_trace_csv(&neg).is_err());
        // A first row that opens any scene but 0 is an error, not a panic.
        let late_start = format!("{header}1,1,1,0.1,0.1,36\n");
        assert!(matches!(
            LoadScenario::from_trace_csv(&late_start),
            Err(SimError::Parse(_))
        ));
        // Activity must be positive.
        let flat = format!("{header}0,1,0,0.1,0.1,36\n");
        assert!(LoadScenario::from_trace_csv(&flat).is_err());
        // Empty required cell.
        let hole = format!("{header}0,1,,0.1,0.1,36\n");
        assert!(LoadScenario::from_trace_csv(&hole).is_err());
    }

    #[test]
    fn trace_csv_rejects_non_finite_cells() {
        let header = "scene,iframe,activity,motion,texture,psnr_base\n";
        let good = ["1", "0.1", "0.1", "36"];
        for (c, name) in ["activity", "motion", "texture", "psnr_base"]
            .iter()
            .enumerate()
        {
            for bad in ["inf", "-inf", "NaN"] {
                let mut cells = good;
                cells[c] = bad;
                let csv = format!("{header}0,1,1,0.1,0.1,36\n0,0,{}\n", cells.join(","));
                match LoadScenario::from_trace_csv(&csv) {
                    Err(SimError::Parse(msg)) => assert!(
                        msg.contains("line 3") && msg.contains(name),
                        "{name}={bad}: {msg}"
                    ),
                    other => panic!("{name}={bad} must be rejected, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn budget_column_round_trips_exactly_and_stays_optional() {
        // A trace without budgets renders the historical 6-column CSV —
        // byte-identical to before the column existed.
        let plain = LoadScenario::paper_benchmark(12).truncated(20);
        assert!(!plain
            .to_trace_csv()
            .lines()
            .next()
            .unwrap()
            .contains("budget_cycles"));

        // Attach a bandwidth trace with a hole, round-trip it exactly.
        let budgets: Vec<Option<Cycles>> = (0..20)
            .map(|f| (f != 7).then(|| Cycles::new(1_000_000 + 31 * f as u64)))
            .collect();
        let s = plain.clone().with_budget_trace(budgets).unwrap();
        let csv = s.to_trace_csv();
        assert!(csv.lines().next().unwrap().ends_with("budget_cycles"));
        let back = LoadScenario::from_trace_csv(&csv).unwrap();
        for f in 0..20 {
            assert_eq!(back.frame(f), s.frame(f), "frame {f}");
        }
        assert_eq!(back.frame(7).budget_cycles, None);
        assert_eq!(
            back.to_trace_csv(),
            csv,
            "second round trip is a fixed point"
        );
        // The budget column does not leak into budget-free frames parsed
        // from the same header (empty cell ⇒ None).
    }

    #[test]
    fn budget_column_rejects_malformed_values() {
        let header = "scene,iframe,activity,motion,texture,psnr_base,budget_cycles\n";
        for bad in ["0", "-5", "1.5", "9007199254740992"] {
            let csv = format!("{header}0,1,1,0.1,0.1,36,{bad}\n");
            assert!(
                LoadScenario::from_trace_csv(&csv).is_err(),
                "budget_cycles={bad} must be rejected"
            );
        }
        // Boundary: 2^53 - 1 is fine.
        let csv = format!("{header}0,1,1,0.1,0.1,36,9007199254740991\n");
        let s = LoadScenario::from_trace_csv(&csv).unwrap();
        assert_eq!(s.frame(0).budget_cycles, Some(Cycles::new((1 << 53) - 1)));
    }

    #[test]
    fn budget_trace_attachment_is_validated() {
        let s = LoadScenario::paper_benchmark(3).truncated(5);
        assert!(s
            .clone()
            .with_budget_trace(vec![Some(Cycles::new(0))])
            .is_err());
        assert!(s.clone().with_budget_trace(vec![None; 6]).is_err());
        let ok = s
            .with_budget_trace(vec![Some(Cycles::new(5)), None])
            .unwrap();
        assert_eq!(ok.frame(0).budget_cycles, Some(Cycles::new(5)));
        assert_eq!(ok.frame(1).budget_cycles, None);
        assert_eq!(ok.frame(4).budget_cycles, None);
    }

    #[test]
    fn trace_csv_accepts_extra_columns_and_comments() {
        let csv = "# captured 2026-07-28\nframe,scene,iframe,activity,motion,texture,psnr_base\n\
                   0,0,1,1.25,0.4,0.5,36.5\n\
                   1,0,0,0.95,0.4,0.5,36.5\n";
        let s = LoadScenario::from_trace_csv(csv).unwrap();
        assert_eq!(s.frames(), 2);
        assert!(s.frame(0).is_iframe);
        assert!(!s.frame(1).is_iframe);
        assert_eq!(s.frame(1).index_in_scene, 1);
        assert_eq!(s.scenes()[0].frames, 2);
        assert!((s.scenes()[0].base_activity - 1.1).abs() < 1e-12);
    }

    #[test]
    fn from_frames_round_trips_generated_streams() {
        let s = LoadScenario::paper_benchmark(6);
        let back = LoadScenario::from_frames(s.iter().copied().collect()).unwrap();
        assert_eq!(back.frames(), s.frames());
        assert_eq!(back.scene_count(), s.scene_count());
        for f in 0..s.frames() {
            assert_eq!(back.frame(f), s.frame(f), "frame {f}");
        }
        // Scene base activity is re-summarized from the *realized*
        // per-frame activities (the declared base in `from_scenes` is the
        // pre-noise mean, so only shape fields are compared exactly).
        for (scene, (a, b)) in s.scenes().iter().zip(back.scenes()).enumerate() {
            assert_eq!(a.frames, b.frames);
            assert_eq!(a.motion, b.motion);
            assert_eq!(a.texture, b.texture);
            let mean = s
                .iter()
                .filter(|f| f.scene == scene)
                .map(|f| f.activity)
                .sum::<f64>()
                / a.frames as f64;
            assert!((mean - b.base_activity).abs() < 1e-9);
        }
    }

    #[test]
    fn from_frames_rejects_malformed_streams() {
        let f = |scene: usize, activity: f64| FrameInfo {
            scene,
            index_in_scene: 0,
            is_iframe: true,
            activity,
            motion: 0.5,
            texture: 0.5,
            psnr_base: 36.0,
            budget_cycles: None,
        };
        assert!(LoadScenario::from_frames(vec![]).is_err());
        assert!(LoadScenario::from_frames(vec![f(1, 1.0)]).is_err());
        assert!(LoadScenario::from_frames(vec![f(0, 1.0), f(2, 1.0)]).is_err());
        assert!(LoadScenario::from_frames(vec![f(0, 0.0)]).is_err());
        for bad in [f64::INFINITY, f64::NAN] {
            assert!(LoadScenario::from_frames(vec![f(0, bad)]).is_err());
            for field in 0..3 {
                let mut info = f(0, 1.0);
                *[&mut info.motion, &mut info.texture, &mut info.psnr_base][field] = bad;
                assert!(LoadScenario::from_frames(vec![info]).is_err());
            }
        }
        // index_in_scene in the input is ignored and recomputed.
        let s = LoadScenario::from_frames(vec![f(0, 1.0), f(0, 1.1), f(1, 1.2)]).unwrap();
        assert_eq!(s.frame(1).index_in_scene, 1);
        assert_eq!(s.frame(2).index_in_scene, 0);
    }

    #[test]
    fn adversarial_is_deterministic_and_seed_sensitive() {
        let a = LoadScenario::adversarial(3);
        let b = LoadScenario::adversarial(3);
        let c = LoadScenario::adversarial(4);
        assert_eq!(a.frames(), b.frames());
        for f in 0..a.frames() {
            assert_eq!(a.frame(f), b.frame(f));
        }
        assert!(
            (0..a.frames().min(c.frames())).any(|f| a.frame(f).activity != c.frame(f).activity),
            "different seeds must differ"
        );
        assert_eq!(a.scene_count(), 6);
    }

    #[test]
    fn adversarial_contains_the_worst_case_shapes() {
        let s = LoadScenario::adversarial(11);
        // Step scene sustains heavy overload.
        let step: Vec<f64> = s
            .iter()
            .filter(|f| f.scene == 1)
            .map(|f| f.activity)
            .collect();
        assert!(step.iter().all(|&a| a > 1.4), "sustained overload");
        // Oscillation scene swings by more than a full unit frame-to-frame.
        let osc: Vec<f64> = s
            .iter()
            .filter(|f| f.scene == 2)
            .map(|f| f.activity)
            .collect();
        let max_swing = osc
            .windows(2)
            .map(|w| (w[0] - w[1]).abs())
            .fold(0.0f64, f64::max);
        assert!(max_swing > 1.0, "square oscillation, swing {max_swing}");
        // Impulse scene: isolated spikes over a nominal base.
        let imp: Vec<f64> = s
            .iter()
            .filter(|f| f.scene == 4)
            .map(|f| f.activity)
            .collect();
        assert!(imp.iter().cloned().fold(0.0f64, f64::max) > 1.8);
        assert!(imp.iter().filter(|&&a| a < 1.1).count() > imp.len() / 2);
    }

    #[test]
    fn controlled_run_survives_the_adversarial_stream() {
        use crate::app::TableApp;
        use crate::runner::{RunConfig, Runner};
        use fgqos_core::policy::MaxQuality;
        let scenario = LoadScenario::adversarial(7);
        let n_frames = scenario.frames();
        let app = TableApp::with_macroblocks(scenario, 10).unwrap();
        let config = RunConfig::paper_defaults().scaled_to_macroblocks(10);
        let mut r = Runner::new(app, config).unwrap();
        let res = r.run_controlled(&mut MaxQuality::new(), 7).unwrap();
        // The safety argument holds under the worst load shapes: the
        // controller degrades quality instead of missing or skipping.
        assert_eq!(res.frames().len(), n_frames);
        assert_eq!(res.skips(), 0, "{}", res.summary());
        assert_eq!(res.misses(), 0);
        assert_eq!(res.fallbacks(), 0);
        assert!(r.monitor().all_safe());

        // The uncontrolled baseline collapses on the same stream.
        let scenario = LoadScenario::adversarial(7);
        let app = TableApp::with_macroblocks(scenario, 10).unwrap();
        let mut r =
            Runner::new(app, RunConfig::paper_defaults().scaled_to_macroblocks(10)).unwrap();
        let constant = r.run_constant(fgqos_time::Quality::new(7), 7).unwrap();
        assert!(
            constant.skips() > 10,
            "constant-q7 should skip heavily: {}",
            constant.summary()
        );
    }

    #[test]
    fn psnr_model_orders_quality_levels() {
        let qs = QualitySet::contiguous(0, 7).unwrap();
        let mut m = PsnrModel::paper_like(&qs, 11);
        let info = FrameInfo {
            scene: 0,
            index_in_scene: 10,
            is_iframe: false,
            activity: 1.0,
            motion: 0.3,
            texture: 0.5,
            psnr_base: 36.0,
            budget_cycles: None,
        };
        let lo = m.encoded_psnr(&info, 0.0);
        let mid = m.encoded_psnr(&info, 3.0);
        let hi = m.encoded_psnr(&info, 7.0);
        assert!(lo < mid && mid < hi, "{lo} {mid} {hi}");
        // q=3 sits near the scene baseline.
        assert!((mid - 36.0).abs() < 1.0);
        // Skips are far worse than any encoded frame.
        let skip = m.skipped_psnr(&info);
        assert!(skip < lo - 3.0);
        assert!(skip < 26.0);
    }

    #[test]
    fn overload_reduces_encoded_psnr() {
        let qs = QualitySet::contiguous(0, 7).unwrap();
        let mut m = PsnrModel::paper_like(&qs, 11);
        let calm = FrameInfo {
            scene: 0,
            index_in_scene: 1,
            is_iframe: false,
            activity: 1.0,
            motion: 0.3,
            texture: 0.5,
            psnr_base: 36.0,
            budget_cycles: None,
        };
        let hot = FrameInfo {
            activity: 1.5,
            ..calm
        };
        let calm_db: f64 = (0..32).map(|_| m.encoded_psnr(&calm, 3.0)).sum::<f64>() / 32.0;
        let hot_db: f64 = (0..32).map(|_| m.encoded_psnr(&hot, 3.0)).sum::<f64>() / 32.0;
        assert!(calm_db > hot_db + 0.5);
    }
}
