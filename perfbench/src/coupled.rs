//! The coupled-model workloads: one `GristModel` on the CPE-teams substrate,
//! stepped dyn step by dyn step with physics on its cadence, for a fixed
//! wall-clock window.
//!
//! * `coupled_g2_teams` — G2, DP, conventional physics. The pinned smoke
//!   configuration: a step is mostly substrate dispatch overhead.
//! * `coupled_g4_mixml` — G4, MIX precision, ML physics (the paper's Table 3
//!   headline scheme). Same dispatch count per step but ~4× the work, so
//!   dycore kernels and ML inference dominate.
//!
//! The traced run samples the model's health into the program's telemetry
//! plane (`GristModel::sample_health`) after every physics step: the plane
//! is off in its untraced half and on in its traced half.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use grist_core::{
    extract_columns, Checkpoint, GristModel, MlSuite, PhysicsEngine, RunConfig, RunState,
};
use grist_dycore::{PrecisionMode, Real};
use grist_mesh::HexMesh;
use grist_obs::ObsPlane;
use grist_physics::Column;
use grist_serve::ensemble::perturb_member;
use sunway_sim::{Metrics, Substrate};

use crate::report::Outcome;
use crate::spans::{self_times, Span, SpanLog};
use crate::stats::{block_p99, block_sdpd, median, ms_since};

/// One coupled-model workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub level: u32,
    pub nlev: usize,
    pub mixed: bool,
    pub ml: bool,
    pub cpes: usize,
    /// Physics periods per replayed segment (see [`Segments`]); `None`
    /// steps on continuously from the set-up state.
    pub segment_periods: Option<usize>,
}

pub const G2_TEAMS: Spec = Spec {
    level: 2,
    nlev: 10,
    mixed: false,
    ml: false,
    cpes: 16,
    segment_periods: None,
};

/// The coupled ML model goes non-finite in its second physics period (the
/// untrained suite's tendencies), so this workload replays its first one.
/// The ML suite keeps no per-column state, so a replay is bitwise exact.
pub const G4_MIXML: Spec = Spec {
    level: 4,
    nlev: 20,
    mixed: true,
    ml: true,
    cpes: 16,
    segment_periods: Some(1),
};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Relative size of the seeded initial `theta_m` perturbation.
pub const PERTURB: f64 = 1e-5;

impl Spec {
    pub fn config(&self) -> RunConfig {
        let precision = if self.mixed {
            PrecisionMode::Mixed
        } else {
            PrecisionMode::Double
        };
        RunConfig::for_level(self.level, self.nlev)
            .with_precision(precision)
            .with_ml_physics(self.ml)
    }
}

/// The perturbation member a seed selects. Member 0 is the unperturbed
/// control in `perturb_member`, so seeds map to members 1 and up.
pub fn member_of(seed: u64) -> usize {
    1 + (seed % 65_536) as usize
}

/// The model for `seed` on `sub`, at rest plus the seeded perturbation.
pub fn build<R: Real>(config: &RunConfig, seed: u64, sub: Substrate) -> GristModel<R> {
    let mut model = GristModel::<R>::with_substrate(config.clone(), sub);
    perturb_member(&mut model, member_of(seed), PERTURB);
    model
}

/// A replaying workload steps the same segment over and over: restore the
/// seeded initial state, then `segment_periods` physics periods. Every run
/// of a seed times the same states however long it lasts, and every
/// complete segment must end on the set-up's state hash. Without replay,
/// `initial` is `None` and the model steps on from the set-up state.
pub struct Segments {
    pub initial: Option<Checkpoint>,
    pub end_hash: u64,
    pub steps: usize,
}

/// What one measured window saw.
#[derive(Debug, Default)]
pub struct Window {
    /// Wall time of each dyn step, including the physics step and health
    /// scan it triggered. Restores between segments are not included.
    pub step_ms: Vec<f64>,
    pub dyn_ms: Vec<f64>,
    pub phys_ms: Vec<f64>,
    /// Health scans and segment-end hash checks made, and how many failed.
    pub checks: u64,
    pub bad_checks: u64,
}

/// Dyn steps per block of the block-median SDPD: four physics periods,
/// about half a second on either workload.
const SDPD_BLOCK_PERIODS: usize = 4;

impl Window {
    /// Block-median SDPD over the time spent stepping; each block holds
    /// whole physics periods.
    pub fn sdpd(&self, config: &RunConfig) -> f64 {
        let block = SDPD_BLOCK_PERIODS * config.dyn_per_phy().max(1);
        block_sdpd(config.dt_dyn, &self.step_ms, block)
    }
}

/// Step `model` through replayed segments for `seconds` of wall time.
/// After every physics step the health scan must report `Healthy`, and the
/// step's health is sampled into `obs` when given.
pub fn window<R: Real>(
    model: &mut GristModel<R>,
    seg: &Segments,
    seconds: f64,
    obs: Option<&ObsPlane>,
    log: &Arc<SpanLog>,
) -> Window {
    let mut lane = log.lane(0);
    let root = lane.begin("window", 0);
    let dpp = model.config.dyn_per_phy().max(1);
    let mut w = Window::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    'run: loop {
        if let Some(initial) = &seg.initial {
            let restored = lane.time("replay.restore", || model.restore(initial).is_ok());
            w.checks += 1;
            w.bad_checks += u64::from(!restored);
        }
        for _ in 0..seg.steps {
            if Instant::now() >= deadline {
                break 'run;
            }
            let t = Instant::now();
            lane.time("core.step_dyn", || model.step_dyn());
            w.dyn_ms.push(ms_since(t));
            if model.dyn_steps().is_multiple_of(dpp) {
                let tp = Instant::now();
                lane.time("core.step_physics", || model.step_physics());
                w.phys_ms.push(ms_since(tp));
                let health = lane.time("core.health", || model.health());
                w.checks += 1;
                if health.state != RunState::Healthy {
                    if w.bad_checks == 0 {
                        eprintln!(
                            "perfbench: step {}: {}: {}",
                            model.dyn_steps(),
                            health.state,
                            health.diagnosis
                        );
                    }
                    w.bad_checks += 1;
                }
                if let Some(plane) = obs {
                    lane.time("obs.sample_health", || model.sample_health(plane));
                }
            }
            w.step_ms.push(ms_since(t));
        }
        if seg.initial.is_some() {
            w.checks += 1;
            w.bad_checks += u64::from(model.state_hash() != seg.end_hash);
        }
    }
    lane.end(root);
    w
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> (Outcome, Vec<Span>) {
    if spec.mixed {
        run_real::<f32>(spec, seed, seconds, trace)
    } else {
        run_real::<f64>(spec, seed, seconds, trace)
    }
}

fn run_real<R: Real>(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> (Outcome, Vec<Span>) {
    let config = spec.config();
    let periods = spec.segment_periods.unwrap_or(1);
    let steps = periods * config.dyn_per_phy().max(1);
    let mut out = Outcome::default();

    // Set-up, several times: construction, then one segment (or physics
    // period) as warm-up, which starts the job server and grows the scratch
    // arenas. Every set-up of one seed must end on the same state.
    let mut setup_s = Vec::new();
    let mut hashes = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t = Instant::now();
        let mut model = build::<R>(&config, seed, Substrate::cpe_teams(spec.cpes));
        let initial = spec.segment_periods.map(|_| model.checkpoint());
        model.advance(steps as f64 * config.dt_dyn);
        let healthy = model.health().state == RunState::Healthy;
        setup_s.push(t.elapsed().as_secs_f64());
        let end_hash = model.state_hash();
        out.tally(1, u64::from(!healthy));
        hashes.push(end_hash);
        built = Some((
            model,
            Segments {
                initial,
                end_hash,
                steps: if spec.segment_periods.is_some() {
                    steps
                } else {
                    usize::MAX
                },
            },
        ));
    }
    let (mut model, seg) = built.expect("at least one set-up");
    let repeats = hashes.iter().filter(|&&h| h == hashes[0]).count() as u64;
    out.tally(SETUP_REPS as u64, SETUP_REPS as u64 - repeats);
    out.set("setup_s", median(&setup_s));

    let record = |out: &mut Outcome, w: &Window| {
        out.tally(w.step_ms.len() as u64 + w.checks, w.bad_checks);
    };

    if !trace {
        let w = window(&mut model, &seg, seconds, None, &SpanLog::new(false));
        record(&mut out, &w);
        out.set("sdpd", w.sdpd(&config));
        out.set("latency.p50_ms", median(&w.step_ms));
        out.set("peak_rss_mb", crate::stats::peak_rss_mb());
        return (out, Vec::new());
    }

    // Traced run: an untraced half, then a traced half on the same model,
    // with the telemetry plane off and then on.
    let plane = ObsPlane::disabled();
    let off = SpanLog::new(false);
    let plain = window(&mut model, &seg, seconds / 2.0, Some(&plane), &off);
    record(&mut out, &plain);
    model.reset_kernel_report();
    plane.set_enabled(true);
    let log = SpanLog::new(true);
    let w = window(&mut model, &seg, seconds / 2.0, Some(&plane), &log);
    record(&mut out, &w);
    // The plane must have a health sample of every traced physics step.
    let sampled = plane.watch().ingested();
    out.tally(1, u64::from(sampled < w.phys_ms.len() as u64));
    let spans = log.spans();
    out.set(
        "obs.trace_overhead_pct",
        (plain.sdpd(&config) / w.sdpd(&config) - 1.0) * 100.0,
    );
    out.set("latency.p99_ms", block_p99(&plain.step_ms));
    let selfs = self_times(&spans);
    let busy = |name: &str| selfs.get(name).map_or(0.0, |s| s.total_ns as f64 / 1e9);
    out.set("core.step_dyn.p50_ms", median(&w.dyn_ms));
    out.set("core.step_dyn.busy_s", busy("core.step_dyn"));
    out.set("core.step_physics.p50_ms", median(&w.phys_ms));
    out.set("core.step_physics.busy_s", busy("core.step_physics"));
    if let Some(root) = selfs.get("window") {
        out.set(
            "trace.unattributed_share",
            root.self_ns as f64 / root.total_ns.max(1) as f64,
        );
    }

    // Substrate dispatches of the dyn steps (physics kernels run under the
    // `physics` / `ml` spans).
    eprint!("{}", model.kernel_report_text());
    let (calls, items) = dyn_dispatches(model.metrics());
    let per_step = calls as f64 / w.dyn_ms.len().max(1) as f64;
    let items_per = items as f64 / calls.max(1) as f64;
    out.set("substrate.dispatches_per_step", per_step);
    out.set("substrate.items_per_dispatch", items_per);
    for (name, k) in &model.metrics().kernel_snapshot() {
        let short = name.rsplit('/').next().unwrap_or(name);
        let key = format!("dycore.kernel.{short}.ms_per_call");
        if name.contains("dycore") && k.calls > 0 {
            out.set(&key, k.nanos as f64 / 1e6 / k.calls as f64);
        }
    }

    probe_ml(&mut model, &mut out);
    probe_state_ops(&mut model, &mut out);
    let empty_us = probe_empty_dispatch(model.substrate(), items_per.round() as usize);
    out.set("substrate.empty_dispatch_us", empty_us);
    out.set(
        "substrate.dispatch_share",
        per_step * empty_us / 1e3 / median(&w.dyn_ms).max(1e-9),
    );
    drop(model);

    out.set(
        "core.step_dyn.serial_p50_ms",
        serial_twin_p50::<R>(&config, seed),
    );

    let t = Instant::now();
    black_box(HexMesh::build(spec.level));
    out.set("mesh.build_s", t.elapsed().as_secs_f64());
    (out, spans)
}

/// Substrate dispatches (calls, items) outside the physics suites: the dyn
/// steps' share of a registry. Physics kernels run under the `physics` and
/// `ml` spans.
pub fn dyn_dispatches(metrics: &Metrics) -> (u64, u64) {
    metrics
        .kernel_snapshot()
        .iter()
        .filter(|(name, _)| !name.split('/').any(|p| p == "physics" || p == "ml"))
        .fold((0, 0), |(c, i), (_, k)| (c + k.calls, i + k.items))
}

/// Median wall time of a no-op dispatch of `items` items on `sub`, µs.
pub fn probe_empty_dispatch(sub: &Substrate, items: usize) -> f64 {
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            sub.run("perfbench_empty", items.max(1), |i| {
                black_box(i);
            });
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Checkpoint, restore, state hash and column extraction on `model`. The
/// restore goes back to the state just captured, which must hash the same.
pub fn probe_state_ops<R: Real>(model: &mut GristModel<R>, out: &mut Outcome) {
    const REPS: usize = 5;
    let before = model.state_hash();
    let mut ck = None;
    fn take(f: &mut dyn FnMut()) -> f64 {
        let v: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                f();
                ms_since(t)
            })
            .collect();
        median(&v)
    }
    out.set(
        "core.checkpoint_ms",
        take(&mut || ck = Some(model.checkpoint())),
    );
    let ck = ck.expect("checkpoint captured");
    out.set("core.checkpoint_bytes", ck.byte_len() as f64);
    let mut restored = true;
    out.set(
        "core.restore_ms",
        take(&mut || restored &= model.restore(&ck).is_ok()),
    );
    out.set(
        "core.state_hash_ms",
        take(&mut || {
            black_box(model.state_hash());
        }),
    );
    out.set(
        "core.extract_columns_ms",
        take(&mut || {
            black_box(extract_columns(
                &mut model.solver,
                &model.state,
                &model.surface,
            ));
        }),
    );
    let ok = restored && model.state_hash() == before;
    out.tally(1, u64::from(!ok));
}

/// Median dyn-step time of a serial-substrate twin of the seed's model:
/// the same step without dispatch overhead.
pub fn serial_twin_p50<R: Real>(config: &RunConfig, seed: u64) -> f64 {
    let mut twin = build::<R>(config, seed, Substrate::serial());
    let ms: Vec<f64> = (0..config.dyn_per_phy().max(1))
        .map(|_| {
            let t = Instant::now();
            twin.step_dyn();
            ms_since(t)
        })
        .collect();
    median(&ms)
}

/// Batched ML inference over the model's own columns, when its physics is
/// the ML suite.
fn probe_ml<R: Real>(model: &mut GristModel<R>, out: &mut Outcome) {
    let cols = extract_columns(&mut model.solver, &model.state, &model.surface);
    if let PhysicsEngine::Ml(suite) = &model.physics {
        probe_ml_suite(suite, &cols, out);
    }
}

/// Time `suite.step_columns` over `cols`; GFLOP/s from the suite's exact
/// `ml.flops_batched` counter.
pub fn probe_ml_suite(suite: &MlSuite, cols: &[Column], out: &mut Outcome) {
    const REPS: usize = 5;
    let metrics = suite.sub.metrics();
    let flops0 = metrics.counter("ml.flops_batched");
    let t = Instant::now();
    for _ in 0..REPS {
        black_box(suite.step_columns(cols));
    }
    let secs = t.elapsed().as_secs_f64();
    let flops = metrics.counter("ml.flops_batched") - flops0;
    out.set(
        "ml.step_columns_us_per_col",
        secs * 1e6 / (REPS * cols.len()).max(1) as f64,
    );
    out.set("ml.gflops", flops as f64 / secs / 1e9);
    out.set(
        "ml.scratch_alloc_events",
        suite.scratch_alloc_events() as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI_CONV: Spec = Spec {
        level: 2,
        nlev: 6,
        mixed: false,
        ml: false,
        cpes: 4,
        segment_periods: None,
    };
    const MINI_ML: Spec = Spec {
        level: 2,
        nlev: 6,
        mixed: true,
        ml: true,
        cpes: 4,
        segment_periods: Some(1),
    };

    #[test]
    fn miniature_coupled_runs_have_no_failures() {
        for spec in [MINI_CONV, MINI_ML] {
            for trace in [false, true] {
                let (out, spans) = run(&spec, 7, 0.4, trace);
                assert!(out.attempted > 0);
                assert_eq!(out.failed, 0, "{spec:?} trace={trace}");
                assert_eq!(spans.is_empty(), !trace);
                let key = if trace {
                    "core.step_dyn.p50_ms"
                } else {
                    "sdpd"
                };
                assert!(out.values[key] > 0.0, "{key} missing");
            }
        }
    }

    /// A replayed segment ends on the same state every time, so a wrong
    /// end hash is caught as a failed check.
    #[test]
    fn a_replay_with_the_wrong_end_hash_fails_its_checks() {
        let config = MINI_ML.config();
        let mut model = build::<f32>(&config, 3, Substrate::serial());
        let seg = Segments {
            initial: Some(model.checkpoint()),
            end_hash: 0,
            steps: config.dyn_per_phy(),
        };
        let w = window(&mut model, &seg, 0.2, None, &SpanLog::new(false));
        assert!(w.bad_checks > 0 && w.bad_checks < w.checks);
    }
}
