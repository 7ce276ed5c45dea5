//! `halo_g5_2rank`: a two-rank world (`run_world(2)`) stepping the
//! distributed shallow-water dyn step (`grist_core::swe_dyn_step`, halo
//! exchange overlapped with interior compute) at G5 on the serial
//! substrate. The only workload that exercises `grist-runtime`'s halo
//! exchange and `grist-mesh`'s partition and halo-layout set-up, and the
//! plain single-threaded dycore baseline.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use grist_core::{swe_dyn_step, DynStepMode};
use grist_dycore::swe::{williamson_tc2, SwePhases, SweSolver, SweState};
use grist_mesh::{HaloLayout, HexMesh, Partition};
use grist_runtime::{exchange_gathered, run_world, VarList};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sunway_sim::{analyze, trace, Metrics, RooflineInputs, Substrate, SunwaySpec};

use crate::coupled;
use crate::report::Outcome;
use crate::spans::{self_times, Span, SpanLog};
use crate::stats::{block_p99, block_sdpd, median, ms_since};

/// Ranks of the world, partition refinement passes, and halo depth.
const RANKS: usize = 2;
const REFINE_PASSES: usize = 2;
const HALO_DEPTH: usize = 2;

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub level: u32,
    /// Shallow-water step \[s\].
    pub dt: f64,
    /// Steps of the warm-up that also times a step for sizing the window.
    pub warmup_steps: usize,
    pub setup_reps: usize,
}

pub const G5_2RANK: Spec = Spec {
    level: 5,
    dt: 200.0,
    warmup_steps: 4,
    setup_reps: 9,
};

/// Relative size of the seeded initial thickness perturbation.
const PERTURB: f64 = 1e-6;

struct Rank {
    solver: SweSolver<f64>,
    state: SweState<f64>,
    phases: SwePhases,
}

/// Everything built before stepping.
struct World {
    dt: f64,
    layout: HaloLayout,
    ranks: Vec<Mutex<Option<Rank>>>,
    steps_done: u32,
    /// Median step time of the warm-up, ms.
    warm_step_ms: f64,
}

/// Per-rank record of one stepping pass.
#[derive(Debug, Default)]
struct Pass {
    step_ms: Vec<f64>,
    failed: u64,
    h_bits: Vec<u64>,
    calls: u64,
    items: u64,
}

/// Step every rank `steps` times (tags continue from `world.steps_done`).
/// `metrics` meters and traces the exchanges.
fn step_world(
    world: &mut World,
    steps: usize,
    metrics: Option<&Metrics>,
    log: &Arc<SpanLog>,
) -> Vec<Pass> {
    let (layout, slots, base, dt) = (&world.layout, &world.ranks, world.steps_done, world.dt);
    let (passes, _) = run_world(layout.locales.len(), |mut ctx| {
        trace::set_thread_rank(ctx.rank as u32);
        let mut lane = log.lane(ctx.rank as u32);
        let mut r = slots[ctx.rank]
            .lock()
            .expect("rank slot poisoned")
            .take()
            .expect("rank state present");
        let locale = &layout.locales[ctx.rank];
        let mut pass = Pass::default();
        let root = lane.begin("rank", 0);
        for s in 0..steps {
            let t = Instant::now();
            let open = lane.begin("runtime.swe_dyn_step", 0);
            let res = swe_dyn_step(
                &mut r.solver,
                &mut r.state,
                dt,
                &mut ctx,
                locale,
                &r.phases,
                base + s as u32,
                DynStepMode::Overlapped,
                metrics,
                None,
            );
            lane.end(open);
            pass.step_ms.push(ms_since(t));
            pass.failed += u64::from(res.is_err());
        }
        lane.end(root);
        pass.h_bits = r.state.h.as_slice().iter().map(|v| v.to_bits()).collect();
        (pass.calls, pass.items) = coupled::dyn_dispatches(r.solver.sub.metrics());
        *slots[ctx.rank].lock().expect("rank slot poisoned") = Some(r);
        pass
    });
    world.steps_done += steps as u32;
    passes
}

/// Set-up times of the mesh, its partition and its halo layout.
struct MeshTimes {
    build_s: f64,
    partition_s: f64,
    layout_s: f64,
    edge_cut: usize,
}

/// Construction through warm-up.
fn setup(spec: &Spec, seed: u64) -> (World, MeshTimes, u64) {
    let t = Instant::now();
    let mesh = HexMesh::build(spec.level);
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let partition = Partition::build(&mesh, RANKS, REFINE_PASSES);
    let partition_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let layout = HaloLayout::build(&mesh, &partition, HALO_DEPTH);
    let layout_s = t.elapsed().as_secs_f64();
    let edge_cut = partition.quality(&mesh).edge_cut;

    let mut rng = StdRng::seed_from_u64(seed);
    let bump: Vec<f64> = (0..mesh.n_cells())
        .map(|_| 1.0 + rng.gen_range(-PERTURB..PERTURB))
        .collect();
    let ranks = layout
        .locales
        .iter()
        .map(|locale| {
            let split = locale.phase_split(&mesh, 1);
            let solver = SweSolver::<f64>::with_substrate(mesh.clone(), Substrate::serial());
            let phases = SwePhases::build(&solver.mesh, &split.interior_cells);
            let mut state = williamson_tc2::<f64>(&solver.mesh);
            for (c, b) in bump.iter().enumerate() {
                let h = state.h.at(0, c);
                state.h.set(0, c, h * b);
            }
            Mutex::new(Some(Rank {
                solver,
                state,
                phases,
            }))
        })
        .collect();
    let mut world = World {
        dt: spec.dt,
        layout,
        ranks,
        steps_done: 0,
        warm_step_ms: 0.0,
    };
    let passes = step_world(&mut world, spec.warmup_steps, None, &SpanLog::new(false));
    let step_ms: Vec<f64> = passes.iter().flat_map(|p| p.step_ms.clone()).collect();
    world.warm_step_ms = median(&step_ms);
    let failed = passes.iter().map(|p| p.failed).sum();
    let times = MeshTimes {
        build_s,
        partition_s,
        layout_s,
        edge_cut,
    };
    (world, times, failed)
}

/// One measured pass and its checks: every step's exchange succeeded on
/// every rank, and the ranks end with bitwise-identical `h`.
struct Measured {
    passes: Vec<Pass>,
    /// Step latency: the slower rank's time for each step.
    step_ms: Vec<f64>,
    dt: f64,
}

fn measure(
    world: &mut World,
    seconds: f64,
    metrics: Option<&Metrics>,
    log: &Arc<SpanLog>,
    out: &mut Outcome,
) -> Measured {
    let steps = ((seconds * 1e3 / world.warm_step_ms.max(1e-3)).round() as usize).max(8);
    let passes = step_world(world, steps, metrics, log);
    let step_ms: Vec<f64> = (0..steps)
        .map(|s| passes.iter().map(|p| p.step_ms[s]).fold(0.0, f64::max))
        .collect();
    for p in &passes {
        out.tally(steps as u64, p.failed);
    }
    let agree = passes.iter().all(|p| p.h_bits == passes[0].h_bits);
    out.tally(1, u64::from(!agree));
    Measured {
        passes,
        step_ms,
        dt: world.dt,
    }
}

/// Steps per block of the block-median SDPD (about half a second).
const SDPD_BLOCK: usize = 48;

impl Measured {
    fn sdpd(&self) -> f64 {
        block_sdpd(self.dt, &self.step_ms, SDPD_BLOCK)
    }
}

/// Median time of one blocking gathered exchange of `h` between the ranks,
/// with no compute around it, µs.
fn probe_exchange(world: &World, reps: usize) -> f64 {
    let (layout, slots) = (&world.layout, &world.ranks);
    let (per_rank, _) = run_world(layout.locales.len(), |mut ctx| {
        let mut guard = slots[ctx.rank].lock().expect("rank slot poisoned");
        let r = guard.as_mut().expect("rank state present");
        let locale = &layout.locales[ctx.rank];
        let mut h = r.state.h.as_slice().to_vec();
        (0..reps)
            .map(|i| {
                let t = Instant::now();
                let mut list = VarList::new();
                list.push("h", 1, &mut h);
                let ok = exchange_gathered(&mut ctx, locale, &mut list, 900_000 + i as u32);
                black_box(ok.is_ok());
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect::<Vec<f64>>()
    });
    median(&per_rank.concat())
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> (Outcome, Vec<Span>) {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut mesh_s = Vec::new();
    let mut built = None;
    for _ in 0..spec.setup_reps {
        drop(built.take());
        let t = Instant::now();
        let (world, times, failed) = setup(spec, seed);
        setup_s.push(t.elapsed().as_secs_f64());
        out.tally((spec.warmup_steps * RANKS) as u64, failed);
        mesh_s.push((times.build_s, times.partition_s, times.layout_s));
        built = Some((world, times));
    }
    out.set("setup_s", median(&setup_s));
    let (mut world, times) = built.expect("at least one set-up");

    if !trace {
        let m = measure(&mut world, seconds, None, &SpanLog::new(false), &mut out);
        out.set("sdpd", m.sdpd());
        out.set("latency.p50_ms", median(&m.step_ms));
        out.set("peak_rss_mb", crate::stats::peak_rss_mb());
        return (out, Vec::new());
    }

    let half = seconds / 2.0;
    let plain = measure(&mut world, half, None, &SpanLog::new(false), &mut out);
    let metrics = Metrics::default();
    metrics.tracer().enable_with_capacity(1 << 18);
    let log = SpanLog::new(true);
    let calls0: (u64, u64) = plain
        .passes
        .iter()
        .fold((0, 0), |(c, i), p| (c + p.calls, i + p.items));
    let m = measure(&mut world, half, Some(&metrics), &log, &mut out);
    let spans = log.spans();
    out.set(
        "obs.trace_overhead_pct",
        (plain.sdpd() / m.sdpd() - 1.0) * 100.0,
    );
    out.set("latency.p99_ms", block_p99(&plain.step_ms));
    let steps = m.step_ms.len() as f64;
    out.set("runtime.swe_dyn_step.p50_ms", median(&m.step_ms));
    let report = analyze(
        &metrics.tracer().snapshot(),
        &RooflineInputs::from_arch(&SunwaySpec::next_gen()),
    );
    out.set(
        "runtime.halo_wait_ms",
        report.halo.wait_ns as f64 / 1e6 / (steps * RANKS as f64),
    );
    out.set(
        "halo.messages_per_step",
        metrics.counter("halo.messages") as f64 / steps,
    );
    out.set(
        "halo.bytes_per_step",
        metrics.counter("halo.bytes") as f64 / steps,
    );
    let busy: Vec<f64> = m.passes.iter().map(|p| p.step_ms.iter().sum()).collect();
    let mean_busy = busy.iter().sum::<f64>() / busy.len() as f64;
    out.set(
        "runtime.rank_imbalance",
        busy.iter().fold(0.0, |a: f64, &b| a.max(b)) / mean_busy.max(1e-9),
    );
    if let Some(root) = self_times(&spans).get("rank") {
        out.set(
            "trace.unattributed_share",
            root.self_ns as f64 / root.total_ns.max(1) as f64,
        );
    }
    // Dispatch counters are cumulative per rank substrate: difference the
    // two passes.
    let (calls, items) = m
        .passes
        .iter()
        .fold((0, 0), |(c, i), p| (c + p.calls, i + p.items));
    let (calls, items) = (calls - calls0.0, items - calls0.1);
    let per_step = calls as f64 / (steps * RANKS as f64);
    let items_per = items as f64 / calls.max(1) as f64;
    out.set("substrate.dispatches_per_step", per_step);
    out.set("substrate.items_per_dispatch", items_per);
    let empty_us = coupled::probe_empty_dispatch(&Substrate::serial(), items_per.round() as usize);
    out.set("substrate.empty_dispatch_us", empty_us);
    out.set(
        "substrate.dispatch_share",
        per_step * empty_us / 1e3 / median(&m.step_ms).max(1e-9),
    );
    out.set("runtime.exchange_us", probe_exchange(&world, 200));
    let med = |k: usize| {
        let v: Vec<f64> = mesh_s.iter().map(|t| [t.0, t.1, t.2][k]).collect();
        median(&v)
    };
    out.set("mesh.build_s", med(0));
    out.set("mesh.partition_s", med(1));
    out.set("mesh.halo_layout_s", med(2));
    out.set("partition.edge_cut", times.edge_cut as f64);
    (out, spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: Spec = Spec {
        level: 3,
        dt: 400.0,
        warmup_steps: 2,
        setup_reps: 1,
    };

    #[test]
    fn miniature_halo_runs_have_no_failures() {
        for trace in [false, true] {
            let (out, spans) = run(&MINI, 5, 0.3, trace);
            assert!(out.attempted > 0);
            assert_eq!(out.failed, 0, "trace={trace}");
            assert_eq!(spans.is_empty(), !trace);
            if trace {
                assert!(out.values["halo.messages_per_step"] > 0.0);
                assert!(out.values["runtime.exchange_us"] > 0.0);
            }
        }
    }
}
