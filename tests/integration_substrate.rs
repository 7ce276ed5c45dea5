//! Execution-target equivalence: the Serial and CpeTeams substrates must
//! produce the same trajectories. Every hot-loop kernel computes each
//! cell/edge/column index independently, so the CPE-team scheduling order
//! must not leak into the numbers — the paper's bit-reproducibility
//! requirement for moving loops onto the accelerator (§3.3).

use grist_core::{GristModel, RunConfig};
use grist_dycore::SweSolver;
use grist_mesh::HexMesh;
use std::sync::atomic::{AtomicU64, Ordering};
use sunway_sim::Substrate;

fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1.0)
}

/// TC2 shallow-water `h` after 12 RK3 steps: serial vs 64-CPE teams.
#[test]
fn swe_tc2_height_matches_serial_on_cpe_teams() {
    let level = 3;
    let dt = 400.0;
    let steps = 12;

    let mut serial = SweSolver::<f64>::with_substrate(HexMesh::build(level), Substrate::serial());
    let mut teams =
        SweSolver::<f64>::with_substrate(HexMesh::build(level), Substrate::cpe_teams(64));
    let mut s_state = grist_dycore::swe::williamson_tc2::<f64>(&serial.mesh);
    let mut t_state = grist_dycore::swe::williamson_tc2::<f64>(&teams.mesh);
    for _ in 0..steps {
        serial.step_rk3(&mut s_state, dt);
        teams.step_rk3(&mut t_state, dt);
    }

    let mut worst = 0.0f64;
    for c in 0..serial.mesh.n_cells() {
        worst = worst.max(rel_err(t_state.h.at(0, c), s_state.h.at(0, c)));
    }
    assert!(
        worst <= 1e-12,
        "TC2 h diverged across substrates: rel err {worst:e}"
    );

    // The teams run must actually have dispatched through the profiler.
    let report = teams.sub.kernel_report();
    assert!(!report.is_empty(), "CPE-teams run recorded no kernels");
    // Kernel names are span-qualified (`dycore/swe_momentum_tend`).
    assert!(report
        .iter()
        .any(|r| r.name.ends_with("swe_momentum_tend") && r.calls >= steps as u64));
}

/// Coupled-model surface pressure after ≥10 dynamics steps (with physics
/// firing on its cadence): serial vs CPE teams.
#[test]
fn coupled_surface_pressure_matches_serial_on_cpe_teams() {
    let config = RunConfig::for_level(2, 10);
    let seconds = 16.0 * config.dt_dyn; // 16 dyn steps, ≥1 physics step
    let mut serial = GristModel::<f64>::with_substrate(config.clone(), Substrate::serial());
    let mut teams = GristModel::<f64>::with_substrate(config, Substrate::cpe_teams(64));
    serial.advance(seconds);
    teams.advance(seconds);

    let ps_s = serial.surface_pressure();
    let ps_t = teams.surface_pressure();
    let mut worst = 0.0f64;
    for (a, b) in ps_t.iter().zip(&ps_s) {
        worst = worst.max(rel_err(*a, *b));
    }
    assert!(
        worst <= 1e-12,
        "coupled ps diverged across substrates: rel err {worst:e}"
    );
}

/// The kernel report exposes per-kernel wall time and call counts for the
/// whole coupled step (dycore + physics share one profiler).
#[test]
fn kernel_report_covers_dycore_and_physics() {
    let config = RunConfig::for_level(2, 10);
    let seconds = 16.0 * config.dt_dyn;
    let mut m = GristModel::<f64>::with_substrate(config, Substrate::cpe_teams(16));
    m.advance(seconds);

    let report = m.kernel_report();
    assert!(!report.is_empty());
    let names: Vec<&str> = report.iter().map(|r| r.name.as_str()).collect();
    // Names carry the full trace-span path (model step → suite → kernel).
    assert!(
        names.contains(&"step/dycore/hevi_momentum_update"),
        "dycore kernel missing: {names:?}"
    );
    assert!(
        names.contains(&"step/physics/physics_columns"),
        "physics kernel missing: {names:?}"
    );
    for r in &report {
        assert!(r.calls > 0, "{}: zero calls", r.name);
        assert!(r.total_ms >= 0.0 && r.mean_us >= 0.0);
    }
    // Hottest-first ordering.
    for w in report.windows(2) {
        assert!(w[0].total_ms >= w[1].total_ms);
    }

    // The formatted table carries every kernel name.
    let text = m.kernel_report_text();
    for r in &report {
        assert!(text.contains(r.name.as_str()));
    }

    // And reset clears the accumulation.
    m.reset_kernel_report();
    assert!(m.kernel_report().is_empty());
}

/// Threads dispatching through clones of one CPE-teams substrate share its
/// job server: they take turns, and every index of every dispatch runs
/// exactly once, with kernel stats and DMA counters summing exactly.
#[test]
fn concurrent_dispatchers_share_one_cpe_teams_substrate() {
    let sub = Substrate::cpe_teams(16);
    let (threads, rounds, n) = (3usize, 100u64, 307usize);
    std::thread::scope(|s| {
        for _ in 0..threads {
            let sub = sub.clone();
            s.spawn(move || {
                let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                for _ in 0..rounds {
                    sub.run_with_bytes("shared_stencil", n, 8, |i| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    });
                }
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == rounds));
            });
        }
    });
    let dispatches = threads as u64 * rounds;
    let m = sub.metrics();
    assert_eq!(m.counter("substrate.dispatches"), dispatches);
    assert_eq!(m.counter("substrate.items"), dispatches * n as u64);
    // Chunk = ceil(307 / 64) = 5 items → 62 transactions per dispatch.
    assert_eq!(m.counter("dma.transactions"), dispatches * 62);
    let stats = &sub.job_server().expect("offload target").stats;
    assert_eq!(stats.spawned_by_mpe.load(Ordering::Relaxed), dispatches);
    assert_eq!(stats.chunks_run.load(Ordering::Relaxed), dispatches * 62);
}

/// A 64-CPE substrate runs on at most the host's cores, but chunking, DMA
/// transactions and job stats still follow the modeled 64 CPEs.
#[test]
fn modeled_width_sets_chunking_on_a_narrower_host() {
    let sub = Substrate::cpe_teams(64);
    let server = sub.job_server().expect("offload target");
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(sub.n_cpes(), 64);
    assert_eq!(server.host_threads(), host.min(64));
    sub.run_with_bytes("wide", 10_000, 16, |_| {});
    // Chunk = ceil(10000 / 256) = 40 items → 250 chunks.
    let m = sub.metrics();
    assert_eq!(m.counter("dma.transactions"), 250);
    assert_eq!(m.counter("dma.bytes"), 160_000);
    assert_eq!(server.stats.spawned_by_mpe.load(Ordering::Relaxed), 1);
    assert_eq!(server.stats.spawned_by_cpe.load(Ordering::Relaxed), 250);
    assert_eq!(server.stats.chunks_run.load(Ordering::Relaxed), 250);
}
