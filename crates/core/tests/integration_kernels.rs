//! The CI kernel-equivalence matrix: one test binary run in all four
//! {scalar-reference, simd} × {sync-dma, double-buffered} cells (selected
//! through the `GRIST_SIMD` / `GRIST_DMA` env vars), asserting that every
//! vectorized or pipelined path is **bitwise identical** to the scalar
//! synchronous oracle.
//!
//! Two layers of coverage:
//!
//! * env-driven — fresh substrates pick up the ambient matrix cell, so
//!   `ambient_mode_matches_the_scalar_sync_oracle` proves whatever cell CI
//!   selected against an explicitly-pinned oracle;
//! * explicit — the full 2×2 grid is swept in-process regardless of env,
//!   so a local `cargo test` covers all cells too.
//!
//! The dycore gather kernels (FCT tracer transport, the HEVI step that
//! drives it) are swept over column heights that exercise every lane-group
//! width, on the serial and the CPE-team targets.
//!
//! Plus the DMA staging edge cases: empty input, one chunk,
//! odd chunk counts, non-divisible tails, byte-counter parity between the
//! synchronous and double-buffered pipelines, and a mid-pipeline fault that
//! must drain the in-flight chunk and degrade to the serial path cleanly.

use grist_core::MlSuite;
use grist_dycore::hevi::NhConfig;
use grist_dycore::kernels as dk;
use grist_dycore::operators::ScaledGeometry;
use grist_dycore::tracer::{fct_transport_step, FctWorkspace};
use grist_dycore::{Field2, NhSolver, Real, VerticalCoord};
use grist_mesh::{HexMesh, Vec3, EARTH_OMEGA, EARTH_RADIUS_M};
use grist_physics::Column;
use sunway_sim::{
    stage_chunks, CopyStats, DmaMode, FaultPlan, FaultSite, KernelMode, LdmArena, Substrate,
    SunwaySpec,
};

const NLEV: usize = 19;
const NCOLS: usize = 40;

fn columns(n: usize) -> Vec<Column> {
    (0..n)
        .map(|i| {
            let mut c = Column::reference(NLEV);
            c.t[NLEV / 2] += (i % 13) as f64 * 0.4;
            c.qv[NLEV - 1] *= 1.0 + 0.02 * (i % 7) as f64;
            c
        })
        .collect()
}

/// Flatten an ML inference result to bit patterns (no PartialEq on the
/// physics structs; bitwise is the contract anyway).
fn ml_bits(suite: &MlSuite, cols: &[Column]) -> Vec<u64> {
    let mut bits = Vec::new();
    for out in suite.step_columns(cols) {
        for v in out
            .tend
            .dt_dt
            .iter()
            .chain(&out.tend.dqv_dt)
            .chain(&out.tend.dqc_dt)
            .chain(&out.tend.dqr_dt)
        {
            bits.push(v.to_bits());
        }
        for v in [
            out.diag.gsw,
            out.diag.glw,
            out.diag.precip,
            out.diag.shflx,
            out.diag.lhflx,
        ] {
            bits.push(v.to_bits());
        }
    }
    bits
}

/// Run the mesh-free dycore kernels on `sub`; return all outputs as bits.
fn dycore_bits(sub: &Substrate) -> Vec<u64> {
    let (nc, ne) = (90, 120);
    let dpi = Field2::<f64>::from_fn(NLEV, nc, |k, c| 780.0 + (k * 7 + c) as f64 * 0.3);
    let dphi = Field2::<f64>::from_fn(NLEV, nc, |k, c| 2100.0 + ((k + c) % 11) as f64);
    let qv = Field2::<f64>::from_fn(NLEV, nc, |k, c| 1e-3 * (1.0 + ((k * c) % 5) as f64));
    let q0 = Field2::<f64>::zeros(NLEV, nc);
    let theta = Field2::<f64>::from_fn(NLEV, nc, |k, c| 295.0 + ((k + 2 * c) % 17) as f64);
    let pv = Field2::<f64>::from_fn(NLEV, ne, |k, e| 1e-4 * (1.0 + ((k + e) % 9) as f64));
    let vt = Field2::<f64>::from_fn(NLEV, ne, |k, e| ((e * 3 + k) % 13) as f64 - 6.0);
    let mut rrr = Field2::<f64>::zeros(NLEV, nc);
    let mut cor = Field2::<f64>::zeros(NLEV, ne);
    dk::compute_rrr(sub, &dpi, &dphi, &qv, &q0, &q0, &theta, &mut rrr);
    dk::calc_coriolis_term(sub, &pv, &vt, &mut cor);
    rrr.as_slice()
        .iter()
        .chain(cor.as_slice())
        .map(|v| v.to_bits())
        .collect()
}

fn oracle_sub() -> Substrate {
    let sub = Substrate::serial();
    sub.set_kernel_mode(KernelMode::ScalarReference);
    sub.set_dma_mode(DmaMode::Synchronous);
    sub
}

/// Whatever cell `GRIST_SIMD`/`GRIST_DMA` selected for this process must
/// agree bit-for-bit with the pinned scalar/sync oracle — this is the
/// assertion each CI matrix job runs.
#[test]
fn ambient_mode_matches_the_scalar_sync_oracle() {
    let cols = columns(NCOLS);

    let mut ambient = MlSuite::untrained(NLEV, 16, 9);
    ambient.sub = Substrate::cpe_teams(4); // fresh substrate: env-selected modes
    let mut oracle = MlSuite::untrained(NLEV, 16, 9);
    oracle.sub = oracle_sub();
    assert_eq!(
        ml_bits(&ambient, &cols),
        ml_bits(&oracle, &cols),
        "ML inference in mode ({:?}, {:?}) diverges from the scalar/sync oracle",
        ambient.sub.kernel_mode(),
        ambient.sub.dma_mode(),
    );

    assert_eq!(
        dycore_bits(&Substrate::serial()),
        dycore_bits(&oracle_sub()),
        "dycore kernels in the ambient mode diverge from the scalar oracle"
    );
}

/// The full 2×2 matrix, swept explicitly so local runs don't depend on env.
#[test]
fn explicit_mode_grid_is_bitwise_closed() {
    let cols = columns(NCOLS);
    let mut oracle = MlSuite::untrained(NLEV, 16, 9);
    oracle.sub = oracle_sub();
    let want = ml_bits(&oracle, &cols);
    let want_dycore = dycore_bits(&oracle_sub());

    for kernel in [KernelMode::ScalarReference, KernelMode::Simd] {
        for dma in [DmaMode::Synchronous, DmaMode::DoubleBuffered] {
            let mut suite = MlSuite::untrained(NLEV, 16, 9);
            suite.sub = Substrate::cpe_teams(4);
            suite.sub.set_kernel_mode(kernel);
            suite.sub.set_dma_mode(dma);
            assert_eq!(
                ml_bits(&suite, &cols),
                want,
                "ML cell ({kernel:?}, {dma:?}) diverges from the oracle"
            );

            let sub = Substrate::serial();
            sub.set_kernel_mode(kernel);
            sub.set_dma_mode(dma);
            assert_eq!(
                dycore_bits(&sub),
                want_dycore,
                "dycore cell ({kernel:?}, {dma:?}) diverges from the oracle"
            );
        }
    }
}

/// Column heights covering each lane-group shape: a lone 1-wide group,
/// 4+2+1 tails, exactly one full group, full groups plus 2+1 and 4 tails,
/// and four full groups plus a 1-wide tail.
const FCT_NLEVS: [usize; 6] = [1, 7, 8, 19, 20, 33];

/// Bits of a field, widened to f64 (which keeps the sign of zero).
fn bits<R: Real>(f: &Field2<R>) -> impl Iterator<Item = u64> + '_ {
    f.as_slice().iter().map(|x| x.to_f64().to_bits())
}

/// Three FCT steps of level-dependent blobs under a solid-body flux whose
/// direction flips part-way up the column (both upwind branches in every
/// cell); returns the final tracer and mass as bits.
fn fct_bits<R: Real>(sub: &Substrate, mesh: &HexMesh, nlev: usize) -> Vec<u64> {
    let geom: ScaledGeometry<R> = ScaledGeometry::new(mesh, EARTH_RADIUS_M, EARTH_OMEGA);
    let r2 = EARTH_RADIUS_M * EARTH_RADIUS_M;
    let mut mass = Field2::from_fn(nlev, mesh.n_cells(), |k, c| {
        R::from_f64((1000.0 + k as f64) * mesh.cell_area[c] * r2)
    });
    let flux = Field2::from_fn(nlev, mesh.n_edges(), |k, e| {
        let v = Vec3::new(0.0, 0.0, 1.0).cross(mesh.edge_mid[e]);
        let speed = 1e-5 * EARTH_RADIUS_M * (1.0 - 0.08 * k as f64);
        R::from_f64(1000.0 * speed * v.dot(mesh.edge_normal[e]))
    });
    let mut q = Field2::from_fn(nlev, mesh.n_cells(), |k, c| {
        let d = mesh.cell_xyz[c].arc_dist(Vec3::new(1.0, 0.0, 0.0));
        R::from_f64((-(d * d) / (0.09 + 0.01 * k as f64)).exp())
    });
    let mut ws = FctWorkspace::new(nlev, mesh);
    for _ in 0..3 {
        fct_transport_step(sub, mesh, &geom, &mut mass, &flux, &mut q, 600.0, &mut ws);
    }
    bits(&q).chain(bits(&mass)).collect()
}

/// Substrates to check against the oracle: fresh ones in the ambient
/// (env-selected) mode, then the explicit kernel-mode × target grid.
fn gather_subs() -> Vec<(String, Substrate)> {
    let mut subs = vec![
        ("ambient serial".to_string(), Substrate::serial()),
        ("ambient cpe_teams".to_string(), Substrate::cpe_teams(4)),
    ];
    for kernel in [KernelMode::ScalarReference, KernelMode::Simd] {
        for (target, sub) in [
            ("serial", Substrate::serial()),
            ("cpe_teams", Substrate::cpe_teams(4)),
        ] {
            sub.set_kernel_mode(kernel);
            subs.push((format!("{kernel:?} {target}"), sub));
        }
    }
    subs
}

#[test]
fn fct_transport_matches_the_scalar_oracle_at_every_lane_shape() {
    let mesh = HexMesh::build(2);
    let subs = gather_subs();
    for nlev in FCT_NLEVS {
        let want32 = fct_bits::<f32>(&oracle_sub(), &mesh, nlev);
        let want64 = fct_bits::<f64>(&oracle_sub(), &mesh, nlev);
        for (label, sub) in &subs {
            assert!(
                fct_bits::<f32>(sub, &mesh, nlev) == want32,
                "f32 FCT on {label} at nlev {nlev} diverges from the scalar oracle"
            );
            assert!(
                fct_bits::<f64>(sub, &mesh, nlev) == want64,
                "f64 FCT on {label} at nlev {nlev} diverges from the scalar oracle"
            );
        }
    }
}

/// One full HEVI step at G3 with three tracers and a moving, perturbed
/// state; returns every prognostic field as bits.
fn nh_step_bits<R: Real>(sub: &Substrate) -> Vec<u64> {
    let nlev = 20;
    let config = NhConfig {
        ntracers: 3,
        ..NhConfig::default()
    };
    let mut s = NhSolver::<R>::with_substrate(
        HexMesh::build(3),
        VerticalCoord::uniform(nlev),
        config,
        sub.clone(),
    );
    let mut st = s.isothermal_rest_state(290.0, 1.0e5);
    for e in 0..s.mesh.n_edges() {
        let m = s.mesh.edge_mid[e];
        let zonal = Vec3::new(0.0, 0.0, 1.0).cross(m).dot(s.mesh.edge_normal[e]);
        for k in 0..nlev {
            let jet = 15.0 * (2.0 * m.lat()).cos().powi(2) * (1.0 - 0.1 * k as f64);
            st.u.set(k, e, R::from_f64(jet * zonal));
        }
    }
    for k in 12..nlev {
        let dpi = st.dpi.at(k, 0);
        st.theta_m.set(k, 0, st.theta_m.at(k, 0) + dpi * 3.0);
    }
    for (i, q) in st.tracers.iter_mut().enumerate() {
        *q = Field2::from_fn(nlev, s.mesh.n_cells(), |k, c| {
            let d = s.mesh.cell_xyz[c].arc_dist(Vec3::new(0.0, 1.0, 0.0));
            R::from_f64(1e-3 * (i + 1) as f64 * (-(d * d) / (0.1 + 0.01 * k as f64)).exp())
        });
    }
    s.step(&mut st, 120.0);
    let mut out: Vec<u64> = [&st.dpi, &st.theta_m, &st.w, &st.phi]
        .into_iter()
        .flat_map(bits)
        .collect();
    out.extend(bits(&st.u));
    for q in &st.tracers {
        out.extend(bits(q));
    }
    out
}

#[test]
fn nh_step_with_tracers_matches_the_scalar_oracle() {
    let want32 = nh_step_bits::<f32>(&oracle_sub());
    let want64 = nh_step_bits::<f64>(&oracle_sub());
    for (label, sub) in gather_subs() {
        assert!(
            nh_step_bits::<f32>(&sub) == want32,
            "f32 NhSolver::step on {label} diverges from the scalar oracle"
        );
        assert!(
            nh_step_bits::<f64>(&sub) == want64,
            "f64 NhSolver::step on {label} diverges from the scalar oracle"
        );
    }
}

/// Reference computation for the staging tests: a chunk- and
/// index-dependent update, applied without any DMA machinery.
fn staged_reference(data: &mut [f32], chunk: usize) {
    for (k, block) in data.chunks_mut(chunk).enumerate() {
        for (i, v) in block.iter_mut().enumerate() {
            *v = *v * 1.25 + (k * 100 + i) as f32;
        }
    }
}

fn run_staged(mode: DmaMode, len: usize, chunk: usize) -> (Vec<f32>, CopyStats) {
    let mut arena = LdmArena::new(&SunwaySpec::next_gen());
    let stats = CopyStats::default();
    let mut data: Vec<f32> = (0..len).map(|i| i as f32 * 0.5).collect();
    stage_chunks(
        mode,
        &mut arena,
        chunk,
        &mut data,
        &stats,
        None,
        |k, buf| {
            for (i, v) in buf.iter_mut().enumerate() {
                *v = *v * 1.25 + (k * 100 + i) as f32;
            }
        },
    )
    .expect("chunks fit the LDM arena");
    (data, stats)
}

/// Empty input, a single chunk, odd chunk counts, and non-divisible tails
/// all produce identical data AND identical DMA byte/transaction counters
/// in both pipeline modes.
#[test]
fn staging_edge_cases_match_with_byte_counter_parity() {
    for (len, chunk) in [
        (0, 8),   // empty: no transfers at all
        (8, 8),   // exactly one chunk
        (24, 8),  // odd chunk count (3)
        (30, 8),  // non-divisible tail (3 full + 6-element tail)
        (7, 8),   // single short chunk
        (65, 16), // longer pipeline with a 1-element tail
    ] {
        let mut want: Vec<f32> = (0..len).map(|i| i as f32 * 0.5).collect();
        staged_reference(&mut want, chunk);

        let (sync_data, sync_stats) = run_staged(DmaMode::Synchronous, len, chunk);
        let (db_data, db_stats) = run_staged(DmaMode::DoubleBuffered, len, chunk);

        let key = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(key(&sync_data), key(&want), "sync len={len} chunk={chunk}");
        assert_eq!(key(&db_data), key(&want), "double len={len} chunk={chunk}");
        assert_eq!(
            sync_stats.counts(),
            db_stats.counts(),
            "DMA transaction/byte counters diverge at len={len} chunk={chunk}"
        );
        let n_chunks = len.div_ceil(chunk);
        let (transfers, bytes) = sync_stats.counts();
        assert_eq!(
            transfers,
            2 * n_chunks as u64,
            "one get + one put per chunk"
        );
        assert_eq!(bytes, 2 * len as u64 * 4, "every element moves twice");
    }
}

/// A persistent DMA fault in the middle of the pipeline: the in-flight
/// prefetched chunk is drained (computed and written back), the remainder
/// degrades to main-memory compute, and the result stays bitwise correct in
/// both modes with identical fault accounting.
#[test]
fn mid_pipeline_fault_drains_and_degrades_cleanly() {
    let (len, chunk) = (48, 8); // 6 chunks; chunk 3's get is pinned to fail

    let mut want: Vec<f32> = (0..len).map(|i| i as f32 * 0.5).collect();
    staged_reference(&mut want, chunk);

    for mode in [DmaMode::Synchronous, DmaMode::DoubleBuffered] {
        // Fresh plan per mode: the per-site key counter advances with every
        // consultation, so a shared plan would pin a different chunk in the
        // second mode.
        let plan = FaultPlan::new(11)
            .pin(FaultSite::Dma, 3)
            .with_max_retries(2);
        let mut arena = LdmArena::new(&SunwaySpec::next_gen());
        let stats = CopyStats::default();
        let mut data: Vec<f32> = (0..len).map(|i| i as f32 * 0.5).collect();
        let report = stage_chunks(
            mode,
            &mut arena,
            chunk,
            &mut data,
            &stats,
            Some(&plan),
            |k, buf| {
                for (i, v) in buf.iter_mut().enumerate() {
                    *v = *v * 1.25 + (k * 100 + i) as f32;
                }
            },
        )
        .expect("chunks fit the LDM arena");

        let key = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(key(&data), key(&want), "{mode:?}: degraded result differs");
        assert_eq!(report.degraded_at, Some(3), "{mode:?}");
        assert_eq!(report.staged, 3, "{mode:?}: chunks 0..3 went through LDM");
        assert_eq!(report.chunks, 6, "{mode:?}");
        // Chunks 0..3 staged normally: a get and a put each. The failed get
        // and everything after it bypass the DMA engine entirely.
        let (transfers, bytes) = stats.counts();
        assert_eq!(transfers, 2 * 3, "{mode:?}");
        assert_eq!(bytes, 2 * 3 * chunk as u64 * 4, "{mode:?}");
    }
}

/// Double-buffered ML staging meters its DMA traffic through the substrate
/// metrics registry, and still matches the oracle bit-for-bit even while a
/// transient fault plan is armed (retries succeed; nothing degrades).
#[test]
fn ml_staging_under_transient_faults_stays_bitwise_and_metered() {
    let cols = columns(NCOLS);
    let mut oracle = MlSuite::untrained(NLEV, 16, 9);
    oracle.sub = oracle_sub();
    let want = ml_bits(&oracle, &cols);

    let mut suite = MlSuite::untrained(NLEV, 16, 9);
    suite.sub = Substrate::cpe_teams(4);
    suite.sub.set_kernel_mode(KernelMode::Simd);
    suite.sub.set_dma_mode(DmaMode::DoubleBuffered);
    suite.sub.arm_faults(
        FaultPlan::new(5)
            .with_rate(FaultSite::Dma, 0.3)
            .with_max_retries(10),
    );

    assert_eq!(
        ml_bits(&suite, &cols),
        want,
        "transient faults changed bits"
    );

    let snap = suite.sub.metrics().snapshot();
    let dma = snap.counters.get("dma.transactions").copied().unwrap_or(0);
    assert!(
        dma > 0,
        "double-buffered staging must meter DMA transactions"
    );
    assert_eq!(
        snap.counters
            .get("fault.degradations")
            .copied()
            .unwrap_or(0),
        0,
        "transient faults with generous retries must not degrade"
    );
    assert!(
        snap.counters.get("fault.injected").copied().unwrap_or(0) > 0,
        "a 30% fault rate over many gets should inject at least once"
    );
}
