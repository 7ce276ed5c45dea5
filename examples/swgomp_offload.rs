//! The Fig. 4 / Fig. 5 story as a runnable demo: take the paper's example
//! kernel (`tend_grad_ke_at_edge`), run it serially "on the MPE", then
//! offload it through the SWGOMP job server — the `!$omp target` path, whose
//! chunks Fig. 5 counts as spawned by a team-head CPE for its team — and
//! through the `workshare` array-op path (`kinetic_energy(:,:) = 0`). The
//! spawn counts follow the modeled 64 CPEs, whatever the host's core count.
//!
//! ```text
//! cargo run --release --example swgomp_offload
//! ```

use grist_dycore::operators::ScaledGeometry;
use grist_dycore::Field2;
use grist_mesh::{HexMesh, EARTH_OMEGA, EARTH_RADIUS_M};
use std::sync::atomic::Ordering;
use std::time::Instant;
use sunway_sim::JobServer;

fn main() {
    let mesh = HexMesh::build(5);
    let nlev = 30;
    let geom: ScaledGeometry<f64> = ScaledGeometry::new(&mesh, EARTH_RADIUS_M, EARTH_OMEGA);
    let ke = Field2::<f64>::from_fn(nlev, mesh.n_cells(), |k, c| {
        (c % 101) as f64 * 0.5 + k as f64
    });
    println!(
        "grid: G5 ({} cells, {} edges), {} levels",
        mesh.n_cells(),
        mesh.n_edges(),
        nlev
    );

    // --- "MPE" serial reference ---
    let mut serial = vec![0.0f64; mesh.n_edges() * nlev];
    let t0 = Instant::now();
    for e in 0..mesh.n_edges() {
        let [c1, c2] = mesh.edge_cells[e];
        for k in 0..nlev {
            serial[e * nlev + k] =
                -(ke.at(k, c2 as usize) - ke.at(k, c1 as usize)) * geom.inv_edge_de[e];
        }
    }
    let t_serial = t0.elapsed();

    // --- SWGOMP offload: !$omp target + !$omp do ---
    let server = JobServer::new(64); // the 64 CPEs of one core group
    let tend: Vec<std::sync::atomic::AtomicU64> = (0..mesh.n_edges() * nlev)
        .map(|_| std::sync::atomic::AtomicU64::new(0))
        .collect();
    let t1 = Instant::now();
    server.target_parallel_for(mesh.n_edges(), 256, &|e| {
        let [c1, c2] = mesh.edge_cells[e];
        for k in 0..nlev {
            let v = -(ke.at(k, c2 as usize) - ke.at(k, c1 as usize)) * geom.inv_edge_de[e];
            tend[e * nlev + k].store(v.to_bits(), Ordering::Relaxed);
        }
    });
    let t_offload = t1.elapsed();

    // Verify bit-exact agreement.
    for (i, s) in serial.iter().enumerate() {
        let v = f64::from_bits(tend[i].load(Ordering::Relaxed));
        assert_eq!(v, *s, "offloaded kernel diverged at {i}");
    }

    // --- workshare array op: kinetic_energy(:,:) = 0 ---
    let mut ke_zero = ke.clone();
    server.target_workshare_fill(ke_zero.as_mut_slice(), 0.0);
    assert!(ke_zero.as_slice().iter().all(|&x| x == 0.0));

    println!("\ntend_grad_ke_at_edge (the Fig. 4 kernel):");
    println!(
        "  serial (\"MPE\"):        {:>8.2} ms",
        t_serial.as_secs_f64() * 1e3
    );
    println!(
        "  SWGOMP target offload: {:>8.2} ms (bit-exact)",
        t_offload.as_secs_f64() * 1e3
    );
    println!("\nFig. 5 job-spawning hierarchy:");
    println!(
        "  jobs spawned by MPE:       {}",
        server.stats.spawned_by_mpe.load(Ordering::Relaxed)
    );
    println!(
        "  jobs spawned by team-head CPE: {}",
        server.stats.spawned_by_cpe.load(Ordering::Relaxed)
    );
    println!(
        "  chunks executed:           {}",
        server.stats.chunks_run.load(Ordering::Relaxed)
    );
    println!("\nworkshare fill (kinetic_energy(:,:) = 0): verified.");
    println!("ok: the OpenMP-offload programming model runs the paper's example kernel.");
}
