//! The metric catalogue and the result line. Every run prints every metric
//! of its kind (end-to-end untraced, per-layer traced); a layer a workload
//! does not exercise reads 0 there.

use std::collections::BTreeMap;

/// End-to-end metrics: name, unit. `latency.p50_ms` is the median latency
/// of the workload's unit of work (see `perfbench/README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sdpd", "d/d"),
    ("latency.p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics from the traced run, grouped by crate.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The workload's tail latency, from the traced run's untraced half.
    ("latency.p99_ms", "ms"),
    // sunway-sim
    ("substrate.dispatches_per_step", "count"),
    ("substrate.items_per_dispatch", "count"),
    ("substrate.empty_dispatch_us", "us"),
    ("substrate.dispatch_share", "ratio"),
    // grist-core
    ("core.step_dyn.p50_ms", "ms"),
    ("core.step_dyn.busy_s", "s"),
    ("core.step_dyn.serial_p50_ms", "ms"),
    ("core.step_physics.p50_ms", "ms"),
    ("core.step_physics.busy_s", "s"),
    ("core.checkpoint_ms", "ms"),
    ("core.checkpoint_bytes", "bytes"),
    ("core.restore_ms", "ms"),
    ("core.state_hash_ms", "ms"),
    ("core.extract_columns_ms", "ms"),
    // grist-ml
    ("ml.step_columns_us_per_col", "us"),
    ("ml.gflops", "GFLOP/s"),
    ("ml.scratch_alloc_events", "count"),
    // grist-dycore: the five hottest dycore kernels of coupled_g4_mixml
    ("dycore.kernel.fct_loworder.ms_per_call", "ms"),
    ("dycore.kernel.fct_limiter.ms_per_call", "ms"),
    ("dycore.kernel.fct_apply.ms_per_call", "ms"),
    ("dycore.kernel.hevi_diagnose.ms_per_call", "ms"),
    ("dycore.kernel.hevi_implicit_vertical.ms_per_call", "ms"),
    // grist-runtime
    ("runtime.swe_dyn_step.p50_ms", "ms"),
    ("runtime.exchange_us", "us"),
    ("runtime.halo_wait_ms", "ms"),
    ("runtime.rank_imbalance", "ratio"),
    ("halo.messages_per_step", "count"),
    ("halo.bytes_per_step", "bytes"),
    // grist-mesh
    ("mesh.build_s", "s"),
    ("mesh.partition_s", "s"),
    ("mesh.halo_layout_s", "s"),
    ("partition.edge_cut", "count"),
    // grist-serve
    ("serve.p50_ms.r1000", "ms"),
    ("serve.p99_ms.r1000", "ms"),
    ("serve.p50_ms.r8000", "ms"),
    ("serve.p99_ms.r8000", "ms"),
    ("serve.ok_rate_qps", "1/s"),
    ("serve.submit_us.p50", "us"),
    ("serve.batch_size.mean", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.ml_cells_per_query", "count"),
    ("serve.engine_busy_share", "ratio"),
    ("serve.view_restores_per_s", "1/s"),
    ("serve.gen_late_ms.p99", "ms"),
    ("serve.gen_late_ms.max", "ms"),
    ("ensemble.publishes_per_s", "1/s"),
    // grist-obs and the benchmark's own tracing
    ("obs.trace_overhead_pct", "%"),
    ("trace.unattributed_share", "ratio"),
];

/// One run's result: operations attempted and failed, and metric values by
/// name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Count `n` operations, `bad` of which failed.
    pub fn tally(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// The last line of standard output: every metric of `catalogue`,
    /// unset ones as 0. A non-finite value is printed as 0 and counted as a
    /// failed operation.
    pub fn result_line(&self, catalogue: &[(&str, &str)]) -> String {
        let mut failed = self.failed;
        let mut metrics = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let mut v = self.values.get(name).copied().unwrap_or(0.0);
            if !v.is_finite() {
                failed += 1;
                v = 0.0;
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        let attempted = self.attempted.max(1);
        let failed = failed.min(attempted);
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0 && self.attempted > 0,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunway_sim::Json;

    fn names_in(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    /// The catalogue here and the one the benchmark declares are the same.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_in(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(names_in(&doc, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut o = Outcome::default();
        o.tally(10, 0);
        o.set("sdpd", 1234.5);
        o.set("latency.p50_ms", f64::NAN);
        let doc = Json::parse(&o.result_line(END_TO_END)).unwrap();
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(10));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(1));
        assert!(matches!(doc.get("correct"), Some(Json::Bool(false))));
        let m = doc.get("metrics").unwrap();
        assert_eq!(m.as_obj().unwrap().len(), END_TO_END.len());
        let sdpd = m.get("sdpd").unwrap();
        assert_eq!(sdpd.get("value").and_then(Json::as_f64), Some(1234.5));
        assert_eq!(sdpd.get("unit").and_then(Json::as_str), Some("d/d"));
    }
}
