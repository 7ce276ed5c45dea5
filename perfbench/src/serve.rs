//! `serve_live`: reads beside writes. A 4-member G3 ensemble advances on one
//! writer thread (one rank pool), publishing every member's checkpoint to a
//! `SnapshotStore` every few dyn steps, while a `ForecastServer` answers an
//! open-loop stream of seeded queries at two fixed rates. Every publish
//! makes the next query of that member restore its replica, re-hash it and
//! re-extract its columns inline in a batch.
//!
//! The writer is the same loop as `grist_serve::run_ensemble` with one rank
//! pool (perturb, advance, publish `EpochView`s), driven here so it can stop
//! when the measured window ends instead of after a fixed epoch count.
//!
//! The traced run serves through the program's own telemetry plane
//! (`ForecastServer::start_with_obs`, `GristModel::advance_observed`): off
//! in its untraced half, on in its traced half.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grist_core::{extract_columns, GristModel, RunConfig, RunState};
use grist_mesh::HexMesh;
use grist_obs::ObsPlane;
use grist_serve::ensemble::perturb_member;
use grist_serve::{
    default_suite, derive, EpochView, ForecastServer, PendingResponse, Product, ProductData, Query,
    QueryEngine, Response, Select, ServeConfig, SnapshotStore,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sunway_sim::{Metrics, Substrate};

use crate::coupled;
use crate::openloop::{open_loop, OpenLoopResult};
use crate::report::Outcome;
use crate::spans::{self_times, Span, SpanLog};
use crate::stats::{block_p99, block_sdpd, median, ms_since, percentile};

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub level: u32,
    pub nlev: usize,
    pub members: usize,
    /// Dyn steps a member advances per publish.
    pub publish_every: usize,
    /// One member publishes every `publish_period_ms` (round-robin): the
    /// writer runs on a schedule, as an operational ensemble does, and
    /// leaves the serving threads CPU to run on.
    pub publish_period_ms: f64,
    pub max_batch: usize,
    /// The fixed open-loop rates, low first, and the share of the window
    /// each gets.
    pub rates: [f64; 2],
    pub rate_share: [f64; 2],
    /// Responses re-derived bitwise from their source checkpoint, per rate.
    pub verify_per_rate: usize,
    pub setup_reps: usize,
}

pub const LIVE: Spec = Spec {
    level: 3,
    nlev: 10,
    members: 4,
    publish_every: 2,
    publish_period_ms: 60.0,
    max_batch: 32,
    rates: [1000.0, 8000.0],
    rate_share: [0.6, 0.4],
    verify_per_rate: 12,
    setup_reps: 9,
};

/// Epochs the store keeps per member.
const RETAIN: usize = 16;
/// Serving worker threads.
const WORKERS: usize = 2;
/// Tail-latency limit for `serve.ok_rate_qps`, ms.
const LIMIT_MS: f64 = 50.0;
const PERTURB: f64 = 1e-5;
const PRODUCTS: [Product; 3] = [Product::Precip, Product::T2m, Product::ColumnState];

/// The perturbation key of `member` under `seed`: every member is
/// perturbed, differently for every seed.
fn member_key(seed: u64, members: usize, member: usize) -> usize {
    coupled::member_of(seed) * members + member
}

/// The store, the server in front of it, and the telemetry plane both
/// the server and the writer record into, if any.
struct Front {
    store: Arc<SnapshotStore>,
    engine: Arc<QueryEngine<f64>>,
    server: ForecastServer,
    obs: Option<Arc<ObsPlane>>,
}

fn publish(store: &SnapshotStore, member: usize, hash: u64, model: &GristModel<f64>) {
    store.publish(EpochView {
        member,
        epoch: model.dyn_steps() as u64,
        state_hash: hash,
        checkpoint: model.checkpoint(),
    });
}

/// A box around a cell centre, so it never selects no cells.
fn region_around(member: usize, lat: f64, lon: f64, product: Product) -> Query {
    let half = 0.1;
    let dlon = half / lat.cos().max(0.2);
    Query {
        member,
        select: Select::Region {
            lat: (lat - half, lat + half),
            lon: (lon - dlon, lon + dlon),
        },
        product,
    }
}

/// Construction through warm-up: perturbed members, first publish, engine
/// replicas, server (wired into `obs` when given), and one point and one
/// region query per member and product, answered. Returns the members, the
/// front, and how many warm-up queries failed.
fn setup(
    spec: &Spec,
    config: &RunConfig,
    seed: u64,
    obs: Option<Arc<ObsPlane>>,
) -> (Vec<GristModel<f64>>, Front, u64) {
    let store = Arc::new(SnapshotStore::new(spec.members, RETAIN));
    let models: Vec<GristModel<f64>> = (0..spec.members)
        .map(|m| {
            let mut model = GristModel::with_substrate(config.clone(), Substrate::serial());
            perturb_member(&mut model, member_key(seed, spec.members, m), PERTURB);
            publish(&store, m, model.state_hash(), &model);
            model
        })
        .collect();
    let engine = Arc::new(QueryEngine::<f64>::new(
        Arc::clone(&store),
        config.clone(),
        Substrate::serial(),
        default_suite(config.nlev),
    ));
    let server = ForecastServer::start_with_obs(
        Arc::clone(&engine),
        ServeConfig {
            workers: WORKERS,
            max_batch: spec.max_batch,
        },
        obs.clone(),
    );
    let (lat, lon) = (models[0].lats[0], models[0].lons[0]);
    let mut failed = 0;
    for m in 0..spec.members {
        for product in PRODUCTS {
            for q in [
                Query::point(m, lat, lon, product),
                region_around(m, lat, lon, product),
            ] {
                let ok = server
                    .query_blocking(q.clone())
                    .is_ok_and(|r| response_shape_ok(&q, &r));
                failed += u64::from(!ok);
            }
        }
    }
    let front = Front {
        store,
        engine,
        server,
        obs,
    };
    (models, front, failed)
}

/// The seeded query stream of one phase. The mix is that of the
/// repository's own serving traffic (`grist_bench::serve` Phase B and the
/// `integration_serve` property suite): member, cell and product each
/// uniform, so a third each of precip, t2m and columns, every query a point
/// at a cell centre.
fn queries(members: usize, rng: &mut StdRng, lats: &[f64], lons: &[f64], n: usize) -> Vec<Query> {
    (0..n)
        .map(|_| {
            let member = rng.gen_range(0..members);
            let c = rng.gen_range(0..lats.len());
            let product = PRODUCTS[rng.gen_range(0..PRODUCTS.len())];
            Query::point(member, lats[c], lons[c], product)
        })
        .collect()
}

/// What the writer did during a window.
#[derive(Debug, Default)]
struct Writer {
    /// Time each publish spent stepping and publishing, without the
    /// schedule's sleeps.
    publish_ms: Vec<f64>,
    publishes: u64,
    dyn_steps: u64,
    unhealthy: u64,
}

/// Advance the members round-robin, one publish per period, each member
/// `publish_every` dyn steps per publish (observed into `obs` when given),
/// until `stop`. Every member must be healthy at every publish. A writer
/// that falls behind its schedule runs on without sleeping.
fn write(
    spec: &Spec,
    models: &mut [GristModel<f64>],
    store: &SnapshotStore,
    stop: &AtomicBool,
    obs: Option<&ObsPlane>,
    log: &Arc<SpanLog>,
) -> Writer {
    let mut lane = log.lane(1);
    let root = lane.begin("writer", 0);
    let mut w = Writer::default();
    let period = Duration::from_secs_f64(spec.publish_period_ms / 1e3);
    let mut due = Instant::now();
    'run: loop {
        for (m, model) in models.iter_mut().enumerate() {
            let now = Instant::now();
            if now < due {
                lane.time("serve.schedule_wait", || std::thread::sleep(due - now));
            }
            due = due.max(now) + period;
            if stop.load(Ordering::SeqCst) {
                break 'run;
            }
            let busy = Instant::now();
            let secs = spec.publish_every as f64 * model.config.dt_dyn;
            let steps = model.dyn_steps();
            lane.time("core.advance", || match obs {
                // Alerts stay in the plane; `health` below is the check.
                Some(plane) => {
                    model.advance_observed(secs, plane);
                }
                None => model.advance(secs),
            });
            w.dyn_steps += (model.dyn_steps() - steps) as u64;
            if lane.time("core.health", || model.health()).state != RunState::Healthy {
                w.unhealthy += 1;
            }
            let hash = lane.time("core.state_hash", || model.state_hash());
            lane.time("serve.publish", || publish(store, m, hash, model));
            w.publishes += 1;
            w.publish_ms.push(ms_since(busy));
        }
    }
    lane.end(root);
    w
}

/// A response kept for bitwise re-derivation, with the view it claims.
struct Sample {
    product: Product,
    response: Response,
    view: Option<Arc<EpochView>>,
}

/// One fixed-rate phase's outcome.
struct Phase {
    result: OpenLoopResult,
    triples: Vec<(usize, u64, u64)>,
    samples: Vec<Sample>,
}

fn response_shape_ok(q: &Query, r: &Response) -> bool {
    let n = r.cells.len();
    r.member == q.member
        && n > 0
        && match (&r.data, q.product) {
            (ProductData::Columns(v), Product::ColumnState) => v.len() == n,
            (ProductData::Scalars(v), Product::Precip | Product::T2m) => v.len() == n,
            _ => false,
        }
}

fn phase(
    spec: &Spec,
    front: &Front,
    qs: &[Query],
    rate: f64,
    secs: f64,
    id_base: u64,
    log: &Arc<SpanLog>,
) -> Phase {
    let mut triples = Vec::with_capacity(qs.len());
    let mut samples = Vec::new();
    let result = open_loop(
        rate,
        Duration::from_secs_f64(secs),
        id_base,
        log,
        |i| qs[i as usize].clone(),
        |q: Query| front.server.submit(q),
        |p: PendingResponse| p.wait(),
        |i, r: &Response| {
            let q = &qs[i as usize];
            triples.push((r.member, r.epoch, r.state_hash));
            if (i as usize).is_multiple_of(SAMPLE_EVERY) && samples.len() < spec.verify_per_rate {
                samples.push(Sample {
                    product: q.product,
                    response: r.clone(),
                    view: front.store.get(r.member, r.epoch),
                });
            }
            response_shape_ok(q, r)
        },
    );
    Phase {
        result,
        triples,
        samples,
    }
}

/// Re-derive a sampled response from the checkpoint of the epoch it
/// claims: restore, re-hash, re-extract, and re-run the serving suite per
/// column. Every bit must match.
fn verify_sample(s: &Sample, config: &RunConfig, model: &mut GristModel<f64>) -> bool {
    let r = &s.response;
    let Some(view) = &s.view else {
        return false;
    };
    if view.state_hash != r.state_hash || model.restore(&view.checkpoint).is_err() {
        return false;
    }
    if model.state_hash() != view.state_hash {
        return false;
    }
    let cols = extract_columns(&mut model.solver, &model.state, &model.surface);
    match &r.data {
        ProductData::Columns(states) => r.cells.iter().zip(states).all(|(&c, s)| {
            let col = &cols[c];
            s.p == col.p
                && s.t == col.t
                && s.qv == col.qv
                && s.u == col.u
                && s.v == col.v
                && s.tskin.to_bits() == col.tskin.to_bits()
        }),
        ProductData::Scalars(vals) => {
            let suite = default_suite(config.nlev);
            let qcols: Vec<_> = r.cells.iter().map(|&c| cols[c].clone()).collect();
            let outs = suite.step_columns_per_column(&qcols);
            qcols.iter().zip(&outs).zip(vals).all(|((col, out), got)| {
                let d = derive(col, out);
                let want = if s.product == Product::T2m {
                    d.t2m
                } else {
                    d.precip
                };
                got.to_bits() == want.to_bits()
            })
        }
    }
}

/// Engine-side counters and kernel time, for deltas over a window.
#[derive(Debug, Clone, Copy, Default)]
struct EngineCounters {
    queries: u64,
    batches: u64,
    hits: u64,
    misses: u64,
    ml_cells: u64,
    restores: u64,
    kernel_ns: u64,
}

fn engine_counters(m: &Metrics) -> EngineCounters {
    EngineCounters {
        queries: m.counter("serve.queries"),
        batches: m.counter("serve.batches"),
        hits: m.counter("serve.cache.hits"),
        misses: m.counter("serve.cache.misses"),
        ml_cells: m.counter("serve.ml.cells"),
        restores: m.counter("serve.view.restores"),
        kernel_ns: m.kernel_snapshot().iter().map(|(_, k)| k.nanos).sum(),
    }
}

/// One measured window: both rates in turn, writer running throughout.
struct Measured {
    phases: Vec<Phase>,
    writer: Writer,
    wall_s: f64,
    engine: (EngineCounters, EngineCounters),
}

/// Publishes per block of the block-median SDPD (about half a second of
/// writer schedule).
const SDPD_BLOCK: usize = 8;

impl Measured {
    /// The ensemble's simulated days per day of writer busy time: each
    /// publish advances one of the members by `publish_every` dyn steps.
    fn sdpd(&self, spec: &Spec, config: &RunConfig) -> f64 {
        let per_publish = spec.publish_every as f64 * config.dt_dyn / spec.members as f64;
        block_sdpd(per_publish, &self.writer.publish_ms, SDPD_BLOCK)
    }
}

fn measure(
    spec: &Spec,
    models: &mut [GristModel<f64>],
    front: &Front,
    rng: &mut StdRng,
    seconds: f64,
    id_base: u64,
    log: &Arc<SpanLog>,
) -> Measured {
    let (lats, lons) = (models[0].lats.clone(), models[0].lons.clone());
    let plans: Vec<(f64, f64, Vec<Query>)> = spec
        .rates
        .iter()
        .zip(spec.rate_share)
        .map(|(&rate, share)| {
            let secs = seconds * share;
            let n = (rate * secs).round() as usize;
            (rate, secs, queries(spec.members, rng, &lats, &lons, n))
        })
        .collect();
    let stop = AtomicBool::new(false);
    let before = engine_counters(front.engine.substrate().metrics());
    let start = Instant::now();
    let (phases, writer) = std::thread::scope(|scope| {
        let writer =
            scope.spawn(|| write(spec, models, &front.store, &stop, front.obs.as_deref(), log));
        let mut base = id_base;
        let phases: Vec<Phase> = plans
            .iter()
            .map(|(rate, secs, qs)| {
                let p = phase(spec, front, qs, *rate, *secs, base, log);
                base += qs.len() as u64;
                p
            })
            .collect();
        stop.store(true, Ordering::SeqCst);
        (phases, writer.join().expect("writer thread panicked"))
    });
    let wall_s = start.elapsed().as_secs_f64();
    let after = engine_counters(front.engine.substrate().metrics());
    Measured {
        phases,
        writer,
        wall_s,
        engine: (before, after),
    }
}

/// Every `SAMPLE_EVERY`-th request of a phase is kept for re-derivation.
const SAMPLE_EVERY: usize = 97;

/// Count a window's operations and check them: every open-loop request,
/// every response's `(member, epoch, state_hash)` against the store's
/// publish log, every sampled response re-derived from its checkpoint, and
/// the writer's health scans.
fn check(m: &Measured, front: &Front, config: &RunConfig, out: &mut Outcome) {
    let published: HashSet<(usize, u64, u64)> = front.store.published_log().into_iter().collect();
    let mut verifier = GristModel::<f64>::with_substrate(config.clone(), Substrate::serial());
    for p in &m.phases {
        out.tally(p.result.attempted, p.result.failed);
        let unpublished = p.triples.iter().filter(|t| !published.contains(t)).count();
        out.tally(0, unpublished as u64);
        for s in &p.samples {
            out.tally(1, u64::from(!verify_sample(s, config, &mut verifier)));
        }
    }
    out.tally(m.writer.publishes, m.writer.unhealthy);
}

pub fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> (Outcome, Vec<Span>) {
    let config = RunConfig::for_level(spec.level, spec.nlev);
    let mut out = Outcome::default();
    // The traced run's telemetry plane, off until its traced half.
    let plane = trace.then(|| Arc::new(ObsPlane::disabled()));
    let mut setup_s = Vec::new();
    let mut live = None;
    for _ in 0..spec.setup_reps {
        drop(live.take());
        let t = Instant::now();
        let (models, front, failed) = setup(spec, &config, seed, plane.clone());
        setup_s.push(t.elapsed().as_secs_f64());
        out.tally(6 * spec.members as u64, failed);
        live = Some((models, front));
    }
    out.set("setup_s", median(&setup_s));
    let (mut models, front) = live.expect("at least one set-up");
    let mut rng = StdRng::seed_from_u64(seed);

    let Some(plane) = front.obs.clone() else {
        let off = SpanLog::new(false);
        let m = measure(spec, &mut models, &front, &mut rng, seconds, 0, &off);
        check(&m, &front, &config, &mut out);
        let low = &m.phases[0].result;
        out.set("sdpd", m.sdpd(spec, &config));
        out.set("latency.p50_ms", median(&low.latency_ms));
        out.set("peak_rss_mb", crate::stats::peak_rss_mb());
        front.server.shutdown();
        return (out, Vec::new());
    };

    // Traced run: a window with the telemetry plane off and no spans, then
    // one with the plane, the engine's tracer and the spans on.
    let half = seconds / 2.0;
    let off = SpanLog::new(false);
    let plain = measure(spec, &mut models, &front, &mut rng, half, 0, &off);
    check(&plain, &front, &config, &mut out);
    for model in &models {
        model.reset_kernel_report();
    }
    let tracer = front.engine.substrate().metrics().tracer();
    tracer.enable_with_capacity(1 << 16);
    plane.set_enabled(true);
    let log = SpanLog::new(true);
    let m = measure(spec, &mut models, &front, &mut rng, half, 1 << 32, &log);
    plane.set_enabled(false);
    tracer.disable();
    check(&m, &front, &config, &mut out);
    // The plane must have seen every answered query of the traced window.
    let answered: usize = m.phases.iter().map(|p| p.result.latency_ms.len()).sum();
    let recorded = plane.serve_latency_snapshot().count;
    out.tally(1, u64::from(recorded < answered as u64));
    let spans = log.spans();
    let p50 = |m: &Measured| median(&m.phases[0].result.latency_ms);
    out.set(
        "obs.trace_overhead_pct",
        (p50(&m) / p50(&plain) - 1.0) * 100.0,
    );
    out.set(
        "latency.p99_ms",
        block_p99(&plain.phases[0].result.latency_ms),
    );

    for (k, p) in m.phases.iter().enumerate() {
        let rate = spec.rates[k];
        let lat = &p.result.latency_ms;
        out.set(&format!("serve.p50_ms.r{rate}"), median(lat));
        out.set(&format!("serve.p99_ms.r{rate}"), percentile(lat, 0.99));
    }
    let ok_rate = spec
        .rates
        .iter()
        .zip(&m.phases)
        .filter(|(_, p)| p.result.meets(0.99, LIMIT_MS))
        .map(|(&r, _)| r)
        .fold(0.0, f64::max);
    out.set("serve.ok_rate_qps", ok_rate);
    let late: Vec<f64> = m
        .phases
        .iter()
        .flat_map(|p| p.result.late_ms.clone())
        .collect();
    let submit: Vec<f64> = m
        .phases
        .iter()
        .flat_map(|p| p.result.submit_us.clone())
        .collect();
    out.set("serve.gen_late_ms.p99", percentile(&late, 0.99));
    out.set("serve.gen_late_ms.max", percentile(&late, 1.0));
    out.set("serve.submit_us.p50", median(&submit));
    let (b, a) = m.engine;
    let dq = (a.queries - b.queries).max(1) as f64;
    let wall = m.wall_s.max(1e-9);
    out.set(
        "serve.batch_size.mean",
        dq / (a.batches - b.batches).max(1) as f64,
    );
    let (dh, dm) = (a.hits - b.hits, a.misses - b.misses);
    out.set("serve.cache_hit_ratio", dh as f64 / (dh + dm).max(1) as f64);
    out.set(
        "serve.ml_cells_per_query",
        (a.ml_cells - b.ml_cells) as f64 / dq,
    );
    out.set(
        "serve.engine_busy_share",
        (a.kernel_ns - b.kernel_ns) as f64 / 1e9 / (WORKERS as f64 * wall),
    );
    out.set(
        "serve.view_restores_per_s",
        (a.restores - b.restores) as f64 / wall,
    );
    out.set("ensemble.publishes_per_s", m.writer.publishes as f64 / wall);

    if let Some(root) = self_times(&spans).get("writer") {
        out.set(
            "trace.unattributed_share",
            root.self_ns as f64 / root.total_ns.max(1) as f64,
        );
    }
    let (mut calls, mut items) = (0, 0);
    for model in &models {
        let (c, i) = coupled::dyn_dispatches(model.metrics());
        calls += c;
        items += i;
    }
    let items_per = items as f64 / calls.max(1) as f64;
    out.set(
        "substrate.dispatches_per_step",
        calls as f64 / m.writer.dyn_steps.max(1) as f64,
    );
    out.set("substrate.items_per_dispatch", items_per);
    front.server.shutdown();

    // Calibration probes, with the server stopped.
    let empty_us = coupled::probe_empty_dispatch(&Substrate::serial(), items_per.round() as usize);
    out.set("substrate.empty_dispatch_us", empty_us);
    coupled::probe_state_ops(&mut models[0], &mut out);
    let model = &mut models[0];
    let cols = extract_columns(&mut model.solver, &model.state, &model.surface);
    coupled::probe_ml_suite(&default_suite(config.nlev), &cols, &mut out);
    out.set(
        "core.step_dyn.serial_p50_ms",
        coupled::serial_twin_p50::<f64>(&config, seed),
    );
    let t = Instant::now();
    std::hint::black_box(HexMesh::build(spec.level));
    out.set("mesh.build_s", t.elapsed().as_secs_f64());
    (out, spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: Spec = Spec {
        level: 2,
        nlev: 6,
        members: 2,
        publish_every: 1,
        publish_period_ms: 20.0,
        max_batch: 8,
        rates: [200.0, 400.0],
        rate_share: [0.5, 0.5],
        verify_per_rate: 4,
        setup_reps: 1,
    };

    #[test]
    fn miniature_serve_runs_have_no_failures() {
        for trace in [false, true] {
            let (out, spans) = run(&MINI, 9, 1.0, trace);
            assert!(out.attempted > 0);
            assert_eq!(out.failed, 0, "trace={trace}");
            assert_eq!(spans.is_empty(), !trace);
            if trace {
                assert!(spans.iter().any(|s| s.name == "serve.submit" && s.req != 0));
                assert!(out.values["ensemble.publishes_per_s"] > 0.0);
            }
        }
    }

    /// The bitwise re-derivation accepts a served answer and rejects it
    /// with one bit flipped or a claimed hash that was never published.
    #[test]
    fn rederivation_catches_a_flipped_bit() {
        let config = RunConfig::for_level(MINI.level, MINI.nlev);
        let (models, front, failed) = setup(&MINI, &config, 4, None);
        assert_eq!(failed, 0);
        let q = Query::point(1, models[0].lats[3], models[0].lons[3], Product::T2m);
        let response = front.server.query_blocking(q).expect("answered");
        let view = front.store.get(response.member, response.epoch);
        let mut verifier = GristModel::<f64>::with_substrate(config.clone(), Substrate::serial());
        let mut sample = Sample {
            product: Product::T2m,
            response,
            view,
        };
        assert!(verify_sample(&sample, &config, &mut verifier));
        if let ProductData::Scalars(v) = &mut sample.response.data {
            v[0] = f64::from_bits(v[0].to_bits() ^ 1);
        }
        assert!(!verify_sample(&sample, &config, &mut verifier));
        sample.response.state_hash ^= 1;
        assert!(!verify_sample(&sample, &config, &mut verifier));
        front.server.shutdown();
    }
}
