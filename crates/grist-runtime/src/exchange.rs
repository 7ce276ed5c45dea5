//! Gathered halo exchange (§3.1.3): "To refine the granularity of data
//! exchange and minimize inter-process communications, a linked list is
//! utilized to gather variables for exchange, and a single call to the
//! communication interface efficiently completes the data exchange for all
//! listed variables."
//!
//! [`VarList`] is the Rust rendering of that linked list: solvers register
//! every field that needs fresh halos, then one [`exchange_gathered`] call
//! packs all of them into a single message per neighbour. The round is one
//! begin/complete pair ([`exchange_gathered_begin`] packs and sends,
//! [`exchange_gathered_complete`] receives and unpacks); a synchronous round
//! is the pair called back to back. Metering, tracing and fault injection
//! travel in a [`HaloCtx`].

use crate::comm::RankCtx;
use grist_mesh::RankLocale;
use std::fmt;
use sunway_sim::fault::{FaultPlan, FaultSite};
use sunway_sim::trace::{self, EventKind, Tracer};
use sunway_sim::Metrics;

/// A registered exchange variable: a full-size (global-cell-indexed) field
/// with `nlev` values per cell, of which only the owned cells are valid
/// before the exchange.
pub struct ExchangeVar<'a> {
    pub name: &'static str,
    pub nlev: usize,
    pub data: &'a mut [f64],
}

/// The gather list of variables for one exchange round.
#[derive(Default)]
pub struct VarList<'a> {
    vars: Vec<ExchangeVar<'a>>,
}

impl<'a> VarList<'a> {
    pub fn new() -> Self {
        VarList { vars: Vec::new() }
    }

    /// Append a variable (the "linked list" registration).
    pub fn push(&mut self, name: &'static str, nlev: usize, data: &'a mut [f64]) {
        self.vars.push(ExchangeVar { name, nlev, data });
    }

    pub fn len(&self) -> usize {
        self.vars.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Values per cell across all listed variables.
    pub fn values_per_cell(&self) -> usize {
        self.vars.iter().map(|v| v.nlev).sum()
    }

    /// The list's shape: `(name, nlev)` per registered variable, in order.
    /// An async exchange records this at begin time and checks it at
    /// complete time, so the unpack cannot silently land in different
    /// fields than the pack read from.
    pub fn signature(&self) -> Vec<(&'static str, usize)> {
        self.vars.iter().map(|v| (v.name, v.nlev)).collect()
    }
}

/// A failed halo exchange: the packed buffer received from a peer does not
/// match the values the local gather list expects — ranks disagree on the
/// variable list, level counts, or halo layout. The error carries enough
/// context to identify the mismatched pairing without a debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeError {
    /// Rank that sent the malformed message.
    pub src: usize,
    /// Receiving rank.
    pub rank: usize,
    /// Message tag of the exchange round.
    pub tag: u32,
    /// Values the receiver's list expects (`halo cells × values per cell`).
    pub expected_values: usize,
    /// Values actually received.
    pub got_values: usize,
    /// Halo cells the receiver expects from `src`.
    pub halo_cells: usize,
    /// Sum of `nlev` over the receiver's registered variables.
    pub values_per_cell: usize,
}

impl fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "halo exchange (tag {}): rank {} received {} values from rank {} \
             but its gather list expects {} ({} halo cells x {} values/cell) — \
             ranks disagree on the variable list or halo layout",
            self.tag,
            self.rank,
            self.got_values,
            self.src,
            self.expected_values,
            self.halo_cells,
            self.values_per_cell,
        )
    }
}

impl std::error::Error for ExchangeError {}

/// What one exchange round moved: message and payload-byte totals from this
/// rank's perspective (sends only, so summing over ranks counts each message
/// once).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExchangeReceipt {
    pub messages_sent: u64,
    pub bytes_sent: u64,
}

/// The optional concerns of one gathered exchange round, passed by value to
/// both halves of the round. The default is a bare round: no counters, no
/// trace events, no injected faults.
#[derive(Clone, Copy, Default)]
pub struct HaloCtx<'a> {
    /// Records the completed round into the registry's `halo.exchanges` /
    /// `halo.messages` / `halo.bytes` counters (per-rank sends, so world
    /// totals match [`crate::comm::CommStats`] for exchange-only traffic).
    /// With the registry's tracer enabled, both halves and each blocking
    /// receive also land on the rank's trace lane.
    pub metrics: Option<&'a Metrics>,
    /// Arms the chaos truncation schedule on the receive side: before each
    /// received message is unpacked, the plan decides (keyed on
    /// [`halo_fault_key`]) whether it was truncated in flight. An injected
    /// truncation drops the buffer's trailing value (ticking
    /// `fault.injected` when `metrics` is given) and surfaces through the
    /// normal malformed-buffer detection as a typed [`ExchangeError`], so
    /// recovery code handles it like a real size mismatch.
    pub faults: Option<&'a FaultPlan>,
}

impl<'a> HaloCtx<'a> {
    /// The registry's tracer when it is recording.
    fn tracer(&self, rank: usize) -> Option<&'a Tracer> {
        let tracer = self
            .metrics
            .map(Metrics::tracer)
            .filter(|t| t.is_enabled())?;
        // Rank threads are dedicated: declare once so every event this
        // thread records (including model kernels) files under its lane.
        trace::set_thread_rank(rank as u32);
        Some(tracer)
    }
}

fn check_buffer(
    ctx: &RankCtx,
    src: usize,
    tag: u32,
    got_values: usize,
    halo_cells: usize,
    values_per_cell: usize,
) -> Result<(), ExchangeError> {
    let expected_values = halo_cells * values_per_cell;
    if got_values != expected_values {
        return Err(ExchangeError {
            src,
            rank: ctx.rank,
            tag,
            expected_values,
            got_values,
            halo_cells,
            values_per_cell,
        });
    }
    Ok(())
}

/// Receive one message per source rank (in the locale's mirrored order) and
/// unpack it into the gather list's halo cells. Each blocking receive is
/// traced as an [`EventKind::HaloWait`].
fn recv_and_unpack(
    ctx: &mut RankCtx,
    locale: &RankLocale,
    list: &mut VarList<'_>,
    tag: u32,
    tracer: Option<&Tracer>,
    halo: HaloCtx<'_>,
) -> Result<(), ExchangeError> {
    let per_cell = list.values_per_cell();
    for (src, cells) in &locale.recv {
        let t_wait = tracer.and_then(|t| t.begin());
        let mut buf = ctx.recv(*src, tag);
        if let (Some(t), Some(t0)) = (tracer, t_wait) {
            t.record_complete(
                EventKind::HaloWait,
                &format!("halo_wait<-{src}"),
                t0,
                1,
                (buf.len() * std::mem::size_of::<f64>()) as u64,
            );
        }
        if let Some(plan) = halo.faults {
            let key = halo_fault_key(ctx.rank, *src, tag);
            if plan.should_fail(FaultSite::HaloExchange, key, 0) && !buf.is_empty() {
                if let Some(m) = halo.metrics {
                    m.counter_add("fault.injected", 1);
                }
                buf.pop();
            }
        }
        check_buffer(ctx, *src, tag, buf.len(), cells.len(), per_cell)?;
        let mut pos = 0;
        for &c in cells {
            for var in &mut list.vars {
                let base = c as usize * var.nlev;
                var.data[base..base + var.nlev].copy_from_slice(&buf[pos..pos + var.nlev]);
                pos += var.nlev;
            }
        }
    }
    Ok(())
}

/// An in-flight exchange: [`exchange_gathered_begin`] has packed and sent
/// this rank's halo messages, and the matching
/// [`exchange_gathered_complete`] call has not yet received the neighbours'
/// replies. Holds the begin-time gather-list signature so the completion
/// can refuse to unpack into a different list.
#[must_use = "an exchange that is begun must be completed, or peers' messages leak into the parked queue"]
pub struct PendingExchange {
    tag: u32,
    receipt: ExchangeReceipt,
    signature: Vec<(&'static str, usize)>,
}

impl PendingExchange {
    /// Tag of the in-flight round.
    pub fn tag(&self) -> u32 {
        self.tag
    }

    /// Send-side totals of the begin half.
    pub fn receipt(&self) -> ExchangeReceipt {
        self.receipt
    }
}

/// Begin a gathered halo exchange: pack one message per destination rank
/// carrying every listed variable, send it, and return immediately so the
/// caller can run halo-independent interior kernels while neighbours'
/// messages are in flight. Pair with [`exchange_gathered_complete`] on the
/// same gather list and an equivalent `halo` context. The pack+send half
/// lands on the trace lane as a `halo_pack_send` event carrying the round's
/// message/byte counts; the `halo.*` counters tick at completion.
pub fn exchange_gathered_begin(
    ctx: &mut RankCtx,
    locale: &RankLocale,
    list: &VarList<'_>,
    tag: u32,
    halo: HaloCtx<'_>,
) -> PendingExchange {
    let tracer = halo.tracer(ctx.rank);
    let t0 = tracer.and_then(|t| t.begin());
    let per_cell = list.values_per_cell();
    let mut receipt = ExchangeReceipt::default();
    for (dest, cells) in &locale.send {
        let mut buf = Vec::with_capacity(cells.len() * per_cell);
        for &c in cells {
            for var in &list.vars {
                let base = c as usize * var.nlev;
                buf.extend_from_slice(&var.data[base..base + var.nlev]);
            }
        }
        receipt.messages_sent += 1;
        receipt.bytes_sent += (buf.len() * std::mem::size_of::<f64>()) as u64;
        ctx.send(*dest, tag, buf);
    }
    if let (Some(t), Some(t0)) = (tracer, t0) {
        t.record_complete(
            EventKind::HaloExchange,
            "halo_pack_send",
            t0,
            receipt.messages_sent,
            receipt.bytes_sent,
        );
    }
    PendingExchange {
        tag,
        receipt,
        signature: list.signature(),
    }
}

/// Complete a gathered halo exchange begun with [`exchange_gathered_begin`]:
/// receive one message per neighbour (in the locale's mirrored order) and
/// unpack the halos into `list`. A received buffer whose size disagrees
/// with the local gather list is a descriptive [`ExchangeError`] rather
/// than a slice-index panic; on error the remaining messages of the round
/// are left un-received, so a retry after checkpoint restore must use a
/// fresh tag. Panics with a descriptive message if `list`'s shape differs
/// from the one the exchange began with.
///
/// The receive+unpack half lands on the trace lane as a zero-count
/// [`trace::HALO_ROUND_END`] event (recorded on the error path too: a
/// truncated round still spent real wall time), each blocking receive as a
/// `halo_wait` event.
pub fn exchange_gathered_complete(
    pending: PendingExchange,
    ctx: &mut RankCtx,
    locale: &RankLocale,
    list: &mut VarList<'_>,
    halo: HaloCtx<'_>,
) -> Result<ExchangeReceipt, ExchangeError> {
    assert_eq!(
        pending.signature,
        list.signature(),
        "async exchange (tag {}) completed with a different gather list than it began with \
         — pack read from one set of fields, unpack would land in another",
        pending.tag
    );
    let tracer = halo.tracer(ctx.rank);
    let t0 = tracer.and_then(|t| t.begin());
    let recv_result = recv_and_unpack(ctx, locale, list, pending.tag, tracer, halo);
    if let (Some(t), Some(t0)) = (tracer, t0) {
        t.record_complete(EventKind::HaloExchange, trace::HALO_ROUND_END, t0, 0, 0);
    }
    recv_result?;
    if let Some(m) = halo.metrics {
        m.counter_add("halo.exchanges", 1);
        m.counter_add("halo.messages", pending.receipt.messages_sent);
        m.counter_add("halo.bytes", pending.receipt.bytes_sent);
    }
    Ok(pending.receipt)
}

/// One synchronous gathered halo exchange with a bare [`HaloCtx`]:
/// [`exchange_gathered_begin`] immediately followed by
/// [`exchange_gathered_complete`].
pub fn exchange_gathered(
    ctx: &mut RankCtx,
    locale: &RankLocale,
    list: &mut VarList<'_>,
    tag: u32,
) -> Result<ExchangeReceipt, ExchangeError> {
    let pending = exchange_gathered_begin(ctx, locale, list, tag, HaloCtx::default());
    exchange_gathered_complete(pending, ctx, locale, list, HaloCtx::default())
}

/// Deterministic event key for the halo-exchange fault site: derived from
/// `(receiving rank, sending rank, tag)` rather than a shared counter, so
/// rank-thread interleaving cannot perturb a seeded fault schedule. Exposed
/// so chaos tests can [`FaultPlan::pin`] a specific message of a specific
/// round.
pub fn halo_fault_key(rank: usize, src: usize, tag: u32) -> u64 {
    ((rank as u64) << 40) ^ ((src as u64) << 20) ^ tag as u64
}

/// The naive alternative (one message per variable per neighbour) for the
/// gathered-exchange ablation bench.
pub fn exchange_per_variable(
    ctx: &mut RankCtx,
    locale: &RankLocale,
    list: &mut VarList<'_>,
    tag: u32,
) -> Result<ExchangeReceipt, ExchangeError> {
    let mut receipt = ExchangeReceipt::default();
    for vi in 0..list.vars.len() {
        let t = tag + vi as u32;
        for (dest, cells) in &locale.send {
            let var = &list.vars[vi];
            let mut buf = Vec::with_capacity(cells.len() * var.nlev);
            for &c in cells {
                let base = c as usize * var.nlev;
                buf.extend_from_slice(&var.data[base..base + var.nlev]);
            }
            receipt.messages_sent += 1;
            receipt.bytes_sent += (buf.len() * std::mem::size_of::<f64>()) as u64;
            ctx.send(*dest, t, buf);
        }
        for (src, cells) in &locale.recv {
            let buf = ctx.recv(*src, t);
            let var = &mut list.vars[vi];
            check_buffer(ctx, *src, t, buf.len(), cells.len(), var.nlev)?;
            let mut pos = 0;
            for &c in cells {
                let base = c as usize * var.nlev;
                var.data[base..base + var.nlev].copy_from_slice(&buf[pos..pos + var.nlev]);
                pos += var.nlev;
            }
        }
    }
    Ok(receipt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_world;
    use grist_mesh::{HaloLayout, HexMesh, Partition};
    use std::sync::atomic::Ordering;

    /// A synchronous round under `halo`: begin immediately followed by
    /// complete.
    fn round(
        ctx: &mut RankCtx,
        locale: &RankLocale,
        list: &mut VarList<'_>,
        tag: u32,
        halo: HaloCtx<'_>,
    ) -> Result<ExchangeReceipt, ExchangeError> {
        let pending = exchange_gathered_begin(ctx, locale, list, tag, halo);
        exchange_gathered_complete(pending, ctx, locale, list, halo)
    }

    /// Each rank fills its owned cells with `f(cell, lev, var)`; after the
    /// exchange every halo cell must match the owner's values.
    fn halo_roundtrip(gathered: bool) -> (u64, u64) {
        let mesh = HexMesh::build(3);
        let parts = 5;
        let partition = Partition::build(&mesh, parts, 2);
        let layout = HaloLayout::build(&mesh, &partition, 1);
        let n = mesh.n_cells();
        let nlev = [3usize, 1, 2];
        let truth = |v: usize, c: usize, k: usize| (v * 1000 + c * 10 + k) as f64;

        let (results, stats) = run_world(parts, |mut ctx| {
            let locale = &layout.locales[ctx.rank];
            let mut fields: Vec<Vec<f64>> = nlev.iter().map(|&l| vec![f64::NAN; n * l]).collect();
            for &c in &locale.owned_cells {
                for (v, field) in fields.iter_mut().enumerate() {
                    for k in 0..nlev[v] {
                        field[c as usize * nlev[v] + k] = truth(v, c as usize, k);
                    }
                }
            }
            {
                const NAMES: [&str; 3] = ["a", "b", "c"];
                let mut list = VarList::new();
                for (v, field) in fields.iter_mut().enumerate() {
                    list.push(NAMES[v], nlev[v], field);
                }
                let receipt = if gathered {
                    exchange_gathered(&mut ctx, locale, &mut list, 10)
                } else {
                    exchange_per_variable(&mut ctx, locale, &mut list, 10)
                }
                .expect("well-formed world must exchange cleanly");
                assert_eq!(
                    receipt.messages_sent as usize,
                    locale.send.len() * if gathered { 1 } else { nlev.len() }
                );
            }
            // Verify all halo cells.
            for (_, cells) in &locale.recv {
                for &c in cells {
                    for (v, field) in fields.iter().enumerate() {
                        for k in 0..nlev[v] {
                            let got = field[c as usize * nlev[v] + k];
                            assert_eq!(got, truth(v, c as usize, k), "halo value wrong");
                        }
                    }
                }
            }
            0u8
        });
        assert_eq!(results.len(), parts);
        (
            stats.messages.load(Ordering::Relaxed),
            stats.bytes.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn gathered_exchange_fills_halos_correctly() {
        halo_roundtrip(true);
    }

    #[test]
    fn per_variable_exchange_fills_halos_correctly() {
        halo_roundtrip(false);
    }

    #[test]
    fn short_buffer_is_a_descriptive_error_not_a_panic() {
        // Two ranks that disagree on the variable list: rank 0 registers one
        // variable, rank 1 registers two. Rank 1's receive must fail with a
        // diagnosable ExchangeError instead of panicking mid-unpack.
        let mesh = HexMesh::build(2);
        let parts = 2;
        let partition = Partition::build(&mesh, parts, 2);
        let layout = HaloLayout::build(&mesh, &partition, 1);
        let n = mesh.n_cells();
        let (results, _) = run_world(parts, move |mut ctx| {
            let locale = &layout.locales[ctx.rank];
            let mut f0 = vec![0.0f64; n * 2];
            let mut f1 = vec![0.0f64; n * 3];
            let mut list = VarList::new();
            list.push("a", 2, &mut f0);
            if ctx.rank == 1 {
                list.push("b", 3, &mut f1);
            }
            exchange_gathered(&mut ctx, locale, &mut list, 7).err()
        });
        // The disagreement is visible from both sides: each rank receives a
        // buffer sized for the *other* list.
        let err = results[1]
            .clone()
            .expect("rank 1 expects 5 values/cell but receives 2 — must error");
        let err0 = results[0]
            .clone()
            .expect("rank 0 expects 2 values/cell but receives 5 — must error");
        assert_eq!(err0.values_per_cell, 2);
        assert_eq!(err0.got_values, err0.halo_cells * 5);
        assert_eq!(err.rank, 1);
        assert_eq!(err.src, 0);
        assert_eq!(err.tag, 7);
        assert_eq!(err.values_per_cell, 5);
        assert_eq!(err.expected_values, err.halo_cells * 5);
        let msg = err.to_string();
        assert!(msg.contains("rank 1"), "missing receiver rank: {msg}");
        assert!(msg.contains("tag 7"), "missing tag: {msg}");
        assert!(
            msg.contains("halo cells"),
            "missing layout diagnosis: {msg}"
        );
    }

    #[test]
    fn metered_exchange_records_halo_counters() {
        let mesh = HexMesh::build(3);
        let parts = 4;
        let partition = Partition::build(&mesh, parts, 2);
        let layout = HaloLayout::build(&mesh, &partition, 1);
        let n = mesh.n_cells();
        let (results, stats) = run_world(parts, move |mut ctx| {
            let metrics = sunway_sim::Metrics::default();
            let locale = &layout.locales[ctx.rank];
            let mut f0 = vec![0.0f64; n * 2];
            let mut list = VarList::new();
            list.push("a", 2, &mut f0);
            let halo = HaloCtx {
                metrics: Some(&metrics),
                faults: None,
            };
            let r = round(&mut ctx, locale, &mut list, 3, halo)
                .expect("uniform lists exchange cleanly");
            assert_eq!(metrics.counter("halo.exchanges"), 1);
            assert_eq!(metrics.counter("halo.messages"), r.messages_sent);
            assert_eq!(metrics.counter("halo.bytes"), r.bytes_sent);
            (r.messages_sent, r.bytes_sent)
        });
        // Per-rank send-side receipts must sum to the world's comm totals.
        let total_msgs: u64 = results.iter().map(|r| r.0).sum();
        let total_bytes: u64 = results.iter().map(|r| r.1).sum();
        assert_eq!(total_msgs, stats.messages.load(Ordering::Relaxed));
        assert_eq!(total_bytes, stats.bytes.load(Ordering::Relaxed));
        assert!(total_msgs > 0, "level-3 mesh over 4 ranks must have halos");
    }

    #[test]
    fn gathering_cuts_message_count_not_bytes() {
        // Allreduce-free comparison: 3 variables gathered into 1 message per
        // neighbour must send 3x fewer messages but identical payload bytes.
        let (m_gather, b_gather) = halo_roundtrip(true);
        let (m_naive, b_naive) = halo_roundtrip(false);
        assert_eq!(b_gather, b_naive, "payload volume must be identical");
        assert_eq!(m_naive, 3 * m_gather, "3 vars should gather 3:1");
    }

    #[test]
    fn chaos_exchange_without_halo_faults_matches_the_metered_path() {
        let mesh = HexMesh::build(2);
        let parts = 3;
        let partition = Partition::build(&mesh, parts, 2);
        let layout = HaloLayout::build(&mesh, &partition, 1);
        let n = mesh.n_cells();
        // Dispatch-only faults armed: the halo site stays quiet.
        let plan = FaultPlan::new(4).with_rate(FaultSite::Dispatch, 1.0);
        let (results, _) = run_world(parts, |mut ctx| {
            let metrics = sunway_sim::Metrics::default();
            let locale = &layout.locales[ctx.rank];
            let mut f0 = vec![1.5f64; n * 2];
            let mut list = VarList::new();
            list.push("a", 2, &mut f0);
            let halo = HaloCtx {
                metrics: Some(&metrics),
                faults: Some(&plan),
            };
            let r = round(&mut ctx, locale, &mut list, 2, halo).expect("no halo faults armed");
            assert_eq!(metrics.counter("fault.injected"), 0);
            assert_eq!(metrics.counter("halo.exchanges"), 1);
            r.messages_sent
        });
        assert!(results.iter().sum::<u64>() > 0);
    }

    /// A pinned truncation fails exactly the named message, whether or not
    /// the round is metered (a fault plan applies without a registry; the
    /// injection is only counted with one). Cases: `(tag, metered)`.
    #[test]
    fn pinned_halo_fault_truncates_exactly_the_named_message() {
        let mesh = HexMesh::build(2);
        let parts = 3;
        let partition = Partition::build(&mesh, parts, 2);
        let layout = HaloLayout::build(&mesh, &partition, 1);
        let n = mesh.n_cells();
        // Pick a (receiver, sender) pair that actually exchanges.
        let victim = layout
            .locales
            .iter()
            .find(|l| !l.recv.is_empty())
            .expect("some rank has halos");
        for (tag, metered) in [(31u32, true), (41, true), (51, false)] {
            let (rank, src) = (victim.rank, victim.recv[0].0);
            let plan =
                FaultPlan::new(0).pin(FaultSite::HaloExchange, halo_fault_key(rank, src, tag));
            let (results, _) = run_world(parts, |mut ctx| {
                let metrics = sunway_sim::Metrics::default();
                let locale = &layout.locales[ctx.rank];
                let mut f0 = vec![2.0f64; n * 3];
                let mut list = VarList::new();
                list.push("a", 3, &mut f0);
                let halo = HaloCtx {
                    metrics: metered.then_some(&metrics),
                    faults: Some(&plan),
                };
                let res = round(&mut ctx, locale, &mut list, tag, halo);
                (res.err(), metrics.counter("fault.injected"))
            });
            for (r, (err, injected)) in results.iter().enumerate() {
                if r == rank {
                    let e = err.clone().expect("the pinned message must fail");
                    assert_eq!(e.src, src);
                    assert_eq!(e.tag, tag);
                    assert_eq!(
                        e.got_values,
                        e.expected_values - 1,
                        "truncation drops exactly the trailing value"
                    );
                    assert_eq!(*injected, u64::from(metered), "tag {tag}: injection count");
                } else {
                    assert!(err.is_none(), "rank {r} was not targeted: {err:?}");
                }
            }
        }
    }

    /// Poison halos, exchange (sync or begin/complete), return every rank's
    /// raw field bits so the two modes can be compared for exact equality.
    fn exchange_mode_bits(asynchronous: bool) -> Vec<Vec<u64>> {
        let mesh = HexMesh::build(3);
        let parts = 5;
        let partition = Partition::build(&mesh, parts, 2);
        let layout = HaloLayout::build(&mesh, &partition, 1);
        let n = mesh.n_cells();
        let nlev = 3usize;
        let (results, _) = run_world(parts, |mut ctx| {
            let locale = &layout.locales[ctx.rank];
            let mut field = vec![f64::NAN; n * nlev];
            for &c in &locale.owned_cells {
                for k in 0..nlev {
                    field[c as usize * nlev + k] = ((c as usize) * 10 + k) as f64 / 3.0;
                }
            }
            {
                let mut list = VarList::new();
                list.push("h", nlev, &mut field);
                if asynchronous {
                    let halo = HaloCtx::default();
                    let pending = exchange_gathered_begin(&mut ctx, locale, &list, 17, halo);
                    // Interior compute would run here, overlapped with the
                    // in-flight messages.
                    exchange_gathered_complete(pending, &mut ctx, locale, &mut list, halo)
                } else {
                    exchange_gathered(&mut ctx, locale, &mut list, 17)
                }
                .expect("uniform lists exchange cleanly");
            }
            field.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
        });
        results
    }

    #[test]
    fn async_begin_complete_is_bitwise_equal_to_synchronous() {
        assert_eq!(
            exchange_mode_bits(true),
            exchange_mode_bits(false),
            "overlapped exchange must transport exactly the synchronous bytes"
        );
    }

    #[test]
    fn async_metered_counters_match_one_synchronous_round() {
        let mesh = HexMesh::build(3);
        let parts = 4;
        let partition = Partition::build(&mesh, parts, 2);
        let layout = HaloLayout::build(&mesh, &partition, 1);
        let n = mesh.n_cells();
        let (results, _) = run_world(parts, move |mut ctx| {
            let metrics = sunway_sim::Metrics::default();
            let locale = &layout.locales[ctx.rank];
            let mut f0 = vec![0.25f64; n * 2];
            let mut list = VarList::new();
            list.push("a", 2, &mut f0);
            let halo = HaloCtx {
                metrics: Some(&metrics),
                faults: None,
            };
            let pending = exchange_gathered_begin(&mut ctx, locale, &list, 3, halo);
            assert_eq!(
                metrics.counter("halo.exchanges"),
                0,
                "the round counts once, at completion"
            );
            let r = exchange_gathered_complete(pending, &mut ctx, locale, &mut list, halo)
                .expect("uniform lists exchange cleanly");
            assert_eq!(metrics.counter("halo.exchanges"), 1);
            assert_eq!(metrics.counter("halo.messages"), r.messages_sent);
            assert_eq!(metrics.counter("halo.bytes"), r.bytes_sent);
            r.messages_sent
        });
        assert!(results.iter().sum::<u64>() > 0);
    }

    #[test]
    fn async_completion_with_a_different_list_panics_descriptively() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mesh = HexMesh::build(2);
        let parts = 2;
        let partition = Partition::build(&mesh, parts, 2);
        let layout = HaloLayout::build(&mesh, &partition, 1);
        let n = mesh.n_cells();
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_world(parts, |mut ctx| {
                let locale = &layout.locales[ctx.rank];
                let mut f0 = vec![0.0f64; n * 2];
                let mut f1 = vec![0.0f64; n * 3];
                let mut list = VarList::new();
                list.push("a", 2, &mut f0);
                let halo = HaloCtx::default();
                let pending = exchange_gathered_begin(&mut ctx, locale, &list, 4, halo);
                // Complete with a *different* gather list: must refuse.
                let mut other = VarList::new();
                other.push("b", 3, &mut f1);
                let _ = exchange_gathered_complete(pending, &mut ctx, locale, &mut other, halo);
            })
        }))
        .expect_err("signature mismatch must panic, not corrupt fields");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("different gather list"),
            "panic must explain the misuse: {msg}"
        );
    }

    #[test]
    fn generative_roundtrip_under_permuted_partitions_and_lists() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mesh = HexMesh::build(3);
        let n = mesh.n_cells();
        const NAMES: [&str; 4] = ["w", "x", "y", "z"];
        fn truth(seed: u64, v: usize, c: usize, k: usize) -> f64 {
            (seed + 1) as f64 * 1.0e7 + (v * 100_000 + c * 10 + k) as f64
        }
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ seed);
            let parts = rng.gen_range(2usize..7);
            let iters = rng.gen_range(0usize..4);
            let partition = Partition::build(&mesh, parts, iters);
            let layout = HaloLayout::build(&mesh, &partition, 1);
            let n_vars = rng.gen_range(1usize..5);
            let nlev: Vec<usize> = (0..n_vars).map(|_| rng.gen_range(1usize..5)).collect();
            // Every rank registers in the same permuted order; unpack must
            // still land each variable's halos in the right field.
            let mut order: Vec<usize> = (0..n_vars).collect();
            order.shuffle(&mut rng);
            let (checked, _) = run_world(parts, |mut ctx| {
                let locale = &layout.locales[ctx.rank];
                let mut fields: Vec<Vec<f64>> =
                    nlev.iter().map(|&l| vec![f64::NAN; n * l]).collect();
                for &c in &locale.owned_cells {
                    for (v, field) in fields.iter_mut().enumerate() {
                        for k in 0..nlev[v] {
                            field[c as usize * nlev[v] + k] = truth(seed, v, c as usize, k);
                        }
                    }
                }
                {
                    let mut refs: Vec<Option<&mut Vec<f64>>> =
                        fields.iter_mut().map(Some).collect();
                    let mut list = VarList::new();
                    for &v in &order {
                        // A shuffled permutation visits each index once; a
                        // buggy order generator would repeat one, and the
                        // second take() would find the slot empty.
                        let field = refs[v].take().unwrap_or_else(|| {
                            panic!(
                                "seed {seed}: registration order {order:?} repeats variable \
                                 {:?} — each field can be pushed to the gather list only once",
                                NAMES[v]
                            )
                        });
                        list.push(NAMES[v], nlev[v], field);
                    }
                    exchange_gathered(&mut ctx, locale, &mut list, 100 + seed as u32)
                        .expect("agreeing permuted lists must exchange cleanly");
                }
                let mut checked = 0usize;
                for (_, cells) in &locale.recv {
                    for &c in cells {
                        for (v, field) in fields.iter().enumerate() {
                            for k in 0..nlev[v] {
                                assert_eq!(
                                    field[c as usize * nlev[v] + k],
                                    truth(seed, v, c as usize, k),
                                    "seed {seed}: halo value wrong for var {v}"
                                );
                                checked += 1;
                            }
                        }
                    }
                }
                checked
            });
            assert!(
                checked.iter().sum::<usize>() > 0,
                "seed {seed}: world had no halos to verify"
            );
        }
    }

    #[test]
    fn generative_truncated_buffers_error_deterministically() {
        let mesh = HexMesh::build(2);
        let n = mesh.n_cells();
        let mut total_errs = 0usize;
        for seed in 0..8u64 {
            let parts = 3 + (seed as usize % 3);
            let partition = Partition::build(&mesh, parts, 2);
            let layout = HaloLayout::build(&mesh, &partition, 1);
            let plan = FaultPlan::new(seed).with_rate(FaultSite::HaloExchange, 0.4);
            let storm = |plan: &FaultPlan| {
                let (results, _) = run_world(parts, |mut ctx| {
                    let metrics = sunway_sim::Metrics::default();
                    let locale = &layout.locales[ctx.rank];
                    let mut f0 = vec![1.0f64; n * 2];
                    let mut list = VarList::new();
                    list.push("a", 2, &mut f0);
                    let halo = HaloCtx {
                        metrics: Some(&metrics),
                        faults: Some(plan),
                    };
                    let res = round(&mut ctx, locale, &mut list, 5, halo);
                    (res.err(), metrics.counter("fault.injected"))
                });
                results
            };
            let first = storm(&plan);
            let second = storm(&plan);
            assert_eq!(
                first, second,
                "seed {seed}: fault schedule must not depend on thread timing"
            );
            for (rank, (err, injected)) in first.iter().enumerate() {
                match err {
                    None => assert_eq!(
                        *injected, 0,
                        "seed {seed} rank {rank}: injection must surface as an error"
                    ),
                    Some(e) => {
                        total_errs += 1;
                        assert_eq!(e.rank, rank);
                        assert_eq!(
                            e.got_values,
                            e.expected_values - 1,
                            "seed {seed}: truncation drops exactly one value"
                        );
                        assert!(*injected >= 1);
                    }
                }
            }
        }
        assert!(
            total_errs > 0,
            "a 40% truncation rate over 8 worlds must fire at least once"
        );
    }

    #[test]
    fn generative_list_disagreement_is_caught_by_every_involved_rank() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mesh = HexMesh::build(2);
        let n = mesh.n_cells();
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37));
            let parts = rng.gen_range(2usize..6);
            let culprit = rng.gen_range(0usize..parts);
            let extra_nlev = rng.gen_range(1usize..4);
            let partition = Partition::build(&mesh, parts, 2);
            let layout = HaloLayout::build(&mesh, &partition, 1);
            let (results, _) = run_world(parts, |mut ctx| {
                let locale = &layout.locales[ctx.rank];
                let mut f0 = vec![0.0f64; n * 2];
                let mut f1 = vec![0.0f64; n * extra_nlev];
                let mut list = VarList::new();
                list.push("a", 2, &mut f0);
                if ctx.rank == culprit {
                    list.push("b", extra_nlev, &mut f1);
                }
                exchange_gathered(&mut ctx, locale, &mut list, 9).err()
            });
            for (rank, err) in results.iter().enumerate() {
                let recv_from: Vec<usize> =
                    layout.locales[rank].recv.iter().map(|&(s, _)| s).collect();
                if rank == culprit && !recv_from.is_empty() {
                    let e = err.clone().expect("culprit expects more values than sent");
                    assert_eq!(e.values_per_cell, 2 + extra_nlev, "seed {seed}");
                } else if recv_from.contains(&culprit) {
                    // An earlier neighbour's message is clean, so the error —
                    // when it comes — must blame the culprit.
                    let e = err.clone().expect("culprit's neighbours must detect");
                    assert_eq!(e.src, culprit, "seed {seed}");
                    assert_eq!(e.got_values, e.halo_cells * (2 + extra_nlev));
                } else {
                    assert!(err.is_none(), "seed {seed} rank {rank}: {err:?}");
                }
            }
        }
    }
}
