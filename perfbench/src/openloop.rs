//! Open-loop load: one generator thread submits requests on a fixed
//! schedule whether or not earlier ones were answered, and one collector
//! thread waits on the replies in submission order. Each request's latency
//! runs from when it was *due*, so a stall in the system under test (or in
//! the generator) is charged to every request it delays; how late the
//! generator itself ran is reported separately.
//!
//! The collector waits in submission order, so a reply that is ready before
//! an earlier one is recorded when the earlier one completes; with a FIFO
//! server this bias is at most one batch's service time.

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::spans::SpanLog;

/// What one fixed-rate phase measured.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopResult {
    pub attempted: u64,
    /// Refused, failed, or answered wrongly. Failed requests carry no
    /// latency sample and count as missing any latency limit.
    pub failed: u64,
    /// Due-to-answer latency of every successful request, ms.
    pub latency_ms: Vec<f64>,
    /// How late the generator sent each request, ms.
    pub late_ms: Vec<f64>,
    /// Time spent inside the submit call, µs.
    pub submit_us: Vec<f64>,
    /// From the last request's due time to the last answer, ms. Stays near
    /// one service time unless a backlog built up.
    pub drain_ms: f64,
}

impl OpenLoopResult {
    /// The phase met `limit_ms` at its tail percentile `p` with nothing
    /// failed and no backlog left to drain.
    pub fn meets(&self, p: f64, limit_ms: f64) -> bool {
        self.failed == 0
            && !self.latency_ms.is_empty()
            && crate::stats::percentile(&self.latency_ms, p) <= limit_ms
            && self.drain_ms <= limit_ms
    }
}

/// Drive `rate_qps` requests per second for `duration`.
///
/// * `next(i)` makes request `i` (on the generator thread);
/// * `submit` hands it to the system and returns a pending reply;
/// * `wait` blocks on the pending reply (on the collector thread);
/// * `check(i, &reply)` says whether the reply to request `i` is correct.
///
/// Request `i`'s ID in the span log is `id_base + i + 1`.
#[allow(clippy::too_many_arguments)]
pub fn open_loop<Q, P, R, E>(
    rate_qps: f64,
    duration: Duration,
    id_base: u64,
    spans: &Arc<SpanLog>,
    mut next: impl FnMut(u64) -> Q + Send,
    submit: impl Fn(Q) -> Result<P, E> + Sync,
    wait: impl Fn(P) -> Result<R, E> + Sync,
    mut check: impl FnMut(u64, &R) -> bool + Send,
) -> OpenLoopResult
where
    Q: Send,
    P: Send,
{
    assert!(rate_qps > 0.0);
    let n = (rate_qps * duration.as_secs_f64()).round() as u64;
    let interval = Duration::from_secs_f64(1.0 / rate_qps);
    let (tx, rx) = channel::<(u64, Instant, Option<P>)>();
    let start = Instant::now();
    let submit = &submit;
    let wait = &wait;
    std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut lane = spans.lane(10);
            let mut late_ms = Vec::with_capacity(n as usize);
            let mut submit_us = Vec::with_capacity(n as usize);
            for i in 0..n {
                let due = start + interval.mul_f64(i as f64);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let q = next(i);
                let sent = Instant::now();
                late_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                let open = lane.begin("serve.submit", id_base + i + 1);
                let pending = submit(q).ok();
                lane.end(open);
                submit_us.push(sent.elapsed().as_secs_f64() * 1e6);
                if tx.send((i, due, pending)).is_err() {
                    break;
                }
            }
            (late_ms, submit_us)
        });
        let collector = scope.spawn(move || {
            let mut lane = spans.lane(11);
            let mut out = OpenLoopResult::default();
            let mut last_done = start;
            for (i, due, pending) in rx {
                out.attempted += 1;
                let open = lane.begin("serve.reply", id_base + i + 1);
                let reply = pending.map(wait);
                lane.end(open);
                let done = Instant::now();
                last_done = done;
                match reply {
                    Some(Ok(r)) if check(i, &r) => out
                        .latency_ms
                        .push(done.saturating_duration_since(due).as_secs_f64() * 1e3),
                    _ => out.failed += 1,
                }
            }
            let last_due = start + interval.mul_f64(n.saturating_sub(1) as f64);
            out.drain_ms = last_done.saturating_duration_since(last_due).as_secs_f64() * 1e3;
            out
        });
        let (late_ms, submit_us) = generator.join().expect("generator thread panicked");
        let mut out = collector.join().expect("collector thread panicked");
        out.late_ms = late_ms;
        out.submit_us = submit_us;
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;
    use std::sync::mpsc::{Receiver, Sender};
    use std::sync::Mutex;

    /// A FIFO responder thread that answers instantly except for one
    /// deliberate stall before request `stall_at`.
    fn stalled_responder(
        stall_at: u64,
        stall: Duration,
    ) -> (Sender<(u64, Sender<u64>)>, std::thread::JoinHandle<()>) {
        let (tx, rx) = channel::<(u64, Sender<u64>)>();
        let h = std::thread::spawn(move || {
            for (i, reply) in rx {
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                let _ = reply.send(i);
            }
        });
        (tx, h)
    }

    #[test]
    fn a_stalled_responder_delays_every_request_queued_behind_it() {
        let (server, h) = stalled_responder(20, Duration::from_millis(60));
        let server = Mutex::new(server);
        let spans = SpanLog::new(false);
        let r = open_loop(
            1000.0,
            Duration::from_millis(200),
            0,
            &spans,
            |i| i,
            |i: u64| -> Result<Receiver<u64>, ()> {
                let (tx, rx) = channel();
                server.lock().unwrap().send((i, tx)).map_err(|_| ())?;
                Ok(rx)
            },
            |rx: Receiver<u64>| rx.recv().map_err(|_| ()),
            |i, got| *got == i,
        );
        drop(server);
        h.join().unwrap();
        assert_eq!((r.attempted, r.failed), (200, 0));
        // Request 20 waits the full stall; the ~50 sent on time during the
        // stall are charged from their due times, not from when the
        // responder got to them (a closed loop would show one slow sample).
        let slow = r.latency_ms.iter().filter(|&&l| l >= 10.0).count();
        assert!(slow >= 40, "only {slow} requests charged for the stall");
        assert!(percentile(&r.latency_ms, 1.0) >= 55.0);
        // The generator itself kept its schedule.
        assert!(percentile(&r.late_ms, 0.99) < 10.0, "{:?}", r.late_ms);
    }

    #[test]
    fn a_stalled_generator_shows_as_lateness_and_latency() {
        let spans = SpanLog::new(false);
        let r = open_loop(
            1000.0,
            Duration::from_millis(100),
            0,
            &spans,
            |i| {
                if i == 10 {
                    std::thread::sleep(Duration::from_millis(40));
                }
                i
            },
            |i: u64| Ok::<u64, ()>(i),
            |i: u64| Ok::<u64, ()>(i),
            |i, got| *got == i,
        );
        assert_eq!((r.attempted, r.failed), (100, 0));
        let late_max = percentile(&r.late_ms, 1.0);
        assert!(late_max >= 35.0, "lateness {late_max} ms missed the stall");
        assert!(percentile(&r.latency_ms, 1.0) >= 35.0);
    }

    #[test]
    fn refused_and_wrong_answers_count_as_failed() {
        let spans = SpanLog::new(false);
        let r = open_loop(
            2000.0,
            Duration::from_millis(20),
            0,
            &spans,
            |i| i,
            |i: u64| if i.is_multiple_of(4) { Err(()) } else { Ok(i) },
            |i: u64| Ok::<u64, ()>(i),
            |i, got| *got == i && i % 4 != 1,
        );
        assert_eq!(r.attempted, 40);
        assert_eq!(r.failed, 20);
        assert_eq!(r.latency_ms.len(), 20);
        assert!(!r.meets(0.99, 1e9), "failures miss any latency limit");
    }
}
