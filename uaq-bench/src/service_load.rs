//! The load generator for the three service workloads.
//!
//! One generator thread that **never blocks**: it keeps requests in flight
//! through the `Receiver`s `submit()` returns and polls them with
//! `try_recv`, spinning on the clock between due times. A generator that
//! blocked on `recv()` was bimodal between processes on the 2-core box
//! (the worker pays a cross-CPU futex wake per reply); the polling one
//! repeats within a few percent. See the README.

use crate::report::Counts;
use crate::setup::Reference;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};
use uaq_engine::Plan;
use uaq_service::{
    Decision, PredictRequest, PredictResponse, PredictionService, ServedTier, TenantId,
};

/// No phase is sized to run anywhere near this long; a phase that does has
/// lost responses, and is reported as such instead of spinning forever.
const PHASE_LIMIT: Duration = Duration::from_secs(150);

/// Requests in flight in the closed loop.
pub const IN_FLIGHT: usize = 64;

/// What a phase sends: pool, references, and per-request pick and slack.
pub struct Stream<'a> {
    pub service: &'a PredictionService,
    pub pool: &'a [Arc<Plan>],
    pub refs: &'a [Reference],
    pub picks: &'a [u32],
    pub slacks: &'a [f32],
}

impl Stream<'_> {
    fn submit(&self, i: usize) -> Receiver<PredictResponse> {
        let pick = self.picks[i] as usize;
        // A deadline drawn around the reference mean, so that admit, defer
        // and reject all occur.
        let deadline = self.refs[pick].prediction.mean_ms() * f64::from(self.slacks[i]);
        self.service.submit(PredictRequest {
            id: i as u64,
            plan: Arc::clone(&self.pool[pick]),
            deadline_ms: Some(deadline),
            tenant: TenantId::default(),
        })
    }
}

/// Response bookkeeping shared by both loops.
#[derive(Default)]
pub struct Tally {
    pub counts: Counts,
    pub full_tier: u64,
    pub admitted: u64,
    pub service_seconds: f64,
}

impl Tally {
    /// A defer or reject verdict is an answer; a lost response, a degraded
    /// tier, or a prediction that differs from the reference is a failure.
    fn response(&mut self, stream: &Stream<'_>, i: usize, resp: &PredictResponse) {
        self.counts.attempted += 1;
        let reference = &stream.refs[stream.picks[i] as usize];
        let full = resp.tier == ServedTier::Full;
        if !(full && resp.id == i as u64 && reference.matches(&resp.prediction)) {
            self.counts.failed += 1;
        }
        self.full_tier += u64::from(full);
        self.admitted += u64::from(resp.decision == Decision::Admit);
        self.service_seconds += resp.service_seconds;
    }

    fn lost(&mut self) {
        self.counts.attempted += 1;
        self.counts.failed += 1;
    }
}

pub struct ClosedLoop {
    pub tally: Tally,
    /// Requests per second of each equal segment of the phase.
    pub segment_rps: Vec<f64>,
    /// Mean `service_seconds` over the first `prefix` requests, in µs.
    pub prefix_service_us: f64,
    pub timed_out: bool,
}

/// Closed loop: `IN_FLIGHT` requests outstanding until `picks` is used up.
/// The request count is fixed, not the time, so counts repeat exactly.
pub fn closed_loop(stream: &Stream<'_>, segments: usize, prefix: usize) -> ClosedLoop {
    let n = stream.picks.len();
    let segment_len = (n / segments).max(1);
    let mut slots: Vec<Option<(Receiver<PredictResponse>, usize)>> =
        (0..IN_FLIGHT).map(|_| None).collect();
    let mut tally = Tally::default();
    let mut segment_rps = Vec::with_capacity(segments);
    let mut prefix_service = 0.0;
    let (mut next, mut done) = (0usize, 0usize);
    let start = Instant::now();
    let mut segment_start = start;
    let mut timed_out = false;
    while done < n {
        for slot in &mut slots {
            if let Some((rx, i)) = slot {
                match rx.try_recv() {
                    Ok(resp) => {
                        tally.response(stream, *i, &resp);
                        if *i < prefix {
                            prefix_service += resp.service_seconds;
                        }
                    }
                    Err(TryRecvError::Empty) => continue,
                    Err(TryRecvError::Disconnected) => tally.lost(),
                }
                done += 1;
                *slot = None;
                if done % segment_len == 0 && segment_rps.len() < segments {
                    let now = Instant::now();
                    segment_rps.push(segment_len as f64 / (now - segment_start).as_secs_f64());
                    segment_start = now;
                }
            }
            if next < n {
                *slot = Some((stream.submit(next), next));
                next += 1;
            }
        }
        if start.elapsed() > PHASE_LIMIT {
            timed_out = true;
            for _ in done..n {
                tally.lost();
            }
            break;
        }
    }
    ClosedLoop {
        tally,
        segment_rps,
        prefix_service_us: prefix_service / prefix.clamp(1, n) as f64 * 1e6,
        timed_out,
    }
}

pub struct OpenLoop {
    pub tally: Tally,
    /// Per request, from its due time to the moment its answer was seen.
    pub latency_ns: Vec<u64>,
    /// Per request, `PredictResponse::service_seconds`.
    pub service_ns: Vec<u64>,
    /// Per request, how long after its due time it was submitted.
    pub late_ns: Vec<u64>,
    pub submit_ns_mean: f64,
    pub backlog_max: usize,
    /// From the last submission to the last answer.
    pub drain: Duration,
    pub elapsed: Duration,
    pub timed_out: bool,
}

/// Open loop: request `i` is due `due_ns[i]` after the start, whatever the
/// service is doing, and is timed from that due time.
pub fn open_loop(stream: &Stream<'_>, due_ns: &[u64]) -> OpenLoop {
    let n = stream.picks.len();
    assert_eq!(due_ns.len(), n);
    let mut in_flight: Vec<(Receiver<PredictResponse>, usize)> = Vec::with_capacity(1024);
    let mut tally = Tally::default();
    let mut latency_ns = vec![0u64; n];
    let mut service_ns = vec![0u64; n];
    let mut late_ns = vec![0u64; n];
    let mut submit_total = 0u64;
    let mut backlog_max = 0usize;
    let (mut next, mut done) = (0usize, 0usize);
    let start = Instant::now();
    let clock = || start.elapsed().as_nanos() as u64;
    let mut last_submit = 0u64;
    let mut timed_out = false;
    while done < n {
        let mut now = clock();
        while next < n && due_ns[next] <= now {
            let rx = stream.submit(next);
            let after = clock();
            late_ns[next] = now - due_ns[next];
            submit_total += after - now;
            in_flight.push((rx, next));
            backlog_max = backlog_max.max(in_flight.len());
            next += 1;
            last_submit = after;
            now = after;
        }
        let mut k = 0;
        while k < in_flight.len() {
            let i = in_flight[k].1;
            match in_flight[k].0.try_recv() {
                Ok(resp) => {
                    latency_ns[i] = clock() - due_ns[i];
                    service_ns[i] = (resp.service_seconds * 1e9) as u64;
                    tally.response(stream, i, &resp);
                }
                Err(TryRecvError::Empty) => {
                    k += 1;
                    continue;
                }
                Err(TryRecvError::Disconnected) => tally.lost(),
            }
            in_flight.swap_remove(k);
            done += 1;
        }
        if start.elapsed() > PHASE_LIMIT {
            timed_out = true;
            for _ in done..n {
                tally.lost();
            }
            break;
        }
    }
    let elapsed = start.elapsed();
    OpenLoop {
        tally,
        latency_ns,
        service_ns,
        late_ns,
        submit_ns_mean: submit_total as f64 / n as f64,
        backlog_max,
        drain: elapsed.saturating_sub(Duration::from_nanos(last_submit)),
        elapsed,
        timed_out,
    }
}
