//! The worker thread: serve loop, supervisor, and respawn-on-panic.

use super::lifecycle::Outcome;
use super::{Job, Shared};
use crate::fault::FaultSite;
use crate::sync::lock_recover;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Spawns worker `worker`. `Builder::spawn` returns a `Result` instead of
/// panicking — vital for the respawn path, which runs inside an unwinding
/// `Drop`.
pub(super) fn spawn(shared: &Arc<Shared>, worker: usize) -> std::io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("uaq-service-{worker}"))
        .spawn(move || worker_entry(&shared, worker))
}

/// Respawns the worker if its thread dies panicking. Armed for the whole
/// worker lifetime; a normal loop exit (closed queue) disarms it, and a
/// closed queue also vetoes respawning — shutdown must converge.
struct RespawnGuard {
    shared: Arc<Shared>,
    armed: bool,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if !self.armed || !std::thread::panicking() || self.shared.queue.is_closed() {
            return;
        }
        let worker = self.shared.next_worker.fetch_add(1, Ordering::Relaxed);
        // A panic inside this unwinding Drop would abort the process. If
        // the OS refuses a thread, the pool just shrinks (shutdown still
        // answers whatever the lost worker would have).
        if let Ok(handle) = spawn(&self.shared, worker) {
            self.shared.robustness.workers_respawned.inc();
            lock_recover(&self.shared.respawned).push(handle);
        }
    }
}

/// Thread body of one worker: installs the per-thread engine fault hook
/// (when an injector is active), arms the respawn guard, and runs the
/// serve loop until the queue is closed and drained.
fn worker_entry(shared: &Arc<Shared>, worker: usize) {
    if let Some(inj) = &shared.injector {
        // Thread-locals don't cross threads: every worker — initial or
        // respawned — installs its own forwarder to the shared injector.
        let inj = Arc::clone(inj);
        uaq_engine::fault::install_sample_pass_hook(Box::new(move || {
            if let Some(f) = inj.inject(FaultSite::SamplePass, worker) {
                crate::fault::apply(f, FaultSite::SamplePass);
            }
        }));
    }
    let mut guard = RespawnGuard {
        shared: Arc::clone(shared),
        armed: true,
    };
    // Steal order is a pure function of this seed (see
    // [`crate::queue::ShardedWorkQueue`]), so a replayed schedule visits
    // victim shards in the same order every run. A respawned worker
    // reuses its slot's seed, keeping replays deterministic across
    // panics too.
    let mut steal_rng = 0x9E37_79B9_7F4A_7C15u64 ^ worker as u64;
    loop {
        // Worker-kill / worker-stall probe, between requests: a panic
        // here unwinds into the respawn guard with no request in hand.
        shared.probe(FaultSite::WorkerLoop, worker);
        let Some(job) = shared.queue.pop(worker, &mut steal_rng) else {
            break;
        };
        supervised_serve(shared, worker, job);
    }
    guard.armed = false;
}

/// Runs [`Shared::serve`] under the supervisor's `catch_unwind`: a panic
/// that escapes the degradation ladder (a mid-request kill, or a bug in
/// the decide/respond path itself) still produces exactly one response —
/// static tier, decided by the heuristic — before the panic resumes and
/// the respawn guard replaces the worker. The `AssertUnwindSafe` is
/// justified by the poison-tolerance design: everything `shared` guards
/// recovers from a mid-update panic (see [`crate::sync`]).
fn supervised_serve(shared: &Shared, worker: usize, job: Job) {
    let fallback = job.clone();
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| shared.serve(worker, job))) {
        shared.robustness.worker_panics.inc();
        // The original job (and its reply sender) died inside the
        // closure, so this clone is the only sender left: at most one
        // response can ever reach the client. `serve` sends only as its
        // final action, after every panic source — so a panic implies no
        // response was sent; this is the exactly-one response.
        shared.respond(&fallback, worker, Outcome::Static, None);
        resume_unwind(payload)
    }
}
