//! The resident service: one lock per shard, driven on its caller's thread.
//!
//! Each shard is a [`ShardCore`] behind a `Mutex`; [`MeshService::call`]
//! locks the shard and drives the state machine directly, so there is no
//! shard thread and no channel. Under the lock a call composes three
//! layers:
//!
//! 1. **admission** ([`crate::admission`]) — data requests are offered to
//!    the shard's virtual-time queue first and shed with typed errors when
//!    the shard is saturated; control requests (snapshot, stats) bypass it,
//! 2. **execution** — [`ShardCore::handle`] inside `catch_unwind`,
//! 3. **supervision** — if the handler panics or an injected crash fires,
//!    the poisoned in-memory state is discarded and the shard is rebuilt
//!    from its journal before the lock is released, exactly the recovery
//!    path a process restart would take. The caller gets a typed error;
//!    the next request sees the recovered shard. If the rebuild itself
//!    fails (or the service was shut down), the shard stays closed and the
//!    next call retries the reopen.
//!
//! Calls to different shards run in parallel from different caller
//! threads; calls to one shard serialize on its lock. There is no
//! caller-side timeout: virtual-time admission is what sheds load. The
//! service handle is cheap to clone and thread-safe; callers get a
//! retry-with-backoff helper for shed errors.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::admission::{Admission, AdmissionConfig};
use crate::crash::CrashPoint;
use crate::error::ServiceError;
use crate::shard::{Request, Response, ShardCore, ShardSpec};

/// Service-wide configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Directory holding one journal subdirectory per shard.
    pub root: PathBuf,
    /// Admission parameters applied to every shard.
    pub admission: AdmissionConfig,
    /// Crash-point hook threaded into every journal operation (inert in
    /// production).
    pub crash: CrashPoint,
}

impl ServiceConfig {
    /// A config with production-ish defaults rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> ServiceConfig {
        ServiceConfig {
            root: root.into(),
            admission: AdmissionConfig::default(),
            crash: CrashPoint::none(),
        }
    }
}

struct ShardEntry {
    spec: ShardSpec,
    dir: PathBuf,
    slot: Mutex<ShardSlot>,
}

/// Everything a call mutates, guarded by the shard's lock.
struct ShardSlot {
    admission: Admission,
    /// `None` after [`MeshService::shutdown`] or a failed recovery.
    core: Option<ShardCore>,
    /// Successful reopens so far; survives a closed slot.
    recoveries: u64,
}

impl ShardEntry {
    /// Rebuild the shard from its journal. The crash hook is not re-armed —
    /// the simulated process only dies once — so the recovered incarnation
    /// journals normally.
    fn reopen(&self, slot: &mut ShardSlot) -> Result<(), ServiceError> {
        slot.core = None;
        let core = ShardCore::open_counted(
            &self.dir,
            self.spec,
            CrashPoint::none(),
            slot.recoveries + 1,
        )?;
        slot.recoveries += 1;
        slot.core = Some(core);
        Ok(())
    }
}

/// A running mesh service (see the module docs). Clone freely.
#[derive(Clone)]
pub struct MeshService {
    shards: Arc<[ShardEntry]>,
}

impl MeshService {
    /// Open every shard journal under `cfg.root`, recovering as needed.
    /// Startup corruption surfaces here as a typed error.
    pub fn start(cfg: ServiceConfig, specs: &[ShardSpec]) -> Result<MeshService, ServiceError> {
        let mut shards = Vec::with_capacity(specs.len());
        for (i, &spec) in specs.iter().enumerate() {
            let dir = cfg.root.join(format!("shard-{i:04}"));
            let core = ShardCore::open_counted(&dir, spec, cfg.crash.clone(), 0)?;
            shards.push(ShardEntry {
                spec,
                dir,
                slot: Mutex::new(ShardSlot {
                    admission: Admission::new(cfg.admission),
                    core: Some(core),
                    recoveries: 0,
                }),
            });
        }
        Ok(MeshService {
            shards: shards.into(),
        })
    }

    /// Serve `req` on `shard` with virtual arrival time `sched_ns`, on the
    /// caller's thread. Waits for the shard's lock if another caller holds
    /// it.
    ///
    /// A closed shard (shut down, or left closed by a failed recovery) is
    /// reopened from its journal first — supervision is lazy but total.
    pub fn call(
        &self,
        shard: usize,
        req: Request,
        sched_ns: u64,
    ) -> Result<Response, ServiceError> {
        let entry = self
            .shards
            .get(shard)
            .ok_or(ServiceError::UnknownShard { shard })?;
        // A handler panic is caught below, so it never poisons the lock.
        // Any other panic here leaves the slot valid — the core is absent
        // or whole, and admission only pops finished entries before it
        // books one — so a poisoned guard is safe to recover.
        let mut slot = entry.slot.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.core.is_none() {
            entry.reopen(&mut slot)?;
        }
        if let Some(class) = req.op_class() {
            slot.admission.offer(sched_ns, class)?;
        }
        let core = slot.core.as_mut().expect("shard opened above");
        let err = match catch_unwind(AssertUnwindSafe(|| core.handle(&req))) {
            // An injected crash may leave memory ahead of or behind the
            // journal — treat it exactly like a death.
            Ok(Err(e @ ServiceError::Injected(_))) => e,
            Ok(reply) => return reply,
            Err(_panic) => ServiceError::ShardPanicked,
        };
        // Rebuild from disk before releasing the lock; if that fails, the
        // caller sees why and the shard stays closed.
        entry.reopen(&mut slot)?;
        Err(err)
    }

    /// [`call`](MeshService::call), retrying shed and shard-panic errors up
    /// to `attempts` times with doubling sleeps starting at `backoff`.
    /// Any other outcome, or the last attempt's, returns immediately.
    pub fn call_with_retry(
        &self,
        shard: usize,
        req: Request,
        sched_ns: u64,
        attempts: u32,
        backoff: Duration,
    ) -> Result<Response, ServiceError> {
        let mut delay = backoff;
        let mut left = attempts.max(1);
        loop {
            left -= 1;
            match self.call(shard, req.clone(), sched_ns) {
                Err(e) if left > 0 && (e.is_shed() || e == ServiceError::ShardPanicked) => {
                    std::thread::sleep(delay);
                    delay = delay.saturating_mul(2);
                }
                other => return other,
            }
        }
    }

    /// Close every shard, releasing its journal files. Journals stay on
    /// disk; a later call reopens the shard, and a later
    /// [`start`](MeshService::start) over the same root resumes.
    pub fn shutdown(&self) {
        for entry in self.shards.iter() {
            entry
                .slot
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .core = None;
        }
    }
}
