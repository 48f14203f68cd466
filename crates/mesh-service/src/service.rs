//! The resident service: one actor thread per shard under a supervisor.
//!
//! Each shard runs a single-threaded loop over an mpsc request channel —
//! all state is owned by the loop, so there is no locking around the
//! models or the journal. The loop composes three layers per request:
//!
//! 1. **admission** ([`crate::admission`]) — data requests are offered to
//!    the shard's virtual-time queue first and shed with typed errors when
//!    the shard is saturated; control requests (snapshot, stats) bypass it,
//! 2. **execution** — [`ShardCore::handle`] inside `catch_unwind`,
//! 3. **supervision** — if the handler panics or an injected crash fires,
//!    the poisoned in-memory state is discarded and the shard is rebuilt
//!    from its journal, exactly the recovery path a process restart would
//!    take. The caller gets a typed error; the next request sees the
//!    recovered shard. If the loop itself dies, the next
//!    [`call`](MeshService::call) respawns it lazily.
//!
//! The service handle is cheap to clone and thread-safe; callers get
//! per-request timeouts and a retry-with-backoff helper for shed errors.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
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
    /// How long a caller waits for a reply before giving up.
    pub timeout: Duration,
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
            timeout: Duration::from_secs(10),
            crash: CrashPoint::none(),
        }
    }
}

struct Envelope {
    req: Request,
    /// Virtual arrival time for admission (nanoseconds on the caller's
    /// open-loop schedule).
    sched_ns: u64,
    reply: Sender<Result<Response, ServiceError>>,
}

struct ShardEntry {
    spec: ShardSpec,
    dir: PathBuf,
    link: Mutex<Option<ShardLink>>,
}

struct ShardLink {
    tx: Sender<Envelope>,
    join: JoinHandle<()>,
}

/// A running mesh service (see the module docs). Clone freely; dropping
/// the last handle joins the shard threads.
#[derive(Clone)]
pub struct MeshService {
    inner: Arc<ServiceInner>,
}

struct ServiceInner {
    cfg: ServiceConfig,
    shards: Vec<ShardEntry>,
}

impl MeshService {
    /// Open every shard journal under `cfg.root` (recovering as needed)
    /// and start one actor thread per shard.
    pub fn start(cfg: ServiceConfig, specs: &[ShardSpec]) -> Result<MeshService, ServiceError> {
        let mut shards = Vec::with_capacity(specs.len());
        for (i, &spec) in specs.iter().enumerate() {
            let dir = cfg.root.join(format!("shard-{i:04}"));
            // Open on the caller's thread so startup corruption surfaces
            // here, not as a dead channel later.
            let core = ShardCore::open_counted(&dir, spec, cfg.crash.clone(), 0)?;
            let link = spawn_shard(core, cfg.admission);
            shards.push(ShardEntry {
                spec,
                dir,
                link: Mutex::new(Some(link)),
            });
        }
        Ok(MeshService {
            inner: Arc::new(ServiceInner { cfg, shards }),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Send `req` to `shard` with virtual arrival time `sched_ns` and wait
    /// (up to the configured timeout) for the reply.
    ///
    /// If the shard thread is gone (its loop hit an unrecoverable journal
    /// error, or a previous handle shut it down), it is respawned from its
    /// journal first — supervision is lazy but total.
    pub fn call(
        &self,
        shard: usize,
        req: Request,
        sched_ns: u64,
    ) -> Result<Response, ServiceError> {
        let entry = self
            .inner
            .shards
            .get(shard)
            .ok_or(ServiceError::UnknownShard { shard })?;
        let (reply_tx, reply_rx) = mpsc::channel();
        self.dispatch(
            entry,
            Envelope {
                req,
                sched_ns,
                reply: reply_tx,
            },
        )?;
        match reply_rx.recv_timeout(self.inner.cfg.timeout) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServiceError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServiceError::ShardDown),
        }
    }

    /// [`call`](MeshService::call), retrying shed and shard-panic errors up
    /// to `attempts` times with doubling sleeps starting at `backoff`.
    /// Any other outcome returns immediately.
    pub fn call_with_retry(
        &self,
        shard: usize,
        req: Request,
        sched_ns: u64,
        attempts: u32,
        backoff: Duration,
    ) -> Result<Response, ServiceError> {
        let mut delay = backoff;
        let mut last = ServiceError::Timeout;
        for _ in 0..attempts.max(1) {
            match self.call(shard, req.clone(), sched_ns) {
                Err(e) if e.is_shed() || e == ServiceError::ShardPanicked => {
                    last = e;
                    std::thread::sleep(delay);
                    delay = delay.saturating_mul(2);
                }
                other => return other,
            }
        }
        Err(last)
    }

    /// Stop all shard threads and wait for them. Journals stay on disk;
    /// a later [`start`](MeshService::start) over the same root resumes.
    pub fn shutdown(&self) {
        for entry in &self.inner.shards {
            let link = entry.link.lock().expect("shard link lock").take();
            if let Some(l) = link {
                drop(l.tx);
                let _ = l.join.join();
            }
        }
    }

    fn dispatch(&self, entry: &ShardEntry, env: Envelope) -> Result<(), ServiceError> {
        let mut link = entry.link.lock().expect("shard link lock");
        let env = match link.as_ref() {
            Some(l) => match l.tx.send(env) {
                Ok(()) => return Ok(()),
                Err(mpsc::SendError(back)) => {
                    if let Some(dead) = link.take() {
                        let _ = dead.join.join();
                    }
                    back
                }
            },
            None => env,
        };
        let core =
            ShardCore::open_counted(&entry.dir, entry.spec, self.inner.cfg.crash.clone(), 0)?;
        let l = spawn_shard(core, self.inner.cfg.admission);
        l.tx.send(env).map_err(|_| ServiceError::ShardDown)?;
        *link = Some(l);
        Ok(())
    }
}

impl Drop for ServiceInner {
    fn drop(&mut self) {
        for entry in &self.shards {
            let link = entry.link.lock().ok().and_then(|mut l| l.take());
            if let Some(l) = link {
                drop(l.tx);
                let _ = l.join.join();
            }
        }
    }
}

fn spawn_shard(mut core: ShardCore, adm_cfg: AdmissionConfig) -> ShardLink {
    let (tx, rx) = mpsc::channel::<Envelope>();
    let join = std::thread::spawn(move || {
        let mut admission = Admission::new(adm_cfg);
        while let Ok(env) = rx.recv() {
            if let Some(class) = env.req.op_class() {
                if let Err(shed) = admission.offer(env.sched_ns, class) {
                    let _ = env.reply.send(Err(shed));
                    continue;
                }
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| core.handle(&env.req)));
            let reply = match outcome {
                Ok(Ok(resp)) => Ok(resp),
                Ok(Err(e @ ServiceError::Injected(_))) => {
                    // An injected crash may leave memory ahead of or
                    // behind the journal — treat it exactly like a death:
                    // rebuild from disk. The fired hook is not re-armed
                    // (the simulated process is already dead once).
                    match reopen(&core) {
                        Ok(fresh) => {
                            core = fresh;
                            Err(e)
                        }
                        Err(fatal) => {
                            let _ = env.reply.send(Err(fatal));
                            return;
                        }
                    }
                }
                Ok(Err(e)) => Err(e),
                Err(_panic) => match reopen(&core) {
                    Ok(fresh) => {
                        core = fresh;
                        Err(ServiceError::ShardPanicked)
                    }
                    Err(fatal) => {
                        let _ = env.reply.send(Err(fatal));
                        return;
                    }
                },
            };
            let _ = env.reply.send(reply);
        }
    });
    ShardLink { tx, join }
}

fn reopen(core: &ShardCore) -> Result<ShardCore, ServiceError> {
    // The fired crash hook is not re-armed — the simulated process only
    // dies once — so the recovered incarnation journals normally.
    ShardCore::open_counted(
        core.dir(),
        *core.spec(),
        CrashPoint::none(),
        core.stats().recoveries + 1,
    )
}
