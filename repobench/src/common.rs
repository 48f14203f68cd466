//! Shared plumbing: run configuration and result, the seed-driven RNG, the
//! output digest, percentiles and process memory.

use std::path::PathBuf;
use std::time::Instant;

/// What one invocation runs.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Workload seed: every input of the run is derived from it.
    pub seed: u64,
    /// Measured ops (the op sequence is fixed by `seed` and `ops`).
    pub ops: u64,
    /// Replay the op sequence through the decomposed, span-wrapped calls.
    pub trace: bool,
    /// Directory for the trace artefact and the service journals.
    pub out_dir: PathBuf,
}

/// One named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`us`, `ns`, `count`, `ratio`, ...).
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Everything a workload run reports back to `main`.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Ops attempted in the measured phase.
    pub attempted: u64,
    /// Ops that failed or violated a correctness gate.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// FNV-1a fold of every op's outputs, in op order.
    pub digest: u64,
    /// Duration of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of the measured phase, in seconds.
    pub measured_s: f64,
    /// Per-op latency of the measured phase, in nanoseconds.
    pub lat_ns: Vec<u64>,
    /// One-line definition of the inputs, for the provenance record.
    pub definition: String,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Human-readable per-layer table (traced runs only).
    pub layer_table: String,
}

impl RunResult {
    /// Record a failed op (keeping the first few descriptions).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Count one op, failing it when `check` is `Err`.
    pub fn record(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.fail(e);
        }
    }
}

/// How many times set-up runs per invocation; the median is reported.
pub const SETUP_REPEATS: usize = 5;

/// Run `setup` [`SETUP_REPEATS`] times, keeping the last result and every
/// duration.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous incarnation before timing the next one.
        drop(last.take());
        let t0 = Instant::now();
        let v = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    Ok((last.expect("SETUP_REPEATS > 0"), times))
}

/// SplitMix64: a tiny, fully specified generator, so the benchmark's
/// inputs do not depend on any crate's RNG choices.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`; distinct streams never overlap in
    /// practice.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `0..n` as an `i32` coordinate.
    pub fn coord(&mut self, n: i32) -> i32 {
        (self.next_u64() % n as u64) as i32
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }
}

/// FNV-1a-64 over a stream of words.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Nearest-rank percentile `q` (0 < q ≤ 1) of ascending `sorted`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `v` (mean of the middle two for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A field of `/proc/self/status` (e.g. `VmHWM`, `Cpus_allowed_list`).
pub fn proc_status(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let v = proc_status("VmHWM")?;
    let kb: f64 = v.trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// How this result was produced: revision, the CPUs the process may use
/// (`nproc`, `cpus_allowed`) and the machine's, seed, op count and the
/// workload definition.
pub fn provenance(
    workload: &str,
    cfg: &RunConfig,
    definition: &str,
) -> Vec<(&'static str, String)> {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", workload.to_string()),
        ("git_rev", rev),
        ("nproc", nproc.to_string()),
        (
            "cpus_online",
            std::fs::read_to_string("/sys/devices/system/cpu/online")
                .map(|s| s.trim().to_string())
                .unwrap_or_default(),
        ),
        (
            "cpus_allowed",
            proc_status("Cpus_allowed_list").unwrap_or_default(),
        ),
        ("seed", cfg.seed.to_string()),
        ("ops", cfg.ops.to_string()),
        ("setup_repeats", SETUP_REPEATS.to_string()),
        ("trace", cfg.trace.to_string()),
        ("definition", definition.to_string()),
    ]
}

/// Write the trace artefact of a traced run to
/// `<out_dir>/trace-<workload>-seed<seed>.json`.
pub fn write_trace(
    cfg: &RunConfig,
    workload: &str,
    res: &RunResult,
    tr: &crate::trace::Tracer,
) -> Result<(), String> {
    let path = cfg
        .out_dir
        .join(format!("trace-{workload}-seed{}.json", cfg.seed));
    std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| {
            std::fs::write(
                &path,
                tr.to_json(&provenance(workload, cfg, &res.definition)),
            )
        })
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}
