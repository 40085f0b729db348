//! One benchmark run: set-up, the measured closed-loop stream, recovery and
//! the output check.
//!
//! One client thread calls [`DisclosureService::run_batch`] on fixed-size
//! slices of the stream and issues the next call only when the previous
//! one returns — an API gateway that waits for decisions before running
//! admitted queries.  The stream is generated in chunks outside the timed
//! calls; a call's latency runs from the moment it is due (including a
//! checkpoint taken just before it) until its responses are back.

use std::fs;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fdc_core::CacheStats;
use fdc_policy::Decision;
use fdc_service::{DisclosureService, Operation, ParallelStats, Response, ServiceConfig};

use crate::check::{self, StateSummary};
use crate::stats::{median, quantile, ratio};
use crate::trace::{Shadow, Tracer};
use crate::workload::{Inputs, Spec, ADD_VIEW_SHARE};

/// Operations generated together, outside the timed calls.  Large, so the
/// few calls that meet caches cooled by a generation step stay far below
/// 1% of a stream and out of its p99.
pub const CHUNK_OPS: usize = 65_536;

/// Set-ups per untraced run: at least this many, and more until they add
/// up to [`SETUP_SAMPLE_S`], so a short set-up is sampled often enough for
/// a steady median (`setup_s`).
const MIN_SETUPS: usize = 3;

/// Total set-up time an untraced run samples, in seconds.
const SETUP_SAMPLE_S: f64 = 4.0;

/// Reopens of a durable run's directory; its recovery time is their
/// median.
const REOPENS: usize = 5;

/// Share of calls, the fastest, that `ops_per_s` is computed over: the
/// throughput of a typical call.  With the pooled default on a 2-vCPU
/// host, how many calls a run's hand-offs stall by milliseconds follows
/// the host's load, and over the slower calls that swings throughput by
/// more than any change worth detecting; the latency tail reports them.
const BODY_SHARE: f64 = 0.5;

/// Calls per block of the traced run, whose blocks alternate between
/// traced and untraced calls.
const TRACE_BLOCK: usize = 16;

/// Measuring stops after this long whatever the stream's length, so a run
/// ends in time even on a build many times slower.
const MEASURE_LIMIT: Duration = Duration::from_secs(60);

/// The end-to-end metrics, by name and unit, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "ops/s"),
    ("batch_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The end-to-end metrics that carry no bound, by name and unit: every
/// untraced run prints them, but they stay out of its result line because
/// `batch_p99_ms` swings by more than any bound on a 2-vCPU host,
/// `failed_frac` is 0 on every correct run, and `recovery_s` exists on
/// `durable_churn` only.
pub const UNBOUNDED: [(&str, &str); 3] = [
    ("batch_p99_ms", "ms"),
    ("failed_frac", "ratio"),
    ("recovery_s", "s"),
];

/// The per-layer metrics of the traced run, by name and unit, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("service.batch_p99_ms", "ms"),
    ("service.call_ms", "ms"),
    ("service.self_ms", "ms"),
    ("service.runs_per_call", "1/call"),
    ("service.long_run_share", "ratio"),
    ("core.label_hit_ns", "ns"),
    ("core.label_miss_us", "us"),
    ("core.label_refresh_us", "us"),
    ("core.hit_ratio", "ratio"),
    ("core.cache_entries", "count"),
    ("core.batch_dedup_hits", "1/call"),
    ("pool.roundtrip_us", "us"),
    ("pool.tasks_per_call", "1/call"),
    ("pool.inline_share", "ratio"),
    ("pool.steals_per_call", "1/call"),
    ("pool.parks_per_call", "1/call"),
    ("pool.snapshots_reclaimed", "1/call"),
    ("cq.intern_new_us", "us"),
    ("cq.intern_seen_ns", "ns"),
    ("cq.fold_us", "us"),
    ("cq.acyclic_share", "ratio"),
    ("policy.decide_ns", "ns"),
    ("policy.mutate_us", "us"),
    ("policy.state_mb", "MiB"),
    ("policy.unique_policies", "count"),
    ("durability.fsyncs_per_op", "1/op"),
    ("durability.records_per_commit", "count"),
    ("durability.wal_bytes_per_op", "B/op"),
    ("durability.setup_fsyncs", "count"),
    ("durability.ckpt_begin_ms", "ms"),
    ("durability.ckpt_encode_ms", "ms"),
    ("durability.ckpt_complete_ms", "ms"),
    ("durability.ckpt_mb", "MiB"),
    ("durability.open_ms", "ms"),
    ("durability.replayed_records", "count"),
    ("workload.mutation_share", "ratio"),
    ("workload.add_view_applied_share", "ratio"),
    ("workload.add_view_degraded_share", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The workload properties later optimisations depend on, printed by
/// every run.
pub const SHARES: [&str; 6] = [
    "core.hit_ratio",
    "workload.mutation_share",
    "workload.add_view_applied_share",
    "workload.add_view_degraded_share",
    "service.long_run_share",
    "cq.acyclic_share",
];

/// What one run does.
#[derive(Debug, Clone)]
pub struct Options {
    /// Its sizes (the full [`Workload::spec`], or a smaller one in tests).
    pub spec: Spec,
    /// Seed of every generated input.
    pub seed: u64,
    /// Calls in the measured stream.
    pub calls: usize,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Directory for the durable service's files; emptied by the caller.
    pub scratch: PathBuf,
    /// Where the traced run writes its spans.
    pub spans: Option<PathBuf>,
    /// Flips the first decision of this call before it is checked, to
    /// show that the output check catches a wrong response.
    pub alter_call: Option<usize>,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Counts that must repeat exactly for a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Query-cache hits over the measured stream.
    pub hits: u64,
    /// Query-cache misses over the measured stream.
    pub misses: u64,
    /// WAL fsyncs over the measured stream.
    pub fsyncs: u64,
    /// Maximal admission runs over the measured stream.
    pub runs: u64,
    /// Mutations in the measured stream.
    pub mutations: u64,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every response and the final state matched the reference.
    pub correct: bool,
    /// What did not match, when something did not.
    pub problem: Option<String>,
    /// Operations in the measured stream.
    pub attempted: u64,
    /// Operations answered `Response::Rejected`.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// The [`UNBOUNDED`] end-to-end metrics of an untraced run (no
    /// `recovery_s` on an in-memory workload); empty on a traced run.
    pub unbounded: Vec<Metric>,
    /// The workload-property shares of [`SHARES`].
    pub shares: Vec<Metric>,
    /// Counts that repeat exactly for a seed.
    pub counts: Counts,
    /// Call latency quantiles with the sample count, as one printable
    /// line.
    pub latency: String,
    /// Measuring hit [`MEASURE_LIMIT`] before the stream ended.
    pub cut_short: bool,
}

/// Builds the service (durable ones in `dir`, emptied first), registers
/// every principal (through the WAL on a durable service) and runs the
/// warmup — the work `setup_s` times.  Returns the service and the
/// seconds it took.
fn set_up(
    spec: &Spec,
    inputs: &Inputs,
    dir: Option<&Path>,
) -> io::Result<(DisclosureService, f64)> {
    if let Some(dir) = dir {
        if dir.exists() {
            fs::remove_dir_all(dir)?;
        }
    }
    let policies = inputs.policies.clone();
    let start = Instant::now();
    let mut service = match dir {
        Some(dir) => {
            DisclosureService::open_durable(inputs.registry.clone(), ServiceConfig::default(), dir)?
                .0
        }
        None => DisclosureService::new(inputs.registry.clone(), ServiceConfig::default()),
    };
    for policy in policies {
        service.register_principal(policy);
    }
    for call in inputs.warmup.chunks(spec.call_ops) {
        black_box(service.run_batch(call));
    }
    Ok((service, start.elapsed().as_secs_f64()))
}

/// Bytes of the files in `dir` named `<prefix>*<suffix>`, and the size of
/// the lexically last one (checkpoint names carry a zero-padded sequence
/// number, so that is the newest).
fn file_bytes(dir: &Path, prefix: &str, suffix: &str) -> io::Result<(u64, u64)> {
    let mut names = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with(prefix) && name.ends_with(suffix) {
            names.push((name, entry.metadata()?.len()));
        }
    }
    names.sort();
    let total = names.iter().map(|(_, len)| len).sum();
    Ok((total, names.last().map_or(0, |(_, len)| *len)))
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Pool work done between two `ParallelStats` readings.
#[derive(Default)]
struct PoolWork {
    calls: u64,
    tasks: u64,
    inline: u64,
    steals: u64,
    parks: u64,
    reclaimed: u64,
}

impl PoolWork {
    fn add(&mut self, before: &ParallelStats, after: &ParallelStats) {
        let tasks = |p: &ParallelStats| p.tasks_per_worker.iter().sum::<u64>() + p.tasks_inline;
        self.calls += 1;
        self.tasks += tasks(after) - tasks(before);
        self.inline += after.tasks_inline - before.tasks_inline;
        self.steals += after.steals - before.steals;
        self.parks += after.queue_empty_stalls - before.queue_empty_stalls;
        self.reclaimed += after.snapshots_reclaimed - before.snapshots_reclaimed;
    }

    fn per_call(&self, n: u64) -> f64 {
        ratio(n as f64, self.calls as f64)
    }
}

/// What the measured stream observed.
#[derive(Default)]
struct Pass {
    /// Per call: seconds from due to answered, checkpoint stall included.
    latency_s: Vec<f64>,
    /// Per call: seconds inside `run_batch`, and whether it was traced.
    batch_s: Vec<(f64, bool)>,
    digests: Vec<u64>,
    ops: u64,
    failed: u64,
    mutations: u64,
    views_added: u64,
    runs: u64,
    long_runs: u64,
    wal_bytes: u64,
    ckpt_ms: [Vec<f64>; 3],
    pool: PoolWork,
    cut_short: bool,
}

impl Pass {
    /// Counts the maximal admission runs of one call.
    fn count_runs(&mut self, ops: &[Operation], threshold: usize) {
        let mut len = 0;
        for op in ops {
            if op.is_admission() {
                len += 1;
            } else {
                self.mutations += 1;
                self.close_run(&mut len, threshold);
            }
        }
        self.close_run(&mut len, threshold);
    }

    fn close_run(&mut self, len: &mut usize, threshold: usize) {
        if *len > 0 {
            self.runs += 1;
            self.long_runs += u64::from(*len >= threshold);
        }
        *len = 0;
    }

    fn record_responses(&mut self, responses: &mut [Response], alter: bool) {
        if alter {
            if let Some(r) = responses.iter_mut().find(|r| r.decision().is_some()) {
                *r = match r.decision() {
                    Some(Decision::Allow) => Response::Decision(Decision::Deny),
                    _ => Response::Decision(Decision::Allow),
                };
            }
        }
        self.ops += responses.len() as u64;
        self.failed += responses.iter().filter(|r| r.is_rejected()).count() as u64;
        self.views_added += responses
            .iter()
            .filter(|r| matches!(r, Response::ViewAdded(_)))
            .count() as u64;
        self.digests.push(check::call_digest(responses));
    }

    /// Operations per second over the fastest [`BODY_SHARE`] of the calls:
    /// their operations ÷ their wall time.
    fn body_ops_per_s(&self, call_ops: usize) -> f64 {
        let mut latency = self.latency_s.clone();
        latency.sort_by(f64::total_cmp);
        let body = &latency[..(latency.len() as f64 * BODY_SHARE).ceil() as usize];
        ratio((body.len() * call_ops) as f64, body.iter().sum())
    }

    /// Call latency quantiles in milliseconds, with the sample count, for
    /// the run's `latency_ms` line.
    fn latency_line(&self) -> String {
        let ms: Vec<f64> = self.latency_s.iter().map(|s| s * 1e3).collect();
        let q = |q| quantile(&ms, q);
        format!(
            "latency_ms calls={} p50={} p90={} p99={} p99.9={} max={}",
            ms.len(),
            q(0.5),
            q(0.9),
            q(0.99),
            q(0.999),
            q(1.0)
        )
    }

    /// `run_batch` calls per second of the traced or the untraced calls.
    fn batch_calls_per_s(&self, traced: bool) -> f64 {
        let (calls, seconds) = self
            .batch_s
            .iter()
            .filter(|&&(_, t)| t == traced)
            .fold((0, 0.0), |(n, total), &(s, _)| (n + 1, total + s));
        ratio(f64::from(calls), seconds)
    }
}

/// Runs the measured stream on a set-up service.
fn measure(
    opts: &Options,
    inputs: &mut Inputs,
    service: &mut DisclosureService,
    dir: Option<&Path>,
    mut shadow: Option<(&mut Shadow, &mut Tracer)>,
) -> io::Result<Pass> {
    let spec = &opts.spec;
    let threshold = service.config().parallel_threshold;
    let pool = service.pool_handle();
    let mut pass = Pass::default();
    let mut wal_base = match dir {
        Some(dir) => file_bytes(dir, "wal-", ".log")?.0,
        None => 0,
    };
    let mut next_checkpoint = spec.checkpoint_every;
    let started = Instant::now();
    'stream: while pass.digests.len() < opts.calls {
        let chunk_calls = (opts.calls - pass.digests.len()).min(CHUNK_OPS / spec.call_ops);
        let ops = inputs.next_ops(chunk_calls * spec.call_ops);
        for call_ops in ops.chunks(spec.call_ops) {
            let call = pass.digests.len();
            let traced = shadow.is_some() && (call / TRACE_BLOCK).is_multiple_of(2);
            let checkpoint = match dir {
                Some(dir) if spec.checkpoint_every > 0 && pass.ops >= next_checkpoint as u64 => {
                    next_checkpoint += spec.checkpoint_every;
                    pass.wal_bytes += file_bytes(dir, "wal-", ".log")?.0 - wal_base;
                    true
                }
                _ => false,
            };
            let before = traced.then(|| service.stats().parallel);
            let due = Instant::now();
            if checkpoint {
                match shadow.as_mut() {
                    // Traced: the three phases of `checkpoint()`, timed.
                    Some((_, tracer)) => {
                        let t0 = tracer.now();
                        let pending = service.begin_checkpoint()?;
                        let t1 = tracer.now();
                        let payload = pending.encode();
                        let t2 = tracer.now();
                        service.complete_checkpoint(&pending, &payload)?;
                        let t3 = tracer.now();
                        let phases = [
                            ("durability.ckpt_begin", t0, t1),
                            ("durability.ckpt_encode", t1, t2),
                            ("durability.ckpt_complete", t2, t3),
                        ];
                        for (i, (name, start, end)) in phases.into_iter().enumerate() {
                            tracer.record(name, start, end, None, call);
                            pass.ckpt_ms[i].push((end - start) as f64 / 1e6);
                        }
                    }
                    None => {
                        service.checkpoint()?;
                    }
                }
            }
            let root_start = shadow.as_ref().map_or(0, |(_, tracer)| tracer.now());
            let called = Instant::now();
            let mut responses = service.run_batch(call_ops);
            let answered = Instant::now();
            pass.latency_s.push((answered - due).as_secs_f64());
            pass.batch_s
                .push(((answered - called).as_secs_f64(), traced));
            if checkpoint {
                wal_base = file_bytes(dir.expect("checkpoints are durable"), "wal-", ".log")?.0;
            }
            pass.count_runs(call_ops, threshold);
            pass.record_responses(&mut responses, opts.alter_call == Some(call));
            if let Some((shadow, tracer)) = shadow.as_mut() {
                if let Some(before) = before {
                    let root =
                        tracer.record("service.run_batch", root_start, tracer.now(), None, call);
                    pass.pool.add(&before, &service.stats().parallel);
                    shadow.replay(call_ops, tracer, root, call);
                    let start = tracer.now();
                    black_box(pool.run(vec![(); pool.workers()], |(), _| ()));
                    tracer.record("pool.roundtrip", start, tracer.now(), None, call);
                } else {
                    shadow.feed(call_ops, false);
                }
            }
            if started.elapsed() > MEASURE_LIMIT {
                pass.cut_short = true;
                break 'stream;
            }
        }
    }
    if let Some(dir) = dir {
        pass.wal_bytes += file_bytes(dir, "wal-", ".log")?.0 - wal_base;
    }
    Ok(pass)
}

/// The recovery half of a durable run: closes the service, reopens its
/// directory [`REOPENS`] times, and checks that the reopened state equals
/// the live state before the close.  Returns the reopen times and the WAL
/// records the first reopen replayed.
fn recover(
    service: DisclosureService,
    inputs: &Inputs,
    dir: &Path,
    live: &StateSummary,
) -> io::Result<(Vec<f64>, u64, Result<(), String>)> {
    service.close()?;
    let mut seconds = Vec::with_capacity(REOPENS);
    let mut replayed = 0;
    let mut verdict = Ok(());
    for i in 0..REOPENS {
        let start = Instant::now();
        let (reopened, report) = DisclosureService::open_durable(
            inputs.registry.clone(),
            ServiceConfig::default(),
            dir,
        )?;
        seconds.push(start.elapsed().as_secs_f64());
        if i == 0 {
            replayed = report.records_replayed;
            verdict = StateSummary::of(&reopened).compare(live, "reopened service");
        }
        reopened.close()?;
    }
    Ok((seconds, replayed, verdict))
}

fn cache_delta(before: &CacheStats, after: &CacheStats) -> (u64, u64, u64) {
    (
        after.hits - before.hits,
        after.misses - before.misses,
        after.batch_dedup_hits - before.batch_dedup_hits,
    )
}

/// Runs one benchmark run.
pub fn run(opts: &Options) -> io::Result<Outcome> {
    let spec = &opts.spec;
    let mut inputs = Inputs::new(spec, opts.seed);
    let dir_of = |k: usize| {
        spec.durable
            .then(|| opts.scratch.join(format!("setup-{k}")))
    };
    // Every set-up runs before the measured stream, which serves on the
    // last one: set-ups of a durable service are fsync-bound, and after the
    // stream's checkpoint and reopens the disk is still busy writing back.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut kept = None;
    while setup_s.is_empty()
        || !opts.trace
            && (setup_s.len() < MIN_SETUPS || setup_s.iter().sum::<f64>() < SETUP_SAMPLE_S)
    {
        // Drop the previous set-up's service first, so set-ups never
        // overlap in memory.
        drop(kept.take());
        let (service, seconds) = set_up(spec, &inputs, dir_of(setup_s.len()).as_deref())?;
        setup_s.push(seconds);
        kept = Some(service);
    }
    let mut service = kept.expect("at least one set-up");
    let dir = dir_of(setup_s.len() - 1);
    let dir = dir.as_deref();
    let setup_fsyncs = service.stats().durability.wal_fsyncs;

    let mut traced = opts.trace.then(|| {
        let mut shadow = Shadow::new(
            inputs.registry.clone(),
            &inputs.policies,
            service.config().num_shards,
        );
        shadow.feed(&inputs.warmup, true);
        (shadow, Tracer::default())
    });

    let cache_before = service.labeler().stats();
    let health_before = service.stats().durability;
    let pass = measure(
        opts,
        &mut inputs,
        &mut service,
        dir,
        traced.as_mut().map(|(s, t)| (s, t)),
    )?;
    let peak_rss = peak_rss_mb();
    let cache_after = service.labeler().stats();
    let health_after = service.stats().durability;
    let (hits, misses, dedup_hits) = cache_delta(&cache_before, &cache_after);
    let acyclic_share = {
        let interner = service.interner();
        let interner = interner.read().expect("interner lock poisoned");
        ratio(interner.num_acyclic_queries() as f64, interner.len() as f64)
    };
    let state_mb = service.store().state_bytes() as f64 / (1 << 20) as f64;
    let unique_policies = service.store().unique_policies() as f64;
    let fsyncs = health_after.wal_fsyncs - health_before.wal_fsyncs;
    let commits = health_after.wal_commits - health_before.wal_commits;
    let records = health_after.wal_records_committed - health_before.wal_records_committed;

    let live = StateSummary::of(&service);
    let mut verdict = Ok(());
    let (recovery_s, replayed, ckpt_mb) = match dir {
        Some(dir) => {
            let ckpt_bytes = file_bytes(dir, "ckpt-", ".ck")?.1;
            let (seconds, replayed, reopened) = recover(service, &inputs, dir, &live)?;
            verdict = reopened;
            (seconds, replayed, ckpt_bytes as f64 / (1 << 20) as f64)
        }
        None => {
            drop(service);
            (Vec::new(), 0, 0.0)
        }
    };
    drop(inputs);

    let (ref_digests, ref_state) = check::reference(spec, opts.seed, pass.digests.len());
    verdict = verdict
        .and_then(|()| check::compare_digests(&pass.digests, &ref_digests))
        .and_then(|()| live.compare(&ref_state, "live service vs reference"));

    let n_calls = pass.digests.len() as f64;
    // Share of the expected `AddSecurityView` draws that added a view; the
    // rest were degraded to grants once the view budgets filled.
    let expected_add_views = pass.mutations as f64 * ADD_VIEW_SHARE;
    let applied_share = ratio(pass.views_added as f64, expected_add_views).min(1.0);
    let degraded_share = if pass.mutations == 0 {
        0.0
    } else {
        1.0 - applied_share
    };
    let shares = vec![
        metric("core.hit_ratio", ratio(hits as f64, (hits + misses) as f64)),
        metric(
            "workload.mutation_share",
            ratio(pass.mutations as f64, pass.ops as f64),
        ),
        metric("workload.add_view_applied_share", applied_share),
        metric("workload.add_view_degraded_share", degraded_share),
        metric(
            "service.long_run_share",
            ratio(pass.long_runs as f64, pass.runs as f64),
        ),
        metric("cq.acyclic_share", acyclic_share),
    ];

    let latency_ms: Vec<f64> = pass.latency_s.iter().map(|s| s * 1e3).collect();
    let mut unbounded = Vec::new();
    let metrics = match traced {
        None => {
            unbounded.push(metric("batch_p99_ms", quantile(&latency_ms, 0.99)));
            unbounded.push(metric(
                "failed_frac",
                ratio(pass.failed as f64, pass.ops as f64),
            ));
            if spec.durable {
                unbounded.push(metric("recovery_s", median(&recovery_s)));
            }
            vec![
                metric("ops_per_s", pass.body_ops_per_s(spec.call_ops)),
                metric("batch_p50_ms", median(&latency_ms)),
                metric("setup_s", median(&setup_s)),
                metric("peak_rss_mb", peak_rss),
            ]
        }
        Some((shadow, tracer)) => {
            if let Some(path) = &opts.spans {
                tracer.write_tsv(path)?;
            }
            let s = &shadow.samples;
            let ms = |ns: Vec<f64>| median(&ns) / 1e6;
            let pool = &pass.pool;
            let mut all = vec![
                metric("service.batch_p99_ms", quantile(&latency_ms, 0.99)),
                metric(
                    "service.call_ms",
                    ms(tracer.durations_ns("service.run_batch")),
                ),
                metric(
                    "service.self_ms",
                    ms(tracer.self_times_ns("service.run_batch")),
                ),
                metric("service.runs_per_call", ratio(pass.runs as f64, n_calls)),
                metric("core.label_hit_ns", median(&s.label_hit_ns)),
                metric("core.label_miss_us", median(&s.label_miss_us)),
                metric("core.label_refresh_us", median(&s.label_refresh_us)),
                metric("core.cache_entries", cache_after.entries as f64),
                metric("core.batch_dedup_hits", ratio(dedup_hits as f64, n_calls)),
                metric(
                    "pool.roundtrip_us",
                    median(&tracer.durations_ns("pool.roundtrip")) / 1e3,
                ),
                metric("pool.tasks_per_call", pool.per_call(pool.tasks)),
                metric(
                    "pool.inline_share",
                    ratio(pool.inline as f64, pool.tasks as f64),
                ),
                metric("pool.steals_per_call", pool.per_call(pool.steals)),
                metric("pool.parks_per_call", pool.per_call(pool.parks)),
                metric("pool.snapshots_reclaimed", pool.per_call(pool.reclaimed)),
                metric("cq.intern_new_us", median(&s.intern_new_us)),
                metric("cq.intern_seen_ns", median(&s.intern_seen_ns)),
                metric("cq.fold_us", median(&s.fold_us)),
                metric("policy.decide_ns", median(&s.decide_ns)),
                metric("policy.mutate_us", median(&s.mutate_us)),
                metric("policy.state_mb", state_mb),
                metric("policy.unique_policies", unique_policies),
                metric(
                    "durability.fsyncs_per_op",
                    ratio(fsyncs as f64, pass.ops as f64),
                ),
                metric(
                    "durability.records_per_commit",
                    ratio(records as f64, commits as f64),
                ),
                metric(
                    "durability.wal_bytes_per_op",
                    ratio(pass.wal_bytes as f64, pass.ops as f64),
                ),
                metric("durability.setup_fsyncs", setup_fsyncs as f64),
                metric("durability.ckpt_begin_ms", median(&pass.ckpt_ms[0])),
                metric("durability.ckpt_encode_ms", median(&pass.ckpt_ms[1])),
                metric("durability.ckpt_complete_ms", median(&pass.ckpt_ms[2])),
                metric("durability.ckpt_mb", ckpt_mb),
                metric("durability.open_ms", median(&recovery_s) * 1e3),
                metric("durability.replayed_records", replayed as f64),
                metric(
                    "trace.overhead_frac",
                    1.0 - ratio(pass.batch_calls_per_s(true), pass.batch_calls_per_s(false)),
                ),
            ];
            all.extend(shares.iter().cloned());
            PER_LAYER
                .iter()
                .map(|(name, _)| {
                    all.iter()
                        .find(|m| m.name == *name)
                        .cloned()
                        .expect("every per-layer metric is computed")
                })
                .collect()
        }
    };
    Ok(Outcome {
        correct: verdict.is_ok(),
        problem: verdict.err(),
        attempted: pass.ops,
        failed: pass.failed,
        metrics,
        unbounded,
        shares,
        counts: Counts {
            hits,
            misses,
            fsyncs,
            runs: pass.runs,
            mutations: pass.mutations,
        },
        latency: pass.latency_line(),
        cut_short: pass.cut_short,
    })
}

/// A metric with the unit its name is registered under.
fn metric(name: &'static str, value: f64) -> Metric {
    let unit = END_TO_END
        .iter()
        .chain(UNBOUNDED.iter())
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .expect("metric names are registered");
    Metric { name, value, unit }
}
