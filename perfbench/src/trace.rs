//! The traced run's instruments: spans recorded from the benchmark's own
//! code around calls into each layer, and the shadow layers those calls
//! replay a traced call on.
//!
//! The service's internals are not instrumented.  Instead, after each
//! traced `run_batch` call, the call's operations are replayed through the
//! layers' public entry points on shadow instances fed the same stream —
//! a [`CachedLabeler`] over the same registry and a [`ShardedPolicyStore`]
//! holding the same policies — and each replay is timed as a child span of
//! the call's root span.  The service's self time is the root span minus
//! those children.

use std::fs;
use std::hint::black_box;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

use fdc_core::{CachedLabeler, QueryLabeler as _, SecurityViews, SharedQueryInterner};
use fdc_cq::folding::fold;
use fdc_policy::{SecurityPolicy, ShardedPolicyStore};
use fdc_service::Operation;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.label`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The `run_batch` call the span belongs to.
    pub call: usize,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory and written out when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span and returns its index (the id children refer to).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        call: usize,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            call,
        });
        self.spans.len() - 1
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Self time of every span named `name`, in nanoseconds: its duration
    /// minus the durations of its child spans.
    pub fn self_times_ns(&self, name: &str) -> Vec<f64> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.duration_ns() as f64 - c as f64)
            .collect()
    }

    /// Writes the spans as tab-separated `id name start_ns end_ns parent
    /// call` rows.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\tcall")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.call
            )?;
        }
        out.flush()
    }
}

/// Per-operation timings the replays collect, by layer and outcome.
#[derive(Debug, Default)]
pub struct LayerSamples {
    /// `intern` + `label_packed_interned` that hit the query cache (ns).
    pub label_hit_ns: Vec<f64>,
    /// The same for query-cache misses (µs).
    pub label_miss_us: Vec<f64>,
    /// The same for stale entries refreshed in place (µs).
    pub label_refresh_us: Vec<f64>,
    /// `intern` of a shape the interner had not seen (µs).
    pub intern_new_us: Vec<f64>,
    /// `intern` of a known shape: the canonical lookup (ns).
    pub intern_seen_ns: Vec<f64>,
    /// `fold` of each new shape (µs).
    pub fold_us: Vec<f64>,
    /// `check_packed` / `submit_packed`, per decision of an admission
    /// run (ns).
    pub decide_ns: Vec<f64>,
    /// `grant_view` / `revoke_view` (µs).
    pub mutate_us: Vec<f64>,
}

/// The shadow layers a traced call is replayed on.
pub struct Shadow {
    labeler: CachedLabeler,
    interner: SharedQueryInterner,
    store: ShardedPolicyStore,
    /// What the replays measured.
    pub samples: LayerSamples,
}

impl Shadow {
    /// Shadow layers over the registry and policies the service started
    /// from.
    pub fn new(registry: SecurityViews, policies: &[SecurityPolicy], num_shards: usize) -> Shadow {
        let labeler = CachedLabeler::new(registry);
        let interner = labeler.interner();
        let mut store = ShardedPolicyStore::new(num_shards);
        for policy in policies {
            store.register(policy.clone());
        }
        Shadow {
            labeler,
            interner,
            store,
            samples: LayerSamples::default(),
        }
    }

    fn interned(&self) -> usize {
        self.interner.read().expect("interner lock poisoned").len()
    }

    /// Labels the admissions (when `admissions` is set) and applies the
    /// mutations of `ops` on the shadow layers, untimed, so the shadow
    /// cache and registry keep tracking the service's.
    pub fn feed(&mut self, ops: &[Operation], admissions: bool) {
        for op in ops {
            match op {
                Operation::Submit { query, .. } | Operation::Check { query, .. } => {
                    if admissions {
                        let id = self.labeler.intern(query);
                        black_box(self.labeler.label_packed_interned(id));
                    }
                }
                _ => {
                    self.mutate(op);
                }
            }
        }
    }

    /// Applies one non-admission operation; returns the span name it is
    /// timed under.
    fn mutate(&mut self, op: &Operation) -> &'static str {
        let registry = self.labeler.security_views();
        match op {
            Operation::GrantView { principal, view } => {
                if let Some(id) = registry.id_by_name(view) {
                    self.store.grant_view(*principal, registry, id);
                }
                "policy.mutate"
            }
            Operation::RevokeView { principal, view } => {
                if let Some(id) = registry.id_by_name(view) {
                    self.store.revoke_view(*principal, registry, id);
                }
                "policy.mutate"
            }
            Operation::AddSecurityView { name, query } => {
                let _ = self.labeler.add_view(name, query.clone());
                "core.add_view"
            }
            _ => "service.other",
        }
    }

    /// Replays one call's operations in stream order: each maximal run of
    /// admissions is labeled (span `core.label`, with `cq.fold` of its new
    /// shapes as a child) and then decided (span `policy.decide`); each
    /// mutation is applied on its own (span `policy.mutate` or
    /// `core.add_view`).
    pub fn replay(&mut self, ops: &[Operation], tracer: &mut Tracer, root: usize, call: usize) {
        let mut i = 0;
        while i < ops.len() {
            if !ops[i].is_admission() {
                let start = tracer.now();
                let t = Instant::now();
                let name = self.mutate(&ops[i]);
                if name == "policy.mutate" {
                    self.samples.mutate_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
                tracer.record(name, start, tracer.now(), Some(root), call);
                i += 1;
                continue;
            }
            let end = ops[i..]
                .iter()
                .position(|op| !op.is_admission())
                .map_or(ops.len(), |n| i + n);
            self.replay_run(&ops[i..end], tracer, root, call);
            i = end;
        }
    }

    fn replay_run(&mut self, run: &[Operation], tracer: &mut Tracer, root: usize, call: usize) {
        let start = tracer.now();
        let mut decisions = Vec::with_capacity(run.len());
        let mut new_shapes = Vec::new();
        for op in run {
            let (principal, query, commit) = match op {
                Operation::Submit { principal, query } => (*principal, query, true),
                Operation::Check { principal, query } => (*principal, query, false),
                _ => unreachable!("the workloads admit boxed queries only"),
            };
            let interned = self.interned();
            let before = self.labeler.stats();
            let t0 = Instant::now();
            let id = self.labeler.intern(query);
            let t1 = Instant::now();
            let label = self.labeler.label_packed_interned(id);
            let t2 = Instant::now();
            let after = self.labeler.stats();
            let intern_s = (t1 - t0).as_secs_f64();
            if self.interned() > interned {
                self.samples.intern_new_us.push(intern_s * 1e6);
                new_shapes.push(query);
            } else {
                self.samples.intern_seen_ns.push(intern_s * 1e9);
            }
            let label_s = (t2 - t0).as_secs_f64();
            if after.misses > before.misses {
                self.samples.label_miss_us.push(label_s * 1e6);
            } else if after.query_refreshes > before.query_refreshes {
                self.samples.label_refresh_us.push(label_s * 1e6);
            } else {
                self.samples.label_hit_ns.push(label_s * 1e9);
            }
            decisions.push((principal, label, commit));
        }
        let label_span = tracer.record("core.label", start, tracer.now(), Some(root), call);
        if !new_shapes.is_empty() {
            let start = tracer.now();
            for query in new_shapes {
                let t = Instant::now();
                black_box(fold(query));
                self.samples.fold_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            tracer.record("cq.fold", start, tracer.now(), Some(label_span), call);
        }
        let start = tracer.now();
        let t = Instant::now();
        for (principal, label, commit) in &decisions {
            let decision = if *commit {
                self.store.submit_packed(*principal, label)
            } else {
                self.store.check_packed(*principal, label)
            };
            black_box(decision);
        }
        let per_decision = t.elapsed().as_secs_f64() * 1e9 / decisions.len() as f64;
        self.samples.decide_ns.push(per_decision);
        tracer.record("policy.decide", start, tracer.now(), Some(root), call);
    }
}
