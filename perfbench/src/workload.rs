//! The three serving workloads and the inputs they generate from a seed.
//!
//! Every workload uses the Figure 7 Chinese-Wall policies
//! ([`fig7_policy_config`]: up to 5 partitions of up to 25 views, drawn
//! from a 1,000-template pool) and admissions that are 10% `Check` and 90%
//! `Submit`, each carrying a boxed query.  The workloads differ in what
//! they stress:
//!
//! * `warm_admit` — the cache-hit path at a call size where hand-off
//!   overhead dominates;
//! * `cold_label` — fresh queries only, so folding, dissection, containment
//!   and interning dominate;
//! * `durable_churn` — writes beside reads on a durable service: WAL
//!   append/commit/fsync, policy re-intern, epoch bumps and checkpoints.

use fdc_bench::fig7_policy_config;
use fdc_core::SecurityViews;
use fdc_ecosystem::policies::PolicyGeneratorConfig;
use fdc_ecosystem::{ChurnConfig, ChurnGenerator, Ecosystem, WorkloadConfig};
use fdc_policy::SecurityPolicy;
use fdc_service::Operation;

/// Share of admissions that are pure `Check`s (the rest are `Submit`s).
pub const CHECK_SHARE: f64 = 0.1;

/// Share of mutations that add a security view (the rest split between
/// grants and revokes).  The generator degrades an addition to a grant
/// once every relation's 32-view budget is full.
pub const ADD_VIEW_SHARE: f64 = 0.1;

/// Fewest calls a measured stream makes: enough to put at least ten
/// samples beyond the p99 call latency.
pub const MIN_CALLS: usize = 1_000;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-memory, cache-resident admissions from a 2,000-shape pool.
    WarmAdmit,
    /// In-memory, every admission a freshly generated query.
    ColdLabel,
    /// Durable service with 10% mutations and periodic checkpoints.
    DurableChurn,
}

/// The sizes and mix of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Registered principals.
    pub principals: usize,
    /// Operations per `run_batch` call.
    pub call_ops: usize,
    /// Distinct query shapes admissions draw from (`0`: every one fresh).
    pub query_pool: usize,
    /// Uid-joined subqueries per generated query (3 atoms each at most).
    pub max_subqueries: usize,
    /// Share of operations that are mutations.
    pub mutation_ratio: f64,
    /// Whether the service is opened with `open_durable`.
    pub durable: bool,
    /// Admissions run during set-up, before the measured stream.
    pub warmup_ops: usize,
    /// Calls the measured stream makes per requested second.  The stream
    /// has a fixed length for a given `--seconds`, so every commit measured
    /// with the same settings does the same work.
    pub calls_per_second: usize,
    /// A checkpoint is taken after every this many measured operations
    /// (`0`: never).
    pub checkpoint_every: usize,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::WarmAdmit,
        Workload::ColdLabel,
        Workload::DurableChurn,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmAdmit => "warm_admit",
            Workload::ColdLabel => "cold_label",
            Workload::DurableChurn => "durable_churn",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The full-size specification measured by the benchmark.
    pub fn spec(self) -> Spec {
        match self {
            Workload::WarmAdmit => Spec {
                principals: 100_000,
                call_ops: 64,
                query_pool: 2_000,
                max_subqueries: 2,
                mutation_ratio: 0.0,
                durable: false,
                warmup_ops: 8_192,
                calls_per_second: 1_000,
                checkpoint_every: 0,
            },
            Workload::ColdLabel => Spec {
                principals: 10_000,
                call_ops: 256,
                query_pool: 0,
                max_subqueries: 3,
                mutation_ratio: 0.0,
                durable: false,
                warmup_ops: 1_024,
                calls_per_second: 100,
                checkpoint_every: 0,
            },
            Workload::DurableChurn => Spec {
                principals: 20_000,
                call_ops: 64,
                query_pool: 2_000,
                max_subqueries: 2,
                mutation_ratio: 0.1,
                durable: true,
                warmup_ops: 4_096,
                calls_per_second: 1_000,
                checkpoint_every: 160_000,
            },
        }
    }
}

impl Spec {
    /// Calls in the measured stream of a run asked to measure `seconds`.
    pub fn calls(&self, seconds: u64) -> usize {
        (self.calls_per_second * seconds as usize).max(MIN_CALLS)
    }
}

/// Mixes the command-line seed into the seed of one generator, so the
/// policy, query and churn generators draw independent streams.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything a run feeds the service, generated from the seed before any
/// timing starts: the initial registry, one policy per principal, the
/// warmup admissions, and the generator of the measured stream.
pub struct Inputs {
    /// The security-view registry every service starts from.
    pub registry: SecurityViews,
    /// The policy of each principal, in registration order.
    pub policies: Vec<SecurityPolicy>,
    /// The set-up admissions that seed the query pool and the label cache.
    pub warmup: Vec<Operation>,
    stream: ChurnGenerator,
}

impl Inputs {
    /// Generates the inputs of `spec` from `seed`.  The same arguments
    /// always give the same inputs.
    pub fn new(spec: &Spec, seed: u64) -> Inputs {
        let ecosystem = Ecosystem::new();
        let mut generator = ecosystem.policy_generator(PolicyGeneratorConfig {
            seed: derive_seed(seed, 1),
            ..fig7_policy_config()
        });
        let policies = (0..spec.principals)
            .map(|_| generator.next_policy(&ecosystem.views))
            .collect();
        let mut stream = ecosystem.churn(ChurnConfig {
            mutation_ratio: spec.mutation_ratio,
            add_view_share: ADD_VIEW_SHARE,
            check_share: CHECK_SHARE,
            query_pool: spec.query_pool,
            num_principals: spec.principals,
            seed: derive_seed(seed, 2),
            workload: WorkloadConfig::stress(spec.max_subqueries, derive_seed(seed, 3)),
        });
        let warmup = stream.admissions(spec.warmup_ops);
        Inputs {
            registry: ecosystem.views,
            policies,
            warmup,
            stream,
        }
    }

    /// The next `n` operations of the measured stream.  Successive calls
    /// continue one deterministic stream, so how a run chunks its
    /// generation never changes the operations it sees.
    pub fn next_ops(&mut self, n: usize) -> Vec<Operation> {
        self.stream.ops(n)
    }
}
