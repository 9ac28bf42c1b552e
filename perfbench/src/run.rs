//! One benchmark run: set up and measure a workload in rounds, check its
//! outputs, and (traced) measure each layer.
//!
//! A run of `d` seconds is split into rounds of about [`ROUND_SECS`].
//! Every round sets up from scratch (loads the database or boots the
//! cluster) and measures one slice, so `setup_s` is a median over many
//! set-ups and `txn_per_s` a summary of many slices (see [`Summary`]). A
//! traced run alternates untraced and traced rounds; the ratio of the two
//! halves' figures is the tracing overhead.

use std::time::Duration;

use anydb_workload::tpcc::TpccConfig;

use crate::engine::{self, EngineRound, EngineWorkload};
use crate::host;
use crate::json::Json;
use crate::probes;
use crate::sharded;
use crate::stats::{best, median, percentile, tail_percentile};
use crate::trace::Tracer;

/// Target length of one measured round.
const ROUND_SECS: f64 = 1.0;

/// Orders generated per second of a sharded round: well above what the
/// cluster acks, so the client never runs out of input.
const ORDERS_PER_SEC_CAP: f64 = 25_000.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TPC-C payments, all on warehouse 1 of 4, through the engine.
    OltpSkewed,
    /// Uniform payments and new-orders beside a CH-Q3 stream.
    HtapNeworder,
    /// New-orders on 2 replicated shard nodes.
    ShardedNeworder,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::OltpSkewed,
        Workload::HtapNeworder,
        Workload::ShardedNeworder,
    ];

    /// The name the command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpSkewed => "oltp_skewed",
            Workload::HtapNeworder => "htap_neworder",
            Workload::ShardedNeworder => "sharded_neworder",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn engine(self) -> Option<EngineWorkload> {
        match self {
            Workload::OltpSkewed => Some(engine::OLTP_SKEWED),
            Workload::HtapNeworder => Some(engine::HTAP_NEWORDER),
            Workload::ShardedNeworder => None,
        }
    }
}

/// Input sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `TpccConfig::default()`: 4 warehouses, 10 districts each, 300
    /// customers per district, 1000 items, 300 loaded orders per district.
    Full,
    /// 4 warehouses at unit-test size, for the benchmark's own tests.
    Tiny,
}

impl Scale {
    /// The TPC-C configuration the engine workloads load.
    pub fn tpcc(self) -> TpccConfig {
        match self {
            Scale::Full => TpccConfig::default(),
            Scale::Tiny => TpccConfig {
                warehouses: 4,
                ..TpccConfig::small()
            },
        }
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measured time, summed over rounds.
    pub duration: Duration,
    /// Record spans and measure each layer.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Measure {
    /// Metric name.
    pub name: &'static str,
    /// As measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Measure {
    Measure { name, value, unit }
}

/// Everything a run found.
pub struct Outcome {
    /// Every oracle passed.
    pub correct: bool,
    /// Transactions attempted (engine: committed; sharded: submitted).
    pub attempted: u64,
    /// Of those, failed (a round whose oracle fails counts wholly).
    pub failed: u64,
    /// `setup_s` and `txn_per_s`: the end-to-end metrics every workload
    /// reports.
    pub end_to_end: Vec<Measure>,
    /// End-to-end figures only some workloads have (`q3_per_s`, order
    /// latencies) and `failed_frac`.
    pub detail: Vec<Measure>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Measure>,
    /// Host and input descriptors.
    pub descriptors: Vec<(String, Json)>,
    /// Oracle failures, one line each.
    pub problems: Vec<String>,
    /// The spans of a traced run.
    pub tracer: Tracer,
}

/// Rounds and slice length for `duration`; a traced run needs an even
/// count of at least 2 so traced and untraced rounds pair up.
fn plan_rounds(duration: Duration, trace: bool) -> (usize, Duration) {
    let mut rounds = ((duration.as_secs_f64() / ROUND_SECS).round() as usize).max(1);
    if trace {
        rounds = (rounds + rounds % 2).max(2);
    }
    (rounds, duration / rounds as u32)
}

/// Every per-layer metric with its unit, in report order. A traced run
/// reports each of them; a layer the workload leaves idle reads 0.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("workload.payment_gen_ns", "ns"),
    ("strategy.stage_groups_ns", "ns"),
    ("txn.stamp_ns", "ns"),
    ("stream.inbox_ns_per_event", "ns"),
    ("component.opbatch_rtt_us", "us"),
    ("component.donebatches_per_txn", "ratio"),
    ("ops.payment_ns", "ns"),
    ("ops.neworder_ns", "ns"),
    ("morph.switches", "count"),
    ("olap.q3_shared8_ms", "ms"),
    ("olap.q3_local_ms", "ms"),
    ("storage.scan_hit_ratio", "ratio"),
    ("storage.scan_miss_rows_per_q3", "rows"),
    ("storage.orders_rows", "rows"),
    ("shard.submit_ns", "ns"),
    ("shard.cross_share", "ratio"),
    ("shard.prepares_per_cross", "ratio"),
    ("shard.retransmits", "count"),
    ("shard.cross_order_p50_us", "us"),
    ("shard.local_order_p50_us", "us"),
    ("replica.records_per_batch", "ratio"),
    ("replica.acks_per_commit", "ratio"),
    ("wal.append_ns", "ns"),
    ("common.commit_codec_ns", "ns"),
    ("common.repl_codec_ns_per_record", "ns"),
    ("stream.link_ns_per_frame", "ns"),
    ("trace.setup_s_ratio", "ratio"),
    ("trace.txn_per_s_ratio", "ratio"),
];

/// Puts `measured` in [`PER_LAYER`] order, filling the layers a workload
/// does not exercise with 0.
fn complete_layers(measured: &[Measure]) -> Vec<Measure> {
    debug_assert!(
        measured
            .iter()
            .all(|x| PER_LAYER.iter().any(|(n, _)| *n == x.name)),
        "a probe reported a metric PER_LAYER does not list"
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|x| x.name == name)
                .map_or(0.0, |x| x.value);
            m(name, value, unit)
        })
        .collect()
}

/// The seed of round `r`: splitmix64 over the run seed.
fn round_seed(seed: u64, r: usize) -> u64 {
    let mut z = seed ^ (r as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Whether round `r` of a traced run records spans (odd rounds do).
fn traced_round(trace: bool, r: usize) -> bool {
    trace && r % 2 == 1
}

/// How a workload's rounds are summarized into its `txn_per_s`.
///
/// The host's CPU steal comes in bursts of tens of seconds. It only ever
/// slows a round, and it costs the CPU-bound engine workloads several
/// times its share, so their median round measures the host; their best
/// round tracks the code. The sharded workload is bound by its nodes'
/// sleep-and-wake cycles instead. The host switches those between two
/// speeds in bursts of a few seconds, so some runs have a fast round and
/// some have none; its median round is the one that repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Summary {
    Best,
    Median,
}

impl Summary {
    fn of(self, values: &mut [f64]) -> f64 {
        match self {
            Summary::Best => best(values),
            Summary::Median => median(values),
        }
    }
}

/// Per-round end-to-end values, split by whether the round was traced.
struct RoundSeries {
    summary: Summary,
    /// Every round's throughput and host steal share, in round order.
    trail: Vec<(f64, f64)>,
    steal_at: Option<host::CpuTimes>,
    setup_s: Vec<f64>,
    txn_per_s: Vec<f64>,
    traced_setup_s: Vec<f64>,
    traced_txn_per_s: Vec<f64>,
}

impl RoundSeries {
    fn new(summary: Summary) -> Self {
        Self {
            summary,
            trail: Vec::new(),
            steal_at: None,
            setup_s: Vec::new(),
            txn_per_s: Vec::new(),
            traced_setup_s: Vec::new(),
            traced_txn_per_s: Vec::new(),
        }
    }

    /// Marks the start of a round's measured slice.
    fn start(&mut self) {
        self.steal_at = host::cpu_times();
    }

    fn push(&mut self, traced: bool, setup_s: f64, txn_per_s: f64) {
        let steal = host::steal_share(self.steal_at.take(), host::cpu_times());
        self.trail.push((txn_per_s, steal.unwrap_or(f64::NAN)));
        if traced {
            self.traced_setup_s.push(setup_s);
            self.traced_txn_per_s.push(txn_per_s);
        } else {
            self.setup_s.push(setup_s);
            self.txn_per_s.push(txn_per_s);
        }
    }

    /// The untraced rounds' median set-up and summarized throughput, plus
    /// the traced/untraced ratios of both.
    fn finish(mut self, out: &mut Outcome) {
        out.descriptors.push((
            "round_txn_per_s".into(),
            Json::Arr(self.trail.iter().map(|t| Json::Num(t.0)).collect()),
        ));
        out.descriptors.push((
            "round_steal_share".into(),
            Json::Arr(self.trail.iter().map(|t| Json::Num(t.1)).collect()),
        ));
        let setup = median(&mut self.setup_s);
        let tps = self.summary.of(&mut self.txn_per_s);
        out.end_to_end = vec![m("setup_s", setup, "s"), m("txn_per_s", tps, "1/s")];
        out.layers.push(m(
            "trace.setup_s_ratio",
            ratio(median(&mut self.traced_setup_s), setup),
            "ratio",
        ));
        out.layers.push(m(
            "trace.txn_per_s_ratio",
            ratio(self.summary.of(&mut self.traced_txn_per_s), tps),
            "ratio",
        ));
    }
}

/// `a / b`, `0` when `b` is `0`.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Runs one benchmark run. `Err` is a fault of the benchmark itself (a
/// load that cannot complete); failed oracles land in the outcome.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        end_to_end: Vec::new(),
        detail: Vec::new(),
        layers: Vec::new(),
        descriptors: Vec::new(),
        problems: Vec::new(),
        tracer: Tracer::new(cfg.trace),
    };
    let (rounds, slice) = plan_rounds(cfg.duration, cfg.trace);
    out.descriptors
        .push(("rounds".into(), Json::Int(rounds as u64)));
    out.descriptors
        .push(("round_s".into(), Json::Num(slice.as_secs_f64())));
    match cfg.workload.engine() {
        Some(w) => run_engine(cfg, &w, rounds, slice, &mut out)?,
        None => run_sharded(cfg, rounds, slice, &mut out)?,
    }
    if out.attempted == 0 {
        // Nothing ran at all: report one attempt, failed.
        out.attempted = 1;
        out.failed = 1;
        out.problems.push("no transaction was attempted".into());
    }
    out.correct = out.problems.is_empty();
    let failed_frac = ratio(out.failed as f64, out.attempted.max(1) as f64);
    out.detail.push(m("failed_frac", failed_frac, "ratio"));
    out.layers = if cfg.trace {
        complete_layers(&out.layers)
    } else {
        Vec::new()
    };
    Ok(out)
}

fn run_engine(
    cfg: &RunConfig,
    w: &EngineWorkload,
    rounds: usize,
    slice: Duration,
    out: &mut Outcome,
) -> Result<(), String> {
    let tpcc = cfg.scale.tpcc();
    let mut series = RoundSeries::new(Summary::Best);
    let mut q3_per_s = Vec::new();
    let mut switches = Vec::new();
    let mut last: Option<EngineRound> = None;
    let (mut scan, mut olap_queries) = (anydb_storage::SharedScanStats::default(), 0u64);
    let mut off = Tracer::new(false);
    for r in 0..rounds {
        let traced = traced_round(cfg.trace, r);
        let tr = if traced { &mut out.tracer } else { &mut off };
        let root = tr.begin("round", None);
        series.start();
        let round = engine::run_round(w, &tpcc, round_seed(cfg.seed, r), slice, tr, root)?;
        tr.end(root, round.result.committed);
        series.push(traced, round.setup.as_secs_f64(), round.txn_per_s());
        q3_per_s.push(round.q3_per_s());
        switches.push(round.result.switches as f64);
        scan.hits += round.scan.hits;
        scan.superset_hits += round.scan.superset_hits;
        scan.misses += round.scan.misses;
        scan.miss_rows += round.scan.miss_rows;
        olap_queries += round.result.olap_queries;
        out.attempted += round.result.committed;
        if let Err(e) = &round.oracle {
            out.failed += round.result.committed;
            out.problems.push(format!("round {r}: {e}"));
        }
        last = Some(round);
    }
    series.finish(out);
    if w.kind.has_olap() {
        out.detail.push(m("q3_per_s", best(&q3_per_s), "1/s"));
    }
    out.descriptors.push((
        "round_switches".into(),
        Json::Arr(switches.iter().map(|&n| Json::Int(n as u64)).collect()),
    ));
    if !cfg.trace {
        return Ok(());
    }
    let db = last.expect("at least one round").db;
    let served = scan.hits + scan.superset_hits;
    out.layers.extend([
        m("morph.switches", median(&mut switches), "count"),
        m(
            "storage.scan_hit_ratio",
            ratio(served as f64, (served + scan.misses) as f64),
            "ratio",
        ),
        m(
            "storage.scan_miss_rows_per_q3",
            ratio(scan.miss_rows as f64, olap_queries as f64),
            "rows",
        ),
        m(
            "storage.orders_rows",
            if w.kind.has_olap() {
                db.orders.row_count() as f64
            } else {
                0.0
            },
            "rows",
        ),
    ]);
    let root = out.tracer.begin("probes", None);
    out.layers.extend(probes::engine_layers(
        &mut out.tracer,
        root,
        w,
        &db,
        cfg.seed,
    ));
    out.tracer.end(root, 1);
    Ok(())
}

fn run_sharded(
    cfg: &RunConfig,
    rounds: usize,
    slice: Duration,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut series = RoundSeries::new(Summary::Median);
    let mut latencies_us: Vec<f64> = Vec::new();
    let mut off = Tracer::new(false);
    let mut totals = ShardTotals::default();
    let mut last = None;
    let per_round = (slice.as_secs_f64() * ORDERS_PER_SEC_CAP) as usize + sharded::WINDOW;
    for r in 0..rounds {
        let traced = traced_round(cfg.trace, r);
        let tr = if traced { &mut out.tracer } else { &mut off };
        let root = tr.begin("round", None);
        let started = std::time::Instant::now();
        let orders = tr.span("workload.neworder_gen", root, per_round as u64, || {
            sharded::generate_orders(round_seed(cfg.seed, r), per_round)
        });
        let cluster = tr.span("shard.boot", root, 1, sharded::boot);
        let setup = started.elapsed();
        series.start();
        let drive = sharded::drive(&cluster, &orders, slice, tr, root);
        let state = sharded::shutdown(cluster);
        tr.end(root, drive.acked.len() as u64);
        series.push(traced, setup.as_secs_f64(), drive.order_per_s());
        latencies_us.extend(drive.acked.iter().map(|(_, d)| d.as_secs_f64() * 1e6));
        out.attempted += drive.submitted as u64;
        let verdict = state
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|s| sharded::check(s, &orders, &drive));
        match verdict {
            Ok(()) => out.failed += (drive.failed + drive.unresolved) as u64,
            Err(e) => {
                out.failed += drive.submitted as u64;
                out.problems.push(format!("round {r}: {e}"));
            }
        }
        if let Ok(state) = state {
            totals.add(&state);
            last = Some((state, orders, drive));
        }
    }
    series.finish(out);
    // Orders are the sharded workload's transactions: its throughput
    // under the name the shard tier uses.
    let order_per_s = out.end_to_end.iter().find(|x| x.name == "txn_per_s");
    out.detail.push(m(
        "order_per_s",
        order_per_s.map_or(0.0, |x| x.value),
        "1/s",
    ));
    latencies_us.sort_by(f64::total_cmp);
    if !latencies_us.is_empty() {
        out.detail
            .push(m("order_p50_us", percentile(&latencies_us, 50_000), "us"));
        out.detail
            .push(m("order_p99_us", percentile(&latencies_us, 99_000), "us"));
    }
    if latencies_us.len() >= 10_000 {
        out.detail
            .push(m("order_p999_us", percentile(&latencies_us, 99_900), "us"));
    }
    if let Some(t) = tail_percentile(&latencies_us) {
        out.descriptors.push((
            "order_tail".into(),
            Json::obj([
                ("percentile", Json::Num(t.pct)),
                ("value_us", Json::Num(t.value)),
                ("beyond", Json::Int(t.beyond as u64)),
                ("samples", Json::Int(t.samples as u64)),
            ]),
        ));
    }
    if !cfg.trace {
        return Ok(());
    }
    let commits = totals.local + totals.cross;
    let spans = out.tracer.totals();
    let order_p50 = |name: &str| {
        let mut d: Vec<f64> = out
            .tracer
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        median(&mut d)
    };
    out.layers.extend([
        m(
            "shard.submit_ns",
            spans.get("shard.submit").map_or(0.0, |t| t.ns_per_item()),
            "ns",
        ),
        m(
            "shard.cross_share",
            ratio(totals.cross as f64, commits as f64),
            "ratio",
        ),
        m(
            "shard.prepares_per_cross",
            ratio(totals.prepares as f64, totals.cross as f64),
            "ratio",
        ),
        m("shard.retransmits", totals.retransmits as f64, "count"),
        m(
            "shard.cross_order_p50_us",
            order_p50("shard.order.cross"),
            "us",
        ),
        m(
            "shard.local_order_p50_us",
            order_p50("shard.order.local"),
            "us",
        ),
        m(
            "replica.records_per_batch",
            ratio(totals.wal_records as f64, totals.batches as f64),
            "ratio",
        ),
        m(
            "replica.acks_per_commit",
            ratio(totals.acks as f64, commits as f64),
            "ratio",
        ),
    ]);
    if let Some((state, orders, drive)) = last {
        let root = out.tracer.begin("probes", None);
        out.layers.extend(probes::shard_layers(
            &mut out.tracer,
            root,
            &state,
            &orders,
            &drive,
        ));
        out.tracer.end(root, 1);
    }
    Ok(())
}

/// Shard and replication counters summed over a run's rounds.
#[derive(Default)]
struct ShardTotals {
    local: u64,
    cross: u64,
    prepares: u64,
    retransmits: u64,
    acks: u64,
    batches: u64,
    wal_records: u64,
}

impl ShardTotals {
    fn add(&mut self, s: &sharded::ClusterState) {
        for mt in &s.metrics {
            self.local += mt.local_commits.get();
            self.cross += mt.cross_commits.get();
            self.prepares += mt.prepares.get();
            self.retransmits += mt.retransmits.get();
            self.acks += mt.repl.acks.get();
            self.batches += mt.repl.batches_shipped.get();
        }
        self.wal_records += s.wals.iter().map(|w| w.len() as u64).sum::<u64>();
    }
}
