//! The two engine workloads, driven through `AnyDbEngine::run_phase` with
//! live morphing on, and their oracles.

use std::sync::Arc;
use std::time::{Duration, Instant};

use anydb_core::olap::{collect_table, exec_q3_local};
use anydb_core::{AnyDbEngine, EngineConfig, MorphConfig, PhaseResult, Strategy};
use anydb_storage::table::SharedScanStats;
use anydb_workload::chbench::{reference_q3, Q3Spec};
use anydb_workload::phases::PhaseKind;
use anydb_workload::tpcc::cols::{district, warehouse};
use anydb_workload::tpcc::{TpccConfig, TpccDb};

use crate::trace::{SpanId, Tracer};

/// One engine workload: a phase regime and its payment share.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EngineWorkload {
    /// Warehouse distribution and OLAP stream of the phase.
    pub kind: PhaseKind,
    /// Share of payments in the OLTP mix; the rest are new-orders.
    pub payment_fraction: f64,
}

/// TPC-C payments, all on warehouse 1 of 4.
pub(crate) const OLTP_SKEWED: EngineWorkload = EngineWorkload {
    kind: PhaseKind::OltpSkewed,
    payment_fraction: 1.0,
};

/// Uniform payments and new-orders, half each, beside a CH-Q3 stream.
pub(crate) const HTAP_NEWORDER: EngineWorkload = EngineWorkload {
    kind: PhaseKind::HtapPartitionable,
    payment_fraction: 0.5,
};

/// The engine shape both workloads run: 2 ACs, 1 driver, 32
/// transactions in flight, morphing on from `SharedNothing`.
fn engine_config(w: &EngineWorkload) -> EngineConfig {
    EngineConfig {
        strategy: Strategy::SharedNothing,
        acs: 2,
        drivers: 1,
        window: 32,
        payment_fraction: w.payment_fraction,
        morph: Some(MorphConfig::default()),
        ..EngineConfig::default()
    }
}

/// The Q3 parameter windows the engine's OLAP driver rotates through,
/// checked against the reference oracle after every HTAP round.
pub(crate) const Q3_WINDOWS: [Q3Spec; 4] = [
    q3_until(20081231),
    q3_until(20101231),
    q3_until(20121231),
    q3_until(i64::MAX),
];

const fn q3_until(entry_date_max: i64) -> Q3Spec {
    Q3Spec {
        state_prefix: 'A',
        entry_date_min: 20070101,
        entry_date_max,
    }
}

/// What one load-and-run round produced.
pub(crate) struct EngineRound {
    /// Time to load the database.
    pub setup: Duration,
    /// The phase result.
    pub result: PhaseResult,
    /// `Err` names the first oracle that failed.
    pub oracle: Result<(), String>,
    /// Shared-scan outcomes over the three Q3 tables during the phase.
    pub scan: SharedScanStats,
    /// The database as the phase left it.
    pub db: Arc<TpccDb>,
}

impl EngineRound {
    /// Committed transactions per second.
    pub fn txn_per_s(&self) -> f64 {
        self.result.tx_per_sec()
    }

    /// Completed Q3 queries per second.
    pub fn q3_per_s(&self) -> f64 {
        let secs = self.result.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.result.olap_queries as f64 / secs
        } else {
            0.0
        }
    }
}

/// Loads a database from `seed`, runs the phase for `slice`, and checks
/// the oracles.
pub(crate) fn run_round(
    w: &EngineWorkload,
    tpcc: &TpccConfig,
    seed: u64,
    slice: Duration,
    tr: &mut Tracer,
    parent: Option<SpanId>,
) -> Result<EngineRound, String> {
    let started = Instant::now();
    let db = tr
        .span("workload.load", parent, 1, || {
            TpccDb::load(tpcc.clone(), seed)
        })
        .map_err(|e| format!("TPC-C load failed: {e:?}"))?;
    let setup = started.elapsed();
    let db = Arc::new(db);
    let ytd_before = ytd_sums(&db);
    let scan_before = q3_scan_stats(&db);
    let engine = AnyDbEngine::new(Arc::clone(&db), engine_config(w));
    let result = tr.span("engine.run_phase", parent, 1, || {
        engine.run_phase(w.kind, slice, seed)
    });
    let scan = scan_delta(scan_before, q3_scan_stats(&db));
    let oracle = tr.span("oracle.engine", parent, 1, || {
        check_round(w, &db, ytd_before, &result)
    });
    Ok(EngineRound {
        setup,
        result,
        oracle,
        scan,
        db,
    })
}

/// Checks one round: work happened, payments moved warehouse and
/// district YTD by the same amount, and (with OLAP) every Q3 window
/// agrees with the row-level reference.
fn check_round(
    w: &EngineWorkload,
    db: &TpccDb,
    ytd_before: (f64, f64),
    result: &PhaseResult,
) -> Result<(), String> {
    if result.committed == 0 {
        return Err("no transaction committed".into());
    }
    let (w1, d1) = ytd_sums(db);
    let (dw, dd) = (w1 - ytd_before.0, d1 - ytd_before.1);
    if w.payment_fraction > 0.0 && dw <= 0.0 {
        return Err(format!("payments never reached W_YTD (delta {dw})"));
    }
    let tol = 1e-9 * dw.abs().max(dd.abs()).max(1.0);
    if (dw - dd).abs() > tol {
        return Err(format!("sum(W_YTD) moved by {dw} but sum(D_YTD) by {dd}"));
    }
    if w.kind.has_olap() {
        if result.olap_queries == 0 {
            return Err("no Q3 query completed".into());
        }
        let customers = collect_table(&db.customer);
        let orders = collect_table(&db.orders);
        let neworders = collect_table(&db.neworder);
        for spec in &Q3_WINDOWS {
            let got = exec_q3_local(db, spec);
            let want = reference_q3(spec, &customers, &orders, &neworders);
            if got != want {
                return Err(format!(
                    "Q3 until {} returned {got} rows, reference {want}",
                    spec.entry_date_max
                ));
            }
        }
    }
    Ok(())
}

/// `(sum W_YTD, sum D_YTD)` over every warehouse and district.
fn ytd_sums(db: &TpccDb) -> (f64, f64) {
    let sum = |rows: Vec<anydb_common::Tuple>, col: usize| -> f64 {
        rows.iter()
            .map(|t| t.get(col).as_float().unwrap_or(0.0))
            .sum()
    };
    (
        sum(collect_table(&db.warehouse), warehouse::W_YTD),
        sum(collect_table(&db.district), district::D_YTD),
    )
}

/// Shared-scan counters summed over the tables Q3 reads.
fn q3_scan_stats(db: &TpccDb) -> SharedScanStats {
    [&db.customer, &db.orders, &db.neworder]
        .iter()
        .map(|t| t.shared_scan_stats())
        .fold(SharedScanStats::default(), |a, s| SharedScanStats {
            hits: a.hits + s.hits,
            superset_hits: a.superset_hits + s.superset_hits,
            misses: a.misses + s.misses,
            miss_rows: a.miss_rows + s.miss_rows,
        })
}

/// Counter growth from `before` to `after`.
fn scan_delta(before: SharedScanStats, after: SharedScanStats) -> SharedScanStats {
    SharedScanStats {
        hits: after.hits - before.hits,
        superset_hits: after.superset_hits - before.superset_hits,
        misses: after.misses - before.misses,
        miss_rows: after.miss_rows - before.miss_rows,
    }
}
