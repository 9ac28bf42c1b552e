//! The benchmark's own checks: every workload passes its oracle at tiny
//! size, span self time subtracts the union of the children, and the
//! tail-percentile helper picks the highest percentile its sample
//! supports.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::time::Duration;

use anydb_perfbench::run::{run, RunConfig, Scale, Workload, PER_LAYER};
use anydb_perfbench::stats::{tail_percentile, TAIL_MIN_BEYOND};
use anydb_perfbench::trace::{self_times, Span};

fn tiny(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: 7,
        duration: Duration::from_millis(400),
        trace,
        scale: Scale::Tiny,
    }
}

#[test]
fn every_workload_passes_its_oracle_at_tiny_size() {
    for w in Workload::ALL {
        let out = run(&tiny(w, false)).expect("run");
        assert!(out.correct, "{}: {:?}", w.name(), out.problems);
        assert!(out.attempted > 0, "{}: nothing attempted", w.name());
        assert_eq!(out.failed, 0, "{}", w.name());
        let names: Vec<_> = out.end_to_end.iter().map(|m| m.name).collect();
        assert_eq!(names, ["setup_s", "txn_per_s"], "{}", w.name());
        assert!(
            out.end_to_end.iter().all(|m| m.value > 0.0),
            "{}: {:?}",
            w.name(),
            out.end_to_end
        );
    }
}

#[test]
fn traced_runs_report_every_layer_metric() {
    for w in Workload::ALL {
        let out = run(&tiny(w, true)).expect("run");
        assert!(out.correct, "{}: {:?}", w.name(), out.problems);
        let names: Vec<_> = out.layers.iter().map(|m| m.name).collect();
        let want: Vec<_> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{}", w.name());
        assert!(!out.tracer.spans().is_empty(), "{}: no spans", w.name());
        let ratio = out
            .layers
            .iter()
            .find(|m| m.name == "trace.txn_per_s_ratio");
        assert!(ratio.is_some_and(|m| m.value > 0.0), "{}", w.name());
    }
}

#[test]
fn order_lists_repeat_per_seed() {
    use anydb_perfbench::sharded::generate_orders;
    assert_eq!(generate_orders(3, 50), generate_orders(3, 50));
    assert_ne!(generate_orders(3, 50), generate_orders(4, 50));
}

fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name: "t",
        parent,
        start_ns,
        end_ns,
        count: 1,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span(None, 0, 100),     // 0: root
        span(Some(0), 10, 30),  // 1: child
        span(Some(0), 20, 50),  // 2: overlaps child 1 by 10
        span(Some(0), 45, 60),  // 3: overlaps child 2 by 5
        span(Some(0), 90, 130), // 4: runs past the root's end
        span(Some(1), 12, 18),  // 5: grandchild: not the root's child
    ];
    let own = self_times(&spans);
    // Children cover [10, 60) and [90, 100): 60 of the root's 100 ns.
    assert_eq!(own[0], 40);
    // Child 1 loses its own child's 6 ns; the leaves keep everything.
    assert_eq!(own[1], 14);
    assert_eq!(own[2], 30);
    assert_eq!(own[3], 15);
    assert_eq!(own[4], 40);
    assert_eq!(own[5], 6);
}

#[test]
fn self_time_with_nested_and_identical_children() {
    let spans = vec![
        span(None, 0, 50),
        span(Some(0), 5, 25),
        span(Some(0), 5, 25),  // identical to the first child
        span(Some(0), 10, 20), // inside the first child
    ];
    assert_eq!(self_times(&spans)[0], 30);
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    let sample = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };

    // 10 000 samples: p99.9 is the 9990th value, 10 beyond it.
    let t = tail_percentile(&sample(10_000)).unwrap();
    assert_eq!(
        (t.pct, t.value, t.beyond, t.samples),
        (99.9, 9990.0, 10, 10_000)
    );

    // One fewer and p99.9 has only 9 beyond: fall back to p99.
    let t = tail_percentile(&sample(9_999)).unwrap();
    assert_eq!((t.pct, t.beyond, t.samples), (99.0, 99, 9_999));

    // 100 000 samples support p99.99.
    let t = tail_percentile(&sample(100_000)).unwrap();
    assert_eq!((t.pct, t.value, t.beyond), (99.99, 99_990.0, 10));

    // 100 samples: p90 has exactly 10 beyond.
    let t = tail_percentile(&sample(100)).unwrap();
    assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));

    // 20 samples: only the median qualifies; 19 cannot support even that.
    let t = tail_percentile(&sample(20)).unwrap();
    assert_eq!((t.pct, t.beyond), (50.0, 10));
    assert!(tail_percentile(&sample(19)).is_none());
    assert!(tail_percentile(&[]).is_none());

    for n in [20, 99, 1_000, 12_345] {
        let t = tail_percentile(&sample(n)).unwrap();
        assert!(t.beyond >= TAIL_MIN_BEYOND, "n={n}: {t:?}");
    }
}
