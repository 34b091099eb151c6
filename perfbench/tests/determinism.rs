//! The benchmark's own checks: the seed reaches only the generators, so
//! one seed repeats every virtual-clock metric and counter bit for bit,
//! another seed changes them; tracing observes without perturbing; and
//! virtual time is fully accounted for by CPU charges and blocking.

use perfbench::report::end_to_end;
use perfbench::{run, RunCfg, RunOut, Scale, Workload};
use std::time::Duration;

fn cfg(seed: u64) -> RunCfg {
    RunCfg {
        seed,
        scale: Scale::Tiny,
        cached: true,
        budget: Duration::ZERO,
        trace: false,
        setup_only: false,
    }
}

/// The virtual-clock end-to-end metrics: `vtime_s`, `op_vns_p50`,
/// `op_vns_p99` (the first three of `end_to_end`).
fn virtual_metrics(r: &RunOut) -> Vec<u64> {
    end_to_end(r, &[1.0], 1.0)[..3]
        .iter()
        .map(|m| m.value.to_bits())
        .collect()
}

/// Every per-layer count the trace differences, per rank.
fn counts(r: &RunOut) -> Vec<String> {
    r.ranks
        .iter()
        .map(|k| {
            let d = &k.delta;
            format!(
                "{:?} {:?} {:?} {:?} {:?} {:?}",
                d.dht,
                d.cache,
                d.ops,
                d.clock.now.to_bits(),
                d.clock.cpu.to_bits(),
                d.clock.wire.to_bits()
            )
        })
        .collect()
}

#[test]
fn one_seed_repeats_and_another_changes_every_virtual_metric() {
    for w in Workload::ALL {
        let a = run(w, &cfg(7));
        let b = run(w, &cfg(7));
        let c = run(w, &cfg(8));
        for r in [&a, &b, &c] {
            assert_eq!(r.failed(), 0, "{}: checks failed", w.name());
            assert!(r.prefix_ops() > 0, "{}: empty prefix", w.name());
        }
        assert_eq!(virtual_metrics(&a), virtual_metrics(&b), "{}", w.name());
        assert_eq!(counts(&a), counts(&b), "{}", w.name());
        let (va, vc) = (virtual_metrics(&a), virtual_metrics(&c));
        assert!(
            va.iter().zip(&vc).all(|(x, y)| x != y),
            "{}: seed 8 left a virtual metric unchanged",
            w.name()
        );
        assert_ne!(counts(&a), counts(&c), "{}", w.name());
    }
}

#[test]
fn tracing_leaves_virtual_time_and_counters_unchanged() {
    for w in Workload::ALL {
        let plain = run(w, &cfg(3));
        let traced = run(
            w,
            &RunCfg {
                trace: true,
                ..cfg(3)
            },
        );
        assert_eq!(
            virtual_metrics(&plain),
            virtual_metrics(&traced),
            "{}",
            w.name()
        );
        assert_eq!(counts(&plain), counts(&traced), "{}", w.name());
        assert!(
            traced.spans().len() as u64 >= traced.prefix_ops() / 16,
            "{}",
            w.name()
        );
        assert!(plain.spans().is_empty(), "{}", w.name());
    }
}

#[test]
fn virtual_time_is_cpu_plus_blocked() {
    for w in Workload::ALL {
        let r = run(w, &cfg(5));
        let scale = r.vtime_ns().max(1.0);
        assert!(
            r.unaccounted_ns() <= scale * 1e-12,
            "{}: {} ns of virtual time unaccounted",
            w.name(),
            r.unaccounted_ns()
        );
    }
}

#[test]
fn uncached_baseline_is_correct_and_never_hits() {
    for w in Workload::ALL {
        let cached = run(w, &cfg(2));
        let fompi = run(
            w,
            &RunCfg {
                cached: false,
                ..cfg(2)
            },
        );
        assert_eq!(fompi.failed(), 0, "{}", w.name());
        assert_eq!(fompi.delta().cache.hits, 0, "{}", w.name());
        assert!(cached.delta().cache.hits > 0, "{}", w.name());
        assert!(fompi.vtime_ns() > 0.0, "{}", w.name());
    }
}

#[test]
fn ranks_take_turns_after_the_prefix_without_changing_it() {
    for w in Workload::ALL {
        let prefix_only = run(w, &cfg(4));
        let extended = run(
            w,
            &RunCfg {
                budget: Duration::from_millis(300),
                ..cfg(4)
            },
        );
        assert_eq!(extended.failed(), 0, "{}: checks failed", w.name());
        assert!(extended.ops() > extended.prefix_ops(), "{}", w.name());
        assert_eq!(
            virtual_metrics(&prefix_only),
            virtual_metrics(&extended),
            "{}",
            w.name()
        );
        assert_eq!(counts(&prefix_only), counts(&extended), "{}", w.name());
        assert!(
            prefix_only.ranks.iter().all(|r| r.rates.is_empty()),
            "{}: host chunks without an extension",
            w.name()
        );
        let rate = extended.ops_per_s();
        assert!(rate.is_finite() && rate > 0.0, "{}: {rate}", w.name());
        assert!(extended.ref_s() > 0.0, "{}: no reference kernel", w.name());
        assert_eq!(prefix_only.ref_s(), 0.0, "{}", w.name());
    }
}

#[test]
fn setup_only_runs_stop_before_the_timed_phase() {
    for w in Workload::ALL {
        let r = run(
            w,
            &RunCfg {
                setup_only: true,
                ..cfg(1)
            },
        );
        assert!(r.setup_s() > 0.0, "{}", w.name());
        assert_eq!(r.ops(), 0, "{}", w.name());
        assert_eq!(r.failed(), 0, "{}", w.name());
    }
}

/// `(name, unit)` of every metric listed in the root `BENCHMARK.json`
/// section `section` (`end_to_end` or `per_layer`).
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = &entry[..entry.find('"').expect("name ends")];
            let unit = entry.split("\"unit\": \"").nth(1).expect("unit present");
            (
                name.to_string(),
                unit[..unit.find('"').expect("unit ends")].to_string(),
            )
        })
        .collect()
}

#[test]
fn reported_metrics_match_benchmark_json() {
    let r = run(Workload::DhtZipf, &cfg(1));
    let pairs = |ms: Vec<perfbench::report::Metric>| -> Vec<(String, String)> {
        ms.into_iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    assert_eq!(pairs(end_to_end(&r, &[1.0], 1.0)), listed("end_to_end"));
    assert_eq!(
        pairs(perfbench::report::per_layer(&r, &r, &r)),
        listed("per_layer")
    );
}
