//! Turns runs into the reported metrics and prints them as JSON.

use crate::measure::{mean, median, quantile, ratio, span_walls, Span};
use crate::{micro, RunOut};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics of an untraced run; `setup_s` is the median of
/// the set-up samples, `peak_rss_mib` the process's peak after the run.
pub fn end_to_end(run: &RunOut, setup_samples: &[f64], peak_rss_mib: f64) -> Vec<Metric> {
    let vns = run.chunk_vns();
    vec![
        m("vtime_s", run.vtime_ns() * 1e-9, "s"),
        m("op_vns_p50", median(&vns), "ns"),
        m("op_vns_p99", quantile(&vns, 0.99), "ns"),
        m("ops_per_s", run.ops_per_s(), "ops/s"),
        m("setup_s", median(setup_samples), "s"),
        m("peak_rss_mib", peak_rss_mib, "MiB"),
    ]
}

/// Median wall ns of `layer`'s `name` spans; 0 when the workload makes
/// no such call.
fn med(spans: &[Span], layer: &str, name: &str) -> f64 {
    median(&span_walls(spans, layer, name))
}

/// The per-layer metrics of a traced run. `untraced` is the same
/// workload with tracing off, `fompi` the same with the cache disabled.
pub fn per_layer(untraced: &RunOut, traced: &RunOut, fompi: &RunOut) -> Vec<Metric> {
    let d = traced.delta();
    let (dht, c, sim, clk) = (&d.dht, &d.cache, &d.ops, &d.clock);
    let ops = traced.prefix_ops() as f64;
    let spans = traced.spans();
    let per_op = |x: f64| ratio(x, ops);
    let gets = c.total_gets as f64;
    let rounds = span_walls(&spans, "app", "validate").len() as f64;

    // Wall-time split of the front (micro-capacity only): the front's
    // mean minus the engine and simulator means, weighted by the
    // stream's hit/miss mix.
    let front = span_walls(&spans, "front", "get");
    let engine = micro::engine_ops(&spans);
    let eng_hit: Vec<f64> = engine.iter().filter(|o| o.0).map(|o| o.1).collect();
    let eng_miss: Vec<f64> = engine.iter().filter(|o| !o.0).map(|o| o.1).collect();
    let sim_get = span_walls(&spans, "sim", "get_flush");
    let front_self = if front.is_empty() || engine.is_empty() {
        0.0
    } else {
        let n = front.len() as f64;
        let (h, miss) = (eng_hit.len() as f64 / n, eng_miss.len() as f64 / n);
        mean(&front) - h * mean(&eng_hit) - miss * (mean(&eng_miss) + mean(&sim_get))
    };

    vec![
        m("app.lookup_ns", med(&spans, "app", "lookup"), "ns"),
        m("app.multi_get_ns", med(&spans, "app", "multi_get"), "ns"),
        m("app.insert_ns", med(&spans, "app", "insert"), "ns"),
        m("app.validate_ns", med(&spans, "app", "validate"), "ns"),
        m(
            "app.gets_per_lookup",
            ratio(dht.bucket_gets as f64, dht.lookups as f64),
            "count",
        ),
        m(
            "app.loc_hit_ratio",
            ratio(dht.loc_hits as f64, dht.lookups as f64),
            "ratio",
        ),
        m(
            "app.batch_fallback_ratio",
            ratio(
                dht.multi_get_fallbacks as f64,
                (dht.multi_get_hits + dht.multi_get_fallbacks) as f64,
            ),
            "ratio",
        ),
        m("front.get_ns_p50", median(&front), "ns"),
        m("front.get_ns_p99", quantile(&front, 0.99), "ns"),
        m("front.self_ns", front_self, "ns"),
        m(
            "snap.refetch_ratio",
            ratio(c.snapshot_refetches as f64, c.snapshot_gets as f64),
            "ratio",
        ),
        m("snap.aborts", c.snapshot_aborts as f64, "count"),
        m(
            "snap.staleness_vns",
            ratio(c.snapshot_staleness_ns as f64, dht.multi_gets as f64),
            "ns",
        ),
        m(
            "coh.drained_per_round",
            ratio(c.notifications_drained as f64, rounds),
            "count",
        ),
        m(
            "coh.invalidated_per_round",
            ratio(c.stale_hits_prevented as f64, rounds),
            "count",
        ),
        m("coh.overflows", c.notification_overflows as f64, "count"),
        m("engine.hit_ratio", ratio(c.hits as f64, gets), "ratio"),
        m("engine.direct_ratio", ratio(c.direct as f64, gets), "ratio"),
        m(
            "engine.conflicting_ratio",
            ratio(c.conflicting as f64, gets),
            "ratio",
        ),
        m(
            "engine.capacity_ratio",
            ratio(c.capacity as f64, gets),
            "ratio",
        ),
        m("engine.failed_ratio", ratio(c.failed as f64, gets), "ratio"),
        m(
            "engine.slots_per_eviction",
            ratio(c.visited_slots as f64, c.evictions as f64),
            "count",
        ),
        m("engine.hit_ns", median(&eng_hit), "ns"),
        m("engine.miss_ns", median(&eng_miss), "ns"),
        m(
            "engine.bytes_from_cache_per_op",
            per_op(c.bytes_from_cache as f64),
            "B/op",
        ),
        m("sim.gets_per_op", per_op(sim.gets as f64), "count/op"),
        m("sim.bytes_per_op", per_op(sim.bytes_get as f64), "B/op"),
        m("sim.puts_per_op", per_op(sim.puts as f64), "count/op"),
        m("sim.flushes_per_op", per_op(sim.flushes as f64), "count/op"),
        m("sim.get_ns", median(&sim_get), "ns"),
        m("vt.cpu_ns_per_op", per_op(clk.cpu), "ns/op"),
        m("vt.blocked_ns_per_op", per_op(clk.blocked), "ns/op"),
        m("vt.wire_ns_per_op", per_op(clk.wire), "ns/op"),
        m("vt.unaccounted_ns", traced.unaccounted_ns(), "ns"),
        m("host.raw_ops_per_s", untraced.raw_ops_per_s(), "ops/s"),
        m("host.ref_ns", untraced.ref_s() * 1e9, "ns"),
        m("fompi.vtime_s", fompi.vtime_ns() * 1e-9, "s"),
        m("fompi.ops_per_s", fompi.ops_per_s(), "ops/s"),
        m(
            "trace.overhead",
            ratio(untraced.prefix_ops_per_s(), traced.prefix_ops_per_s()),
            "x",
        ),
    ]
}

/// A JSON number with every digit of Rust's shortest round-trip form.
pub fn num(x: f64) -> String {
    format!("{x:?}")
}

/// A JSON string; the benchmark's own names and units need no escapes.
pub fn string(s: &str) -> String {
    format!("\"{s}\"")
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(x.name),
                num(x.value),
                string(x.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
