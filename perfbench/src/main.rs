//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The
//! line before it is the run's context (sizes, sample counts, host).
//! Traced runs also write the spans of their first ops to
//! `perfbench-out/<workload>.spans.tsv`. Exits 1 when a check failed.

use perfbench::report::{end_to_end, num, per_layer, result_line, string};
use perfbench::{
    measure, run, RunCfg, RunOut, Scale, Workload, RANKS, RATE_QUANTILE, VIRT_CHUNK, WALL_CHUNK,
};
use std::process::ExitCode;
use std::time::Duration;

/// Set-up samples per untraced invocation (`setup_s` is their median).
const SETUP_SAMPLES: usize = 5;

/// Ops per rank whose spans go to the spans file (the metrics use all).
const SPAN_FILE_OPS: u64 = 20_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <dht-zipf|micro-capacity|dht-churn> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // Built before any run, so no set-up or chunk pays for it.
    measure::ref_table();
    let base = RunCfg {
        seed: args.seed,
        scale: Scale::Full,
        cached: true,
        budget: Duration::from_secs_f64(args.seconds),
        trace: false,
        setup_only: false,
    };
    let w = args.workload;
    let (metrics, runs, setup_samples) = if args.trace {
        // Untraced and uncached runs share the budget; the traced run
        // measures its prefix only, every call of it traced. A set-up-only
        // run goes first so that neither the untraced nor the traced run
        // is the first in the process, which runs at a different speed.
        let half = base.budget / 2;
        let first = run(
            w,
            &RunCfg {
                setup_only: true,
                ..base
            },
        );
        let untraced = run(
            w,
            &RunCfg {
                budget: half,
                ..base
            },
        );
        let traced = run(
            w,
            &RunCfg {
                budget: Duration::ZERO,
                trace: true,
                ..base
            },
        );
        let fompi = run(
            w,
            &RunCfg {
                budget: half,
                cached: false,
                ..base
            },
        );
        let metrics = per_layer(&untraced, &traced, &fompi);
        let path = std::path::PathBuf::from(format!("perfbench-out/{}.spans.tsv", w.name()));
        let head: Vec<_> = traced
            .spans()
            .into_iter()
            .filter(|s| s.op < SPAN_FILE_OPS)
            .collect();
        if let Err(e) = measure::write_spans(&path, &head) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
        let setups = vec![
            first.setup_s(),
            untraced.setup_s(),
            traced.setup_s(),
            fompi.setup_s(),
        ];
        (metrics, vec![first, untraced, fompi, traced], setups)
    } else {
        // The timed run goes first, in a fresh process, so its peak
        // memory is read before later set-ups grow the allocator's pools.
        let timed = run(w, &base);
        let peak_rss = measure::peak_rss_mib() - (measure::REF_TABLE_BYTES >> 20) as f64;
        let mut setups = vec![timed.setup_s()];
        let mut runs = Vec::new();
        for _ in 1..SETUP_SAMPLES {
            let r = run(
                w,
                &RunCfg {
                    setup_only: true,
                    ..base
                },
            );
            setups.push(r.setup_s());
            runs.push(r);
        }
        let metrics = end_to_end(&timed, &setups, peak_rss);
        runs.push(timed);
        (metrics, runs, setups)
    };

    let attempted: u64 = runs.iter().map(RunOut::ops).sum();
    let failed: u64 = runs.iter().map(RunOut::failed).sum();
    println!(
        "{}",
        context(&args, &runs, &setup_samples, failed, attempted)
    );
    let correct = failed == 0 && attempted > 0;
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The run's context as one JSON object: host, load, sizes and sample
/// counts of the last (timed or traced) run, and whether the cache
/// storage holds the workload's distinct bytes.
fn context(args: &Args, runs: &[RunOut], setups: &[f64], failed: u64, attempted: u64) -> String {
    let timed = runs.last().expect("at least one run");
    let first = &timed.ranks[0];
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let wall_chunks: usize = timed.ranks.iter().map(|r| r.rates.len()).sum();
    let fields: Vec<(&str, String)> = vec![
        ("workload", string(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", num(args.seconds)),
        ("trace", args.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("rank_threads", RANKS.to_string()),
        ("loop", string("closed")),
        ("prefix_ops", timed.prefix_ops().to_string()),
        ("timed_ops", timed.ops().to_string()),
        ("wall_chunk_ops", WALL_CHUNK.to_string()),
        ("virt_chunk_ops", VIRT_CHUNK.to_string()),
        ("wall_chunks", wall_chunks.to_string()),
        ("rate_quantile", num(RATE_QUANTILE)),
        ("pinned", timed.ranks.iter().any(|r| r.pinned).to_string()),
        ("ref_nominal_s", num(measure::REF_NOMINAL_S)),
        ("ref_s", num(timed.ref_s())),
        ("virt_chunks", timed.chunk_vns().len().to_string()),
        ("setup_samples", setups.len().to_string()),
        ("spans", timed.spans().len().to_string()),
        ("storage_bytes", first.storage_bytes.to_string()),
        ("distinct_bytes", first.distinct_bytes.to_string()),
        (
            "storage_holds_distinct",
            (first.storage_bytes >= first.distinct_bytes).to_string(),
        ),
        (
            "fail_ratio",
            num(measure::ratio(failed as f64, attempted as f64)),
        ),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{\"context\": {{{}}}}}", body.join(", "))
}
