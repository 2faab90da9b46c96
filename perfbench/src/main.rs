//! The repository benchmark: one command per workload, printing every
//! metric by name and unit, with every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bkrus-large|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones; the line before it records the host the numbers came from.
//! See `perfbench/README.md` for what each metric means on each workload.

mod batch;
mod check;
mod gen;
mod layers;
mod serve;
mod stats;

use std::process::{Command, ExitCode};

use stats::Metrics;

/// Metrics reported with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("terminals_per_s", "1/s"),
    ("wirelength_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
];

/// Metrics reported with `--trace 1`; a layer a workload never reaches
/// reports 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("router.netlist.parse_s", "s"),
    ("router.netlist.mb_per_s", "MB/s"),
    ("core.context.s", "s"),
    ("core.build_s.bkrus", "s"),
    ("core.build_s.bprim", "s"),
    ("core.build_s.brbc", "s"),
    ("core.build_s.steiner", "s"),
    ("bkrus.edges_scanned", "count"),
    ("bkrus.rejected_cycle", "count"),
    ("bkrus.rejected_bound", "count"),
    ("bkrus.edges_accepted", "count"),
    ("bkrus.accept_ratio", "ratio"),
    ("forest.cond3a.accept", "count"),
    ("forest.cond3a.reject", "count"),
    ("forest.cond3b.accept", "count"),
    ("forest.cond3b.reject", "count"),
    ("forest.merge.cross_pairs.sum", "count"),
    ("router.route_s", "s"),
    ("router.route.overhead_s", "s"),
    ("router.relaxations", "count"),
    ("router.spt_fallbacks", "count"),
    ("router.failed_nets", "count"),
    ("router.report.render_s", "s"),
    ("router.parallel_speedup", "x"),
    ("router.deadline_overrun_ms.bkrus", "ms"),
    ("router.deadline_overrun_ms.bprim", "ms"),
    ("router.deadline_overrun_ms.steiner", "ms"),
    ("serve.protocol.parse_s", "s"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.queue.wait_ms.p50", "ms"),
    ("serve.queue.wait_ms.p99", "ms"),
    ("serve.queue.depth_max", "count"),
    ("serve.shed", "count"),
    ("serve.socket.rtt_us", "us"),
    ("serve.load.low.p50_ms", "ms"),
    ("serve.load.low.p99_ms", "ms"),
    ("serve.load.high.p50_ms", "ms"),
    ("serve.load.high.p99_ms", "ms"),
    ("serve.load.high.samples", "count"),
    ("serve.saturation_rps", "1/s"),
    ("gen.lag_ms.p99", "ms"),
    ("trace.overhead", "x"),
    ("trace.layer_sum_ratio", "x"),
];

/// What a workload run produced before its metrics are filtered.
#[derive(Debug)]
pub struct Outcome {
    /// Operations issued: nets for the batch workload, requests for serve.
    pub attempted: u64,
    /// Operations whose result was wrong or missing.
    pub failed: u64,
    /// Every metric the run measured.
    pub metrics: Metrics,
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args);
    // Never look for a repository above the working directory.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let outcome = match args.workload.as_str() {
        "bkrus-large" => batch::run(&gen::bkrus_large(args.seed), args.seconds, args.trace, jobs),
        "serve-mixed" => serve::run(args.seed, args.seconds, args.trace, jobs),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{{\"host\":{{\"nproc\":{jobs},\"rustc\":{},\"commit\":{}}},\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{}}}",
        bmst_obs::json::escape(&command_line("rustc", &["-V"])),
        bmst_obs::json::escape(&command_line("git", &["rev-parse", "HEAD"])),
        args.workload,
        args.seed,
        args.seconds,
        args.trace
    );
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let (correct, line) = result_line(outcome, names);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The run's result line, and whether every check passed. A failed
/// check reports `"correct": false` with no metrics.
fn result_line(outcome: Result<Outcome, String>, names: &[(&str, &'static str)]) -> (bool, String) {
    let (correct, outcome) = match outcome {
        Ok(o) => (true, o),
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            let failed = Outcome {
                attempted: 1,
                failed: 1,
                metrics: Metrics::default(),
            };
            (false, failed)
        }
    };
    let metrics = if correct {
        outcome.metrics.select(names)
    } else {
        Metrics::default()
    };
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.to_json()
    );
    (correct, line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmst_obs::json::Json;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
        Json::parse(&text).expect("BENCHMARK.json is valid JSON")
    }

    fn names(m: &Json, key: &str) -> Vec<(String, String)> {
        m.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|e| {
                let s = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn manifest_lists_exactly_the_printed_metrics() {
        let m = manifest();
        assert_eq!(names(&m, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names(&m, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = m
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, ["bkrus-large", "serve-mixed"]);
    }

    #[test]
    fn a_failed_check_fails_the_run() {
        let text = "net detour critical\n0 0\n10 0\n9 5\nend\n";
        let netlist = bmst_router::Netlist::from_str_block(text).unwrap();
        let mut report = netlist.route(&bmst_router::RouterConfig::default());
        let clean = check::audit_report(&netlist, &report);
        let ok = |r: Result<(), String>| {
            r.map(|()| Outcome {
                attempted: 1,
                failed: 0,
                metrics: Metrics::default(),
            })
        };
        assert!(result_line(ok(clean), &END_TO_END).0);
        // A corrupted tree: the MST breaks the critical net's bound.
        report.nets[0].tree = bmst_core::mst_tree(&netlist.nets[0].net);
        let (correct, line) = result_line(ok(check::audit_report(&netlist, &report)), &END_TO_END);
        assert!(!correct);
        assert!(line.starts_with("{\"correct\":false"), "{line}");
        // A duplicated response line.
        let r =
            check::parse_response("{\"id\":1,\"ok\":true,\"cached\":false,\"report\":{}}").unwrap();
        let dup = check::check_responses(&[1], &[r.clone(), r]);
        assert!(!result_line(ok(dup), &END_TO_END).0);
    }

    #[test]
    fn select_reports_every_name_and_zero_for_unreached_layers() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.5, "s");
        m.set("not.listed", 9.0, "count");
        let json = m.select(&END_TO_END).to_json();
        assert!(json.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        assert!(json.contains("\"ok_frac\":{\"value\":0,\"unit\":\"ratio\"}"));
        assert!(!json.contains("not.listed"));
    }
}
