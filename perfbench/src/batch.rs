//! The batch workload: a generated netlist routed serially through
//! parse → `Netlist::route` → render, as `bmst netlist` does with its
//! default `--jobs 1`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use bmst_geom::Net;
use bmst_obs::SummaryRecorder;
use bmst_router::{Netlist, RouteReport, RouterConfig};

use crate::check;
use crate::layers::{decompose, record_counters, LayerTimes};
use crate::stats::{median, quantile, timed, Metrics};
use crate::{peak_rss_mib, Outcome};

/// After each pass the parse alone is timed again, at least once and
/// until it has taken this share of the pass's time, so the set-up
/// samples span the whole run as the throughput's passes do.
const SETUP_SHARE: f64 = 0.05;
/// Fewest measured passes, however long each one takes.
const MIN_PASSES: usize = 3;

fn parse(text: &str) -> Result<Netlist, String> {
    Netlist::from_str_block(text).map_err(|e| format!("generated netlist does not parse: {e}"))
}

/// Both renderings a caller may ask for: the JSON report and the table.
fn render(report: &RouteReport) -> (String, String) {
    (report.to_json().to_string(), report.to_string())
}

/// One user-visible pass: parse, route and render.
fn pass(text: &str, config: &RouterConfig) -> Result<(Netlist, RouteReport, String), String> {
    let netlist = parse(text)?;
    let report = netlist.route(config);
    let (json, table) = render(&report);
    std::hint::black_box(table);
    Ok((netlist, report, json))
}

/// Checks shared by both modes: the reference report passes the audit,
/// and `route_parallel` over every core renders the same bytes.
fn check_outputs(
    netlist: &Netlist,
    report: &RouteReport,
    json: &str,
    config: &RouterConfig,
    jobs: usize,
) -> Result<(), String> {
    check::audit_report(netlist, report)?;
    if netlist.route_parallel(config, jobs).to_json().to_string() != json {
        return Err(format!(
            "route_parallel({jobs}) report differs from the serial report"
        ));
    }
    Ok(())
}

/// Σ wirelength / Σ MST cost over the routed nets.
fn wirelength_ratio(netlist: &Netlist, report: &RouteReport) -> f64 {
    let by_name: BTreeMap<&str, &Net> = netlist
        .nets
        .iter()
        .map(|n| (n.name.as_str(), &n.net))
        .collect();
    let mst: f64 = report
        .nets
        .iter()
        .filter_map(|r| by_name.get(r.name.as_str()))
        .map(|net| bmst_core::mst_tree(net).cost())
        .sum();
    report.total_wirelength / mst
}

/// Runs the batch workload on `text` for about `seconds`.
pub fn run(text: &str, seconds: f64, trace: bool, jobs: usize) -> Result<Outcome, String> {
    let config = RouterConfig::default();
    // Warm-up pass: its report is the reference every later pass must
    // reproduce byte for byte.
    let (netlist, reference, ref_json) = pass(text, &config)?;
    let attempted = (netlist.nets.len() + netlist.rejected.len()) as u64;
    let routed = reference.nets.len() as u64;
    let mut m = Metrics::default();

    if trace {
        traced(text, &config, &netlist, jobs, seconds, &mut m)?;
    } else {
        let start = Instant::now();
        let (mut walls, mut setup) = (Vec::new(), Vec::new());
        while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
            let (wall, out) = timed(|| pass(text, &config));
            let (_, report, json) = out?;
            if json != ref_json {
                return Err("a repeated pass rendered a different report".to_owned());
            }
            std::hint::black_box(report);
            walls.push(wall);
            let mut spent = 0.0;
            while spent == 0.0 || spent < SETUP_SHARE * wall {
                let (parse_s, parsed) = timed(|| parse(text));
                std::hint::black_box(parsed?);
                setup.push(parse_s);
                spent += parse_s;
            }
        }
        m.set("peak_rss_mib", peak_rss_mib()?, "MiB");
        let terminals = netlist.terminal_count() as f64;
        m.set("terminals_per_s", terminals / median(&walls), "1/s");
        m.set("setup_s", median(&setup), "s");
        m.set("ok_frac", routed as f64 / attempted as f64, "ratio");
        m.set(
            "wirelength_ratio",
            wirelength_ratio(&netlist, &reference),
            "ratio",
        );
        eprintln!(
            "passes: {}, wall s min {:.4} median {:.4} max {:.4}",
            walls.len(),
            quantile(&walls, 0.0),
            median(&walls),
            quantile(&walls, 1.0)
        );
    }
    check_outputs(&netlist, &reference, &ref_json, &config, jobs)?;
    Ok(Outcome {
        attempted,
        failed: 0,
        metrics: m,
    })
}

/// Parse, route and render seconds of one pass, timed separately.
fn split_pass(text: &str, config: &RouterConfig) -> Result<[f64; 3], String> {
    let (parse_s, netlist) = timed(|| parse(text));
    let (route_s, report) = timed(|| netlist.map(|nl| nl.route(config)));
    let report = report?;
    let (render_s, out) = timed(|| render(&report));
    std::hint::black_box(out);
    Ok([parse_s, route_s, render_s])
}

/// Routes each net on its own right next to its first-rung split, so a
/// drift in host speed hits both sides of the subtraction alike. Returns
/// the split and the summed per-net route time.
fn paired_split(netlist: &Netlist, config: &RouterConfig) -> (LayerTimes, f64) {
    let mut layers = LayerTimes::default();
    let mut route_s = 0.0;
    for n in &netlist.nets {
        let one = Netlist::new(vec![n.clone()]);
        route_s += timed(|| std::hint::black_box(one.route(config))).0;
        decompose(&one, config, &mut layers);
    }
    (layers, route_s)
}

/// The traced run. Layer times come from untraced passes timed around
/// each public call; the route overhead from routing each net alone next
/// to its context and build split; a third pass of each round runs under
/// a scoped recorder for the program's counters and the tracing overhead.
fn traced(
    text: &str,
    config: &RouterConfig,
    netlist: &Netlist,
    jobs: usize,
    seconds: f64,
    m: &mut Metrics,
) -> Result<(), String> {
    let (mut untraced, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut splits, mut overheads) = (Vec::new(), Vec::new());
    let rec = Arc::new(SummaryRecorder::new());
    let start = Instant::now();
    while untraced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        untraced.push(split_pass(text, config)?);
        let (layers, per_net_route_s) = paired_split(netlist, config);
        overheads.push(per_net_route_s - layers.total());
        splits.push(layers);
        let scope = bmst_obs::scoped(rec.clone());
        let split = split_pass(text, config);
        drop(scope);
        traced_walls.push(split?.iter().sum::<f64>());
        if traced_walls.len() == 1 {
            record_counters(&rec, m);
        }
    }
    let layer = |i: usize| median(&untraced.iter().map(|s| s[i]).collect::<Vec<_>>());
    let (parse_s, route_s, render_s) = (layer(0), layer(1), layer(2));
    let layers = LayerTimes::median(&splits);
    let overhead_s = median(&overheads);
    let (serial_s, report) = timed(|| netlist.route(config));
    let (parallel_s, _) = timed(|| netlist.route_parallel(config, jobs));
    m.set("router.netlist.parse_s", parse_s, "s");
    m.set(
        "router.netlist.mb_per_s",
        text.len() as f64 / parse_s / 1e6,
        "MB/s",
    );
    layers.record(m);
    m.set("router.route_s", route_s, "s");
    m.set("router.route.overhead_s", overhead_s, "s");
    m.set("router.report.render_s", render_s, "s");
    m.set("router.failed_nets", report.failures.len() as f64, "count");
    let untraced_walls: Vec<f64> = untraced.iter().map(|s| s.iter().sum()).collect();
    let layer_sum = parse_s + layers.total() + overhead_s + render_s;
    m.set(
        "trace.layer_sum_ratio",
        layer_sum / median(&untraced_walls),
        "x",
    );
    m.set(
        "trace.overhead",
        median(&traced_walls) / median(&untraced_walls),
        "x",
    );
    m.set("router.parallel_speedup", serial_s / parallel_s, "x");
    Ok(())
}
