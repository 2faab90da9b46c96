//! The `serve-mixed` workload: open-loop load from one load generator
//! against an in-process `bmst serve` over loopback TCP.
//!
//! A run measures set-up (bind to first `status` reply), then a phase at
//! each of two fixed arrival rates, then a closed-loop saturation phase.
//! Requests are sent on a fixed schedule whether or not earlier ones
//! have been answered, and each latency is taken from the request's
//! scheduled send time, so a stall is charged to every request it delays.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bmst_core::CancelToken;
use bmst_obs::json::Json;
use bmst_obs::SummaryRecorder;
use bmst_router::{Netlist, RouteAlgorithm, RouterConfig};
use bmst_serve::{ServeConfig, Server, ServerHandle};

use crate::check::{self, Response};
use crate::gen::{self, Body, Trace};
use crate::layers::{decompose, record_counters, LayerTimes};
use crate::stats::{median, quantile, timed, Metrics};
use crate::{peak_rss_mib, Outcome};

/// Arrival rate of the `low` phase, requests per second.
pub const RATE_LOW: f64 = 150.0;
/// Arrival rate of the `high` phase, requests per second.
pub const RATE_HIGH: f64 = 300.0;
/// Share of the run's seconds given to the unmeasured warm-up phase
/// (at the low rate), the `low` phase, the `high` phase and the
/// closed-loop saturation phase.
const WARMUP_SHARE: f64 = 0.04;
const LOW_SHARE: f64 = 0.2;
const HIGH_SHARE: f64 = 0.5;
const SATURATION_SHARE: f64 = 0.2;
/// The `high` phase is cut into this many windows by scheduled send
/// time; its p50 and p99 are the medians of the windows' own, so a
/// burst of interference on the host sets at most one window's figure.
/// Each window holds over 1000 samples in runs of 20 s or more, so its
/// p99 has at least ten samples beyond it.
const LATENCY_WINDOWS: usize = 3;
/// Saturation throughput is the median over windows of this many seconds,
/// so a short stall of the host does not set the whole figure.
const SATURATION_WINDOW_S: f64 = 1.0;
/// Requests each connection keeps outstanding in the saturation phase.
const PIPELINE_DEPTH: usize = 4;
/// Bind-to-first-status measurements before, between and after the load
/// phases (five groups per run); the median of all of them is reported,
/// so the set-up samples span the run as the load does.
const SETUP_REPS: usize = 40;
/// Distinct bodies re-routed locally and compared byte for byte.
const REPLAY_MAX: usize = 120;
/// How long a reader waits for a response before calling it lost.
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// Time between scheduling the phase and its first send.
const LEAD_IN: f64 = 0.05;

fn config(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        ..ServeConfig::default()
    }
}

/// A server running on its own thread.
struct Running {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: thread::JoinHandle<Result<bmst_serve::ServeSummary, bmst_serve::ServeError>>,
}

fn start(workers: usize) -> Result<Running, String> {
    let server = Server::bind(config(workers)).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = thread::spawn(move || server.run());
    Ok(Running {
        addr,
        handle,
        thread,
    })
}

fn stop(r: Running) -> Result<bmst_serve::ServeSummary, String> {
    r.handle.shutdown();
    r.thread
        .join()
        .map_err(|_| "server thread panicked".to_owned())?
        .map_err(|e| e.to_string())
}

fn connect(addr: SocketAddr) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let r = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
    Ok((s, r))
}

fn read_line(r: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut line = String::new();
    match r.read_line(&mut line) {
        Ok(0) => Err("server closed the connection".to_owned()),
        Ok(_) => Ok(line.trim_end().to_owned()),
        Err(e) => Err(format!("lost response: {e}")),
    }
}

fn roundtrip(
    s: &mut TcpStream,
    r: &mut BufReader<TcpStream>,
    line: &str,
) -> Result<String, String> {
    s.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
    read_line(r)
}

/// Seconds from `Server::bind` until the first `status` reply.
fn setup_once(workers: usize) -> Result<f64, String> {
    let t = Instant::now();
    let server = start(workers)?;
    let (mut s, mut r) = connect(server.addr)?;
    let reply = roundtrip(&mut s, &mut r, "{\"op\":\"status\",\"id\":0}\n")?;
    let elapsed = t.elapsed().as_secs_f64();
    if !reply.contains("\"status\":") {
        return Err(format!("unexpected status reply: {reply}"));
    }
    drop((s, r));
    stop(server)?;
    Ok(elapsed)
}

/// Appends `SETUP_REPS` set-up times to `into`.
fn setup_group(workers: usize, into: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUP_REPS {
        into.push(setup_once(workers)?);
    }
    Ok(())
}

/// Response lines as read, with their arrival time in seconds.
type Received = Vec<(String, f64)>;

/// What one load phase saw.
#[derive(Debug, Default)]
struct Phase {
    /// `(id, due time)` of every request sent, in seconds from the phase
    /// start (0 in the closed loop, which has no schedule).
    sent: Vec<(u64, f64)>,
    /// How late each send started, in seconds.
    lag_s: Vec<f64>,
    /// Every response and when it arrived, relative to the phase start.
    got: Vec<(Response, f64)>,
}

impl Phase {
    /// Due time of each request by id.
    fn due(&self) -> BTreeMap<u64, f64> {
        self.sent.iter().copied().collect()
    }

    /// Parses and stores the responses one connection received.
    fn receive(&mut self, got: Received) -> Result<(), String> {
        for (line, t) in got {
            self.got.push((check::parse_response(&line)?, t));
        }
        Ok(())
    }

    /// Latencies in ms, from scheduled send to response, of requests
    /// answered with a report (the budgeted class excluded: it is
    /// counted by `ok_frac`), in `windows` groups by scheduled send time.
    fn windowed_latencies_ms(&self, trace: &Trace, first_id: u64, windows: usize) -> Vec<Vec<f64>> {
        let due = self.due();
        let n = self.sent.len().max(1);
        let mut out = vec![Vec::new(); windows];
        for (r, t) in &self.got {
            if r.kind == "ok"
                && trace.bodies[body_of(trace, first_id, r.id)]
                    .budget_ms
                    .is_none()
            {
                let w = ((r.id - first_id) as usize * windows / n).min(windows - 1);
                out[w].push((t - due[&r.id]) * 1e3);
            }
        }
        out
    }

    /// All latencies of [`Phase::windowed_latencies_ms`] in one list.
    fn latencies_ms(&self, trace: &Trace, first_id: u64) -> Vec<f64> {
        self.windowed_latencies_ms(trace, first_id, 1).concat()
    }
}

/// The median over windows of each window's `q`-quantile.
fn windowed_quantile(windows: &[Vec<f64>], q: f64) -> f64 {
    median(&windows.iter().map(|w| quantile(w, q)).collect::<Vec<_>>())
}

fn body_of(trace: &Trace, first_id: u64, id: u64) -> usize {
    trace.requests[(id - first_id) as usize]
}

/// Sends `trace` at `rate` requests per second, round-robin over
/// `conns` pipelined connections, and collects every response.
fn open_loop(
    addr: SocketAddr,
    conns: usize,
    trace: &Trace,
    first_id: u64,
    rate: f64,
) -> Result<Phase, String> {
    let lines: Vec<String> = trace
        .requests
        .iter()
        .enumerate()
        .map(|(i, &b)| trace.bodies[b].line(first_id + i as u64))
        .collect();
    let mut streams = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..conns {
        let (s, r) = connect(addr)?;
        streams.push(s);
        readers.push(r);
    }
    let start = Instant::now();
    let mut phase = Phase::default();
    thread::scope(|scope| -> Result<(), String> {
        let handles: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(c, mut r)| {
                let expected = (c..lines.len()).step_by(conns).count();
                scope.spawn(move || -> Result<Received, String> {
                    let mut got = Vec::with_capacity(expected);
                    for _ in 0..expected {
                        let line = read_line(&mut r)?;
                        got.push((line, start.elapsed().as_secs_f64()));
                    }
                    Ok(got)
                })
            })
            .collect();
        for (i, line) in lines.iter().enumerate() {
            let due = LEAD_IN + i as f64 / rate;
            let now = start.elapsed().as_secs_f64();
            if now < due {
                thread::sleep(Duration::from_secs_f64(due - now));
            }
            phase
                .lag_s
                .push((start.elapsed().as_secs_f64() - due).max(0.0));
            phase.sent.push((first_id + i as u64, due));
            streams[i % conns]
                .write_all(line.as_bytes())
                .map_err(|e| format!("send failed: {e}"))?;
        }
        for h in handles {
            phase.receive(h.join().map_err(|_| "reader panicked".to_owned())??)?;
        }
        Ok(())
    })?;
    Ok(phase)
}

/// Closed loop: each connection keeps [`PIPELINE_DEPTH`] requests
/// outstanding for `seconds`. Returns the responses that arrived within
/// the window, their arrival times, and the ids sent.
fn saturate(
    addr: SocketAddr,
    conns: usize,
    trace: &Trace,
    first_id: u64,
    seconds: f64,
) -> Result<Phase, String> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut phase = Phase::default();
    thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::new();
        for _ in 0..conns {
            let (mut s, mut r) = connect(addr)?;
            let next = &next;
            handles.push(
                scope.spawn(move || -> Result<(Vec<u64>, Received), String> {
                    let mut sent = Vec::new();
                    let mut got = Vec::new();
                    let mut send = |s: &mut TcpStream| -> Result<bool, String> {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= trace.requests.len() {
                            return Ok(false);
                        }
                        let id = first_id + i as u64;
                        s.write_all(trace.bodies[trace.requests[i]].line(id).as_bytes())
                            .map_err(|e| format!("send failed: {e}"))?;
                        sent.push(id);
                        Ok(true)
                    };
                    let mut outstanding = 0;
                    for _ in 0..PIPELINE_DEPTH {
                        outstanding += usize::from(send(&mut s)?);
                    }
                    while outstanding > 0 {
                        let line = read_line(&mut r)?;
                        got.push((line, start.elapsed().as_secs_f64()));
                        outstanding -= 1;
                        if start.elapsed().as_secs_f64() < seconds {
                            outstanding += usize::from(send(&mut s)?);
                        }
                    }
                    Ok((sent, got))
                }),
            );
        }
        for h in handles {
            let (sent, got) = h.join().map_err(|_| "load thread panicked".to_owned())??;
            phase.sent.extend(sent.into_iter().map(|id| (id, 0.0)));
            phase.receive(got)?;
        }
        Ok(())
    })?;
    if next.load(Ordering::Relaxed) >= trace.requests.len() {
        return Err("saturation trace ran out before the phase ended".to_owned());
    }
    Ok(phase)
}

/// A phase's trace and the first id its requests carry.
struct Planned {
    trace: Trace,
    first_id: u64,
}

fn plan(seed: u64, stream: u64, n: usize, first_id: u64) -> Planned {
    Planned {
        trace: gen::serve_trace(seed, stream, n),
        first_id,
    }
}

fn is_deadline(report: &str) -> bool {
    report.contains("\"error\":\"deadline exceeded")
}

/// The router configuration a server worker builds for a request that
/// names only its algorithm.
fn router_config(algorithm: &str) -> Result<RouterConfig, String> {
    let algorithm = RouteAlgorithm::from_name(algorithm)
        .ok_or_else(|| format!("unknown algorithm {algorithm}"))?;
    Ok(RouterConfig {
        algorithm,
        ..RouterConfig::default()
    })
}

/// Counts and checks over one phase's responses.
#[derive(Debug, Default)]
struct Tally {
    sent: u64,
    ok: u64,
    designed_deadlines: u64,
    shed: u64,
    cached: u64,
    routes: u64,
}

fn tally(p: &Planned, phase: &Phase) -> Result<Tally, String> {
    let ids: Vec<u64> = phase.sent.iter().map(|s| s.0).collect();
    let responses: Vec<Response> = phase.got.iter().map(|g| g.0.clone()).collect();
    check::check_responses(&ids, &responses)?;
    check::check_cache_parity(&responses, |id| body_of(&p.trace, p.first_id, id))?;
    let mut t = Tally {
        sent: ids.len() as u64,
        ..Tally::default()
    };
    for r in &responses {
        let body = &p.trace.bodies[body_of(&p.trace, p.first_id, r.id)];
        match (r.kind.as_str(), body.budget_ms.is_some()) {
            ("ok", true) if is_deadline(&r.report) => t.designed_deadlines += 1,
            ("ok", true) => {
                return Err(format!(
                    "budgeted request {} did not end deadline_exceeded",
                    r.id
                ))
            }
            ("ok", false) if is_deadline(&r.report) => {
                return Err(format!("unbudgeted request {} hit a deadline", r.id))
            }
            ("ok", false) => t.ok += 1,
            ("overloaded", _) => t.shed += 1,
            (kind, _) => return Err(format!("request {} failed with {kind}", r.id)),
        }
        if r.kind == "ok" {
            t.routes += 1;
            t.cached += u64::from(r.cached);
        }
    }
    Ok(t)
}

/// What re-routing answered bodies locally measured.
#[derive(Debug, Default)]
struct Replay {
    /// Parse + route + render seconds per body.
    service: BTreeMap<usize, f64>,
    /// Summed parse, route and render seconds.
    sums: [f64; 3],
    /// First-rung context and build split, when asked for.
    layers: LayerTimes,
}

/// Re-routes up to [`REPLAY_MAX`] distinct answered bodies of `p`
/// locally and checks each served report byte for byte (and, for the
/// spanning builders, with the auditor), timing each layer.
fn replay(p: &Planned, phase: &Phase, split: bool) -> Result<Replay, String> {
    let mut served: BTreeMap<usize, &str> = BTreeMap::new();
    for (r, _) in &phase.got {
        let b = body_of(&p.trace, p.first_id, r.id);
        if r.kind == "ok" && p.trace.bodies[b].budget_ms.is_none() && served.len() < REPLAY_MAX {
            served.entry(b).or_insert(&r.report);
        }
    }
    let mut out = Replay::default();
    for (&b, &report) in &served {
        let body = &p.trace.bodies[b];
        let config = router_config(body.algorithm)?;
        let (parse_s, netlist) = timed(|| Netlist::from_str_block(&body.netlist));
        let netlist = netlist.map_err(|e| format!("body {b} does not parse: {e}"))?;
        let (route_s, local) = timed(|| netlist.route(&config));
        let (render_s, json) = timed(|| local.to_json().to_string());
        if json != report {
            return Err(format!(
                "served report for body {b} differs from a local route"
            ));
        }
        if body.algorithm != "steiner" {
            check::audit_report(&netlist, &local)?;
        }
        out.service.insert(b, parse_s + route_s + render_s);
        for (sum, s) in out.sums.iter_mut().zip([parse_s, route_s, render_s]) {
            *sum += s;
        }
        if split {
            decompose(&netlist, &config, &mut out.layers);
        }
    }
    Ok(out)
}

/// Mean over routed nets of wirelength / MST cost, over the distinct
/// answered bodies of every phase. Each net weighs the same: a plain
/// Σ/Σ would swing with which algorithm happened to draw the largest
/// critical nets.
fn wirelength_ratio(phases: &[(&Planned, &Phase)]) -> Result<f64, String> {
    let mut ratios = Vec::new();
    for (p, phase) in phases {
        let mut seen = BTreeMap::new();
        for (r, _) in &phase.got {
            if r.kind == "ok" {
                seen.entry(body_of(&p.trace, p.first_id, r.id))
                    .or_insert(&r.report);
            }
        }
        for (b, report) in seen {
            let netlist =
                Netlist::from_str_block(&p.trace.bodies[b].netlist).map_err(|e| e.to_string())?;
            let report = Json::parse(report).map_err(|e| format!("bad report JSON: {e}"))?;
            for routed in report.get("nets").and_then(Json::as_arr).unwrap_or(&[]) {
                let name = routed.get("name").and_then(Json::as_str);
                let wire = routed.get("wirelength").and_then(Json::as_f64);
                let net = netlist.nets.iter().find(|n| Some(n.name.as_str()) == name);
                let (Some(wire), Some(net)) = (wire, net) else {
                    return Err(format!("report of body {b} names an unknown net"));
                };
                let mst = bmst_core::mst_tree(&net.net).cost();
                if mst > 0.0 {
                    ratios.push(wire / mst);
                }
            }
        }
    }
    Ok(ratios.iter().sum::<f64>() / ratios.len() as f64)
}

/// Median round trip in microseconds of a tiny request answered from the
/// cache.
fn socket_rtt_us(addr: SocketAddr) -> Result<f64, String> {
    let body = Body::new(
        "net tiny critical\n0 0\n3 4\nend\n".to_owned(),
        "bkrus",
        None,
        2,
    );
    let (mut s, mut r) = connect(addr)?;
    let mut rtts = Vec::new();
    for i in 0..201 {
        let (t, reply) = timed(|| roundtrip(&mut s, &mut r, &body.line(u64::MAX - i)));
        let reply = reply?;
        if i > 0 {
            if !reply.contains("\"cached\":true") {
                return Err("repeated tiny request was not served from the cache".to_owned());
            }
            rtts.push(t * 1e6);
        }
    }
    Ok(median(&rtts))
}

/// Milliseconds past a [`gen::BUDGET_MS`] budget before `route` returns,
/// on a net whose unbudgeted build takes well over the budget.
fn deadline_overrun_ms(seed: u64, algorithm: &str, sinks: usize) -> Result<f64, String> {
    let mut rng = gen::Rng::new(seed, 900 + sinks as u64);
    let mut text = String::new();
    gen::push_net(
        &mut text,
        "slow",
        "critical",
        &gen::net_points(&mut rng, sinks, gen::Style::Uniform),
    );
    let netlist = Netlist::from_str_block(&text).map_err(|e| e.to_string())?;
    let mut config = router_config(algorithm)?;
    config.cancel = CancelToken::with_budget(Duration::from_millis(gen::BUDGET_MS));
    let (wall, report) = timed(|| netlist.route(&config));
    std::hint::black_box(report);
    Ok((wall * 1e3 - gen::BUDGET_MS as f64).max(0.0))
}

/// Sinks per algorithm for the deadline-overrun probe. Unbudgeted, these
/// routes take about 1.5 s, 5.5 s and 0.3–1.2 s on a 2-core x86-64 host,
/// far past the 50 ms budget.
const OVERRUN_PROBES: [(&str, usize); 3] = [("bkrus", 3000), ("bprim", 60_000), ("steiner", 100)];

/// Runs `serve-mixed` for about `seconds`.
pub fn run(seed: u64, seconds: f64, trace: bool, jobs: usize) -> Result<Outcome, String> {
    let mut setup = Vec::new();
    setup_group(jobs, &mut setup)?;

    let sat_s = seconds * SATURATION_SHARE;
    let warm_n = (RATE_LOW * seconds * WARMUP_SHARE) as usize;
    let low_n = (RATE_LOW * seconds * LOW_SHARE) as usize;
    let high_n = (RATE_HIGH * seconds * HIGH_SHARE) as usize;
    let warm = plan(seed, 0, warm_n, 0);
    let low = plan(seed, 1, low_n, warm_n as u64);
    let high = plan(seed, 2, high_n, (warm_n + low_n) as u64);
    // Sized for three times the closed-loop rate seen on a 2-core host.
    let sat = plan(
        seed,
        3,
        (3000.0 * sat_s) as usize,
        (warm_n + low_n + high_n) as u64,
    );

    let server = start(jobs)?;
    let addr = server.addr;

    // Warm-up lets the workers, caches and allocator settle; its
    // responses are checked but not timed.
    let warm_phase = open_loop(addr, jobs, &warm.trace, warm.first_id, RATE_LOW)?;
    setup_group(jobs, &mut setup)?;
    let low_phase = open_loop(addr, jobs, &low.trace, low.first_id, RATE_LOW)?;
    setup_group(jobs, &mut setup)?;
    // Traced runs poll `status` for the queue depth during the high phase.
    let depth_max = AtomicU64::new(0);
    let polling = AtomicBool::new(trace);
    let high_phase = thread::scope(|s| -> Result<Phase, String> {
        let poller = s.spawn(|| -> Result<(), String> {
            if !polling.load(Ordering::Relaxed) {
                return Ok(());
            }
            let (mut st, mut rd) = connect(addr)?;
            while polling.load(Ordering::Relaxed) {
                let reply = roundtrip(&mut st, &mut rd, "{\"op\":\"status\",\"id\":0}\n")?;
                let depth = reply
                    .split("\"queue_depth\":")
                    .nth(1)
                    .and_then(|r| r.split(|c: char| !c.is_ascii_digit()).next())
                    .and_then(|d| d.parse().ok())
                    .unwrap_or(0);
                depth_max.fetch_max(depth, Ordering::Relaxed);
                thread::sleep(Duration::from_millis(10));
            }
            Ok(())
        });
        let phase = open_loop(addr, jobs, &high.trace, high.first_id, RATE_HIGH);
        polling.store(false, Ordering::Relaxed);
        poller
            .join()
            .map_err(|_| "status poller panicked".to_owned())??;
        phase
    })?;
    setup_group(jobs, &mut setup)?;
    let sat_phase = saturate(addr, jobs, &sat.trace, sat.first_id, sat_s)?;
    setup_group(jobs, &mut setup)?;
    let rss = peak_rss_mib()?;
    let rtt_us = socket_rtt_us(addr)?;
    let summary = stop(server)?;
    if summary.internal_errors > 0 {
        return Err(format!(
            "server reported {} internal errors",
            summary.internal_errors
        ));
    }

    tally(&warm, &warm_phase)?;
    let t_low = tally(&low, &low_phase)?;
    let t_high = tally(&high, &high_phase)?;
    let t_sat = tally(&sat, &sat_phase)?;
    let sent = t_low.sent + t_high.sent;
    let answered_ok = t_low.ok + t_high.ok;
    let failed =
        sent.saturating_sub(answered_ok + t_low.designed_deadlines + t_high.designed_deadlines);
    let routes = t_low.routes + t_high.routes;
    if t_low.cached + t_high.cached == 0 {
        return Err("no request was served from the cache".to_owned());
    }

    let mut m = Metrics::default();
    let high_windows =
        high_phase.windowed_latencies_ms(&high.trace, high.first_id, LATENCY_WINDOWS);
    let high_samples: usize = high_windows.iter().map(Vec::len).sum();
    if trace {
        // Layer times come from an untraced replay of the `high` bodies;
        // the same replay under a scoped recorder gives the program's
        // counters and the tracing overhead.
        let untraced = replay(&high, &high_phase, true)?;
        let rec = Arc::new(SummaryRecorder::new());
        let scope = bmst_obs::scoped(rec.clone());
        let traced = replay(&high, &high_phase, false);
        drop(scope);
        let traced = traced?;
        record_counters(&rec, &mut m);
        untraced.layers.record(&mut m);
        let [parse_s, route_s, render_s] = untraced.sums;
        m.set("router.netlist.parse_s", parse_s, "s");
        let bytes: usize = untraced
            .service
            .keys()
            .map(|&b| high.trace.bodies[b].netlist.len())
            .sum();
        m.set(
            "router.netlist.mb_per_s",
            bytes as f64 / parse_s / 1e6,
            "MB/s",
        );
        m.set("router.route_s", route_s, "s");
        m.set(
            "router.route.overhead_s",
            route_s - untraced.layers.total(),
            "s",
        );
        m.set("router.report.render_s", render_s, "s");
        let untraced_s: f64 = untraced.sums.iter().sum();
        m.set(
            "trace.overhead",
            traced.sums.iter().sum::<f64>() / untraced_s,
            "x",
        );
        // Queue wait: client latency minus the replayed service time, for
        // requests the server routed cold.
        let due = high_phase.due();
        let waits: Vec<f64> = high_phase
            .got
            .iter()
            .filter(|(r, _)| r.kind == "ok" && !r.cached)
            .filter_map(|(r, t)| {
                let b = body_of(&high.trace, high.first_id, r.id);
                untraced
                    .service
                    .get(&b)
                    .map(|svc| ((t - due[&r.id]) - svc).max(0.0) * 1e3)
            })
            .collect();
        m.set("serve.queue.wait_ms.p50", median(&waits), "ms");
        m.set("serve.queue.wait_ms.p99", quantile(&waits, 0.99), "ms");
        m.set(
            "serve.queue.depth_max",
            depth_max.load(Ordering::Relaxed) as f64,
            "count",
        );
        let lines: Vec<String> = high
            .trace
            .requests
            .iter()
            .enumerate()
            .map(|(i, &b)| high.trace.bodies[b].line(i as u64))
            .collect();
        let (parse_s, parsed) = timed(|| {
            lines
                .iter()
                .all(|l| bmst_serve::protocol::parse_line(l.trim_end()).is_ok())
        });
        if !parsed {
            return Err("a generated request line failed to parse".to_owned());
        }
        m.set("serve.protocol.parse_s", parse_s, "s");
        m.set(
            "serve.cache.hit_ratio",
            (t_low.cached + t_high.cached) as f64 / routes as f64,
            "ratio",
        );
        m.set(
            "serve.shed",
            (t_low.shed + t_high.shed + t_sat.shed) as f64,
            "count",
        );
        m.set("serve.socket.rtt_us", rtt_us, "us");
        let low_lat = low_phase.latencies_ms(&low.trace, low.first_id);
        m.set("serve.load.low.p50_ms", median(&low_lat), "ms");
        m.set("serve.load.low.p99_ms", quantile(&low_lat, 0.99), "ms");
        m.set(
            "serve.load.high.p50_ms",
            windowed_quantile(&high_windows, 0.5),
            "ms",
        );
        m.set(
            "serve.load.high.p99_ms",
            windowed_quantile(&high_windows, 0.99),
            "ms",
        );
        m.set("serve.load.high.samples", high_samples as f64, "count");
        m.set("serve.saturation_rps", (t_sat.ok as f64) / sat_s, "1/s");
        let lag: Vec<f64> = high_phase.lag_s.iter().map(|s| s * 1e3).collect();
        m.set("gen.lag_ms.p99", quantile(&lag, 0.99), "ms");
        for (algorithm, sinks) in OVERRUN_PROBES {
            let overrun = deadline_overrun_ms(seed, algorithm, sinks)?;
            m.set(
                &format!("router.deadline_overrun_ms.{algorithm}"),
                overrun,
                "ms",
            );
        }
    } else {
        replay(&high, &high_phase, false)?;
        m.set("setup_s", median(&setup), "s");
        let windows = ((sat_s / SATURATION_WINDOW_S) as usize).max(1);
        let mut per_window = vec![0.0; windows];
        for (r, t) in &sat_phase.got {
            let body = &sat.trace.bodies[body_of(&sat.trace, sat.first_id, r.id)];
            let w = (t / SATURATION_WINDOW_S) as usize;
            if r.kind == "ok" && body.budget_ms.is_none() && w < windows {
                per_window[w] += body.terminals as f64 / SATURATION_WINDOW_S;
            }
        }
        m.set("terminals_per_s", median(&per_window), "1/s");
        let phases = [(&low, &low_phase), (&high, &high_phase), (&sat, &sat_phase)];
        m.set("wirelength_ratio", wirelength_ratio(&phases)?, "ratio");
        m.set("peak_rss_mib", rss, "MiB");
        m.set("ok_frac", answered_ok as f64 / sent as f64, "ratio");
    }
    eprintln!(
        "serve: {} low, {} high, {} saturation responses; high p50 {:.2} ms, p99 {:.2} ms over {} samples; lag p99 {:.2} ms",
        low_phase.got.len(),
        high_phase.got.len(),
        sat_phase.got.len(),
        windowed_quantile(&high_windows, 0.5),
        windowed_quantile(&high_windows, 0.99),
        high_samples,
        quantile(&high_phase.lag_s, 0.99) * 1e3
    );
    Ok(Outcome {
        attempted: sent,
        failed,
        metrics: m,
    })
}
