//! Seeded workload generators.
//!
//! Everything the program under test sees is text made here: netlist
//! blocks for the batch workload and JSON request lines for the served
//! one. One seed always gives the same bytes (pinned by the tests below),
//! so a run can be repeated exactly and two commits can be fed identical
//! inputs.

use std::fmt::Write as _;

/// SplitMix64: small, fast, and fully specified, so generated text never
/// depends on a third-party generator's version.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so phases of one
    /// run draw independent sequences from one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Where a net's sinks sit on its die.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Style {
    /// I.i.d. uniform.
    Uniform,
    /// Gathered into about `sqrt(n)` square blobs, one per cell of a
    /// coarse lattice.
    Clustered,
    /// One sink per lattice cell, jittered by up to 30% of the pitch.
    Grid,
}

const STYLES: [Style; 3] = [Style::Uniform, Style::Clustered, Style::Grid];
const CRITICALITIES: [&str; 3] = ["critical", "normal", "relaxed"];

/// Terminal coordinates (source first) of an `n`-sink net on a die of
/// side `10 * sqrt(n)`, so density stays constant across sizes.
pub fn net_points(rng: &mut Rng, n: usize, style: Style) -> Vec<(f64, f64)> {
    let side = 10.0 * (n as f64).sqrt();
    let mut pts = Vec::with_capacity(n + 1);
    pts.push((side / 2.0, side / 2.0));
    match style {
        Style::Uniform => {
            for _ in 0..n {
                pts.push((rng.range(0.0, side), rng.range(0.0, side)));
            }
        }
        Style::Clustered => {
            // One blob per cell of a coarse lattice, placed at random
            // within its cell: clustered everywhere, never all in a corner.
            let cells = ((n as f64).powf(0.25).ceil() as usize).max(1);
            let blobs = cells * cells;
            let cell = side / cells as f64;
            let blob = side / blobs as f64;
            let centers: Vec<(f64, f64)> = (0..blobs)
                .map(|i| {
                    let (gx, gy) = ((i % cells) as f64, (i / cells) as f64);
                    (
                        gx * cell + rng.range(0.0, cell - blob),
                        gy * cell + rng.range(0.0, cell - blob),
                    )
                })
                .collect();
            for _ in 0..n {
                let (cx, cy) = centers[rng.below(blobs)];
                pts.push((cx + rng.range(0.0, blob), cy + rng.range(0.0, blob)));
            }
        }
        Style::Grid => {
            let cols = ((n as f64).sqrt().ceil() as usize).max(1);
            let pitch = side / cols as f64;
            for i in 0..n {
                let (gx, gy) = ((i % cols) as f64, (i / cols) as f64);
                pts.push((
                    (gx + 0.5 + rng.range(-0.3, 0.3)) * pitch,
                    (gy + 0.5 + rng.range(-0.3, 0.3)) * pitch,
                ));
            }
        }
    }
    pts
}

/// Appends one `net ... end` block.
pub fn push_net(out: &mut String, name: &str, criticality: &str, pts: &[(f64, f64)]) {
    let _ = writeln!(out, "net {name} {criticality}");
    for (x, y) in pts {
        let _ = writeln!(out, "{x:.3} {y:.3}");
    }
    out.push_str("end\n");
}

/// Sinks per net of the `bkrus-large` netlist.
pub const LARGE_SINKS: usize = 500;
/// Nets per placement style in the `bkrus-large` netlist. BKRUS time on
/// one net jumps with where its last accepted edge falls, so a pass
/// averages over many nets of each style: with 12 nets of 1000 sinks per
/// style, the throughput of one seed differed from the next by up to 15%.
pub const LARGE_NETS_PER_STYLE: usize = 36;

/// The `bkrus-large` netlist: large nets of three placement styles that
/// exercise BKRUS's sparse edge stream, feasibility checks and forest
/// merges.
pub fn bkrus_large(seed: u64) -> String {
    let mut rng = Rng::new(seed, 1);
    let mut out = String::new();
    for k in 0..LARGE_NETS_PER_STYLE {
        for (name, style, crit) in [
            ("uniform", Style::Uniform, "critical"),
            ("clustered", Style::Clustered, "normal"),
            ("grid", Style::Grid, "critical"),
        ] {
            let pts = net_points(&mut rng, LARGE_SINKS, style);
            push_net(&mut out, &format!("{name}{k}"), crit, &pts);
        }
    }
    out
}

/// One distinct route request: a netlist plus the knobs sent with it.
#[derive(Debug, Clone, PartialEq)]
pub struct Body {
    /// The netlist block text.
    pub netlist: String,
    /// Registry name of the construction.
    pub algorithm: &'static str,
    /// `budget_ms`, for the budgeted class.
    pub budget_ms: Option<u64>,
    /// Terminals across the netlist's nets.
    pub terminals: usize,
    /// Everything after the id in the request object.
    fields: String,
}

impl Body {
    /// A body routing `netlist` with `algorithm`.
    pub fn new(
        netlist: String,
        algorithm: &'static str,
        budget_ms: Option<u64>,
        terminals: usize,
    ) -> Self {
        let budget = budget_ms.map_or(String::new(), |ms| format!(",\"budget_ms\":{ms}"));
        let fields = format!(
            "\"algorithm\":\"{algorithm}\"{budget},\"netlist\":{}",
            bmst_obs::json::escape(&netlist)
        );
        Body {
            netlist,
            algorithm,
            budget_ms,
            terminals,
            fields,
        }
    }

    /// The request line for `id`, newline-terminated.
    pub fn line(&self, id: u64) -> String {
        format!("{{\"op\":\"route\",\"id\":{id},{}}}\n", self.fields)
    }
}

/// A request stream: distinct bodies, and the body each request sends.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Distinct request bodies.
    pub bodies: Vec<Body>,
    /// For each request in send order, the index of its body.
    pub requests: Vec<usize>,
}

/// Share of requests that repeat a recent body exactly (cache hits).
pub const REPEAT_SHARE: f64 = 0.30;
/// One request in this many is a budgeted large BKRUS request.
pub const BUDGETED_EVERY: usize = 100;
/// Sinks of a budgeted request's single net.
pub const BUDGETED_SINKS: usize = 3000;
/// Its `budget_ms`: far below the ~1 s the build needs.
pub const BUDGET_MS: u64 = 50;
/// Largest net a steiner request carries (see `perfbench/README.md`).
pub const STEINER_MAX_SINKS: usize = 30;
/// Repeats draw from this many most recent distinct bodies, so they fit
/// the server's default 128-entry report cache.
const REPEAT_WINDOW: usize = 64;

/// Algorithm mix of fresh requests.
const ALGORITHMS: [(&str, f64); 4] = [
    ("bkrus", 0.70),
    ("bprim", 0.15),
    ("brbc", 0.10),
    ("steiner", 0.05),
];

/// `n` labels in exactly the given shares (largest remainders rounded
/// down, the rest filled with the first label), in seeded order.
fn stratified<T: Copy>(rng: &mut Rng, n: usize, shares: &[(T, f64)]) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    for &(label, share) in shares {
        out.extend(std::iter::repeat_n(label, (n as f64 * share) as usize));
    }
    out.truncate(n);
    while out.len() < n {
        out.push(shares[0].0);
    }
    rng.shuffle(&mut out);
    out
}

/// Log-uniform integer in `[lo, hi]` at quantile `u`: as many small nets
/// as large ones per octave, the shape of real netlists' fanout.
fn log_uniform_at(u: f64, lo: usize, hi: usize) -> usize {
    let (a, b) = ((lo as f64).ln(), ((hi + 1) as f64).ln());
    ((a + (b - a) * u).exp() as usize).clamp(lo, hi)
}

/// The draws that shape one fresh body's nets.
struct NetDraw {
    size_quantile: f64,
    criticality: &'static str,
    style: Style,
}

fn fresh_body(rng: &mut Rng, tag: usize, algorithm: &'static str, nets: &[NetDraw]) -> Body {
    let max_sinks = if algorithm == "steiner" {
        STEINER_MAX_SINKS
    } else {
        400
    };
    let mut netlist = String::new();
    let mut terminals = 0;
    for (k, d) in nets.iter().enumerate() {
        let pts = net_points(rng, log_uniform_at(d.size_quantile, 4, max_sinks), d.style);
        terminals += pts.len();
        push_net(&mut netlist, &format!("r{tag}n{k}"), d.criticality, &pts);
    }
    Body::new(netlist, algorithm, None, terminals)
}

fn budgeted_body(rng: &mut Rng, tag: usize) -> Body {
    let pts = net_points(rng, BUDGETED_SINKS, Style::Uniform);
    let mut netlist = String::new();
    push_net(&mut netlist, &format!("r{tag}big"), "critical", &pts);
    Body::new(netlist, "bkrus", Some(BUDGET_MS), pts.len())
}

/// `n` requests for one load phase: every [`BUDGETED_EVERY`]th one
/// budgeted, [`REPEAT_SHARE`] exact repeats of a recent body, the rest
/// fresh. Fresh bodies take 1 to 5 nets and their algorithm in exact
/// shares, and net sizes one per stratum of the log-uniform 4..=400
/// range, so seeds differ in placement and order but not in mix. The
/// seed places everything; `stream` separates the phases of a run.
pub fn serve_trace(seed: u64, stream: u64, n: usize) -> Trace {
    let mut rng = Rng::new(seed, 100 + stream);
    // Budgeted requests sit exactly BUDGETED_EVERY apart, so two never
    // hold both workers at once by chance; the rest are fresh or repeats.
    let offset = rng.below(BUDGETED_EVERY);
    let budgeted = (0..n).filter(|i| i % BUDGETED_EVERY == offset).count();
    let repeats = ((n as f64 * REPEAT_SHARE) as usize).min((n - budgeted).saturating_sub(1));
    let mut others: Vec<u8> = std::iter::repeat_n(1, repeats)
        .chain(std::iter::repeat_n(0, n - budgeted - repeats))
        .collect();
    rng.shuffle(&mut others);
    // A repeat needs an earlier fresh body to repeat.
    if let Some(first_fresh) = others.iter().position(|&k| k == 0) {
        others.swap(0, first_fresh);
    }
    let mut others = others.into_iter();
    let kinds: Vec<u8> = (0..n)
        .map(|i| {
            if i % BUDGETED_EVERY == offset {
                2
            } else {
                others.next().unwrap_or(0)
            }
        })
        .collect();
    let fresh = kinds.iter().filter(|&&k| k == 0).count();
    let algorithms = stratified(&mut rng, fresh, &ALGORITHMS);
    let counts = stratified(
        &mut rng,
        fresh,
        &[(1, 0.2), (2, 0.2), (3, 0.2), (4, 0.2), (5, 0.2)],
    );
    let total_nets: usize = counts.iter().sum();
    // Criticality and style cycle with the size stratum, so every size
    // band holds each class in equal share.
    let mut draws: Vec<NetDraw> = (0..total_nets)
        .map(|k| NetDraw {
            size_quantile: (k as f64 + rng.unit()) / total_nets as f64,
            criticality: CRITICALITIES[k % 3],
            style: STYLES[(k / 3) % 3],
        })
        .collect();
    rng.shuffle(&mut draws);
    let mut draws = draws.into_iter();

    let mut trace = Trace::default();
    let mut recent: Vec<usize> = Vec::new();
    let mut next_fresh = 0;
    for kind in kinds {
        let body = match kind {
            1 => recent[recent.len() - 1 - rng.below(recent.len().min(REPEAT_WINDOW))],
            2 => {
                trace
                    .bodies
                    .push(budgeted_body(&mut rng, trace.bodies.len()));
                trace.bodies.len() - 1
            }
            _ => {
                let nets: Vec<NetDraw> = draws.by_ref().take(counts[next_fresh]).collect();
                let body = fresh_body(&mut rng, trace.bodies.len(), algorithms[next_fresh], &nets);
                next_fresh += 1;
                trace.bodies.push(body);
                recent.push(trace.bodies.len() - 1);
                trace.bodies.len() - 1
            }
        };
        trace.requests.push(body);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_text(t: &Trace) -> String {
        t.requests
            .iter()
            .enumerate()
            .map(|(i, &b)| t.bodies[b].line(i as u64))
            .collect()
    }

    #[test]
    fn one_seed_gives_identical_text() {
        assert_eq!(bkrus_large(7), bkrus_large(7));
        assert_eq!(
            trace_text(&serve_trace(7, 1, 300)),
            trace_text(&serve_trace(7, 1, 300))
        );
    }

    #[test]
    fn another_seed_gives_different_text() {
        assert_ne!(bkrus_large(7), bkrus_large(8));
        assert_ne!(
            trace_text(&serve_trace(7, 1, 300)),
            trace_text(&serve_trace(8, 1, 300))
        );
        assert_ne!(
            trace_text(&serve_trace(7, 1, 300)),
            trace_text(&serve_trace(7, 2, 300))
        );
    }

    #[test]
    fn generated_netlist_parses_whole() {
        let large = bmst_router::Netlist::from_str_block(&bkrus_large(3)).unwrap();
        assert!(large.rejected.is_empty());
        assert_eq!(
            large.terminal_count(),
            3 * LARGE_NETS_PER_STYLE * (LARGE_SINKS + 1)
        );
    }

    #[test]
    fn trace_mix_has_exact_shares() {
        let t = serve_trace(5, 1, 1000);
        let budgeted = t
            .requests
            .iter()
            .filter(|&&b| t.bodies[b].budget_ms.is_some())
            .count();
        assert_eq!(budgeted, 10);
        let distinct: std::collections::BTreeSet<usize> = t.requests.iter().copied().collect();
        assert_eq!(t.requests.len() - distinct.len(), 300);
        for b in &t.bodies {
            let line = b.line(1);
            let env = bmst_serve::protocol::parse_line(line.trim_end()).unwrap();
            assert!(matches!(
                env.request,
                bmst_serve::protocol::Request::Route(_)
            ));
            if b.algorithm == "steiner" {
                let nl = bmst_router::Netlist::from_str_block(&b.netlist).unwrap();
                assert!(nl
                    .nets
                    .iter()
                    .all(|n| n.net.num_sinks() <= STEINER_MAX_SINKS));
            }
        }
    }
}
