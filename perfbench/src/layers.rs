//! Per-layer timing for traced runs, taken from the benchmark's own code
//! around calls into each layer's public functions, plus the program's
//! existing obs counters read through a scoped recorder.

use std::collections::BTreeMap;

use bmst_core::ProblemContext;
use bmst_obs::SummaryRecorder;
use bmst_router::{Netlist, RouterConfig};

use crate::stats::{median, timed, Metrics};

/// Summed context and build time over a set of nets.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// `ProblemContext::new` plus the edge supply it serves from: the
    /// neighbor index when the sparse supply is active, the sorted
    /// complete edge list otherwise.
    pub context_s: f64,
    /// `TreeBuilder::try_build` time per builder name.
    pub build_s: BTreeMap<&'static str, f64>,
}

impl LayerTimes {
    /// The per-field median of several splits of the same work.
    pub fn median(splits: &[LayerTimes]) -> LayerTimes {
        let context: Vec<f64> = splits.iter().map(|s| s.context_s).collect();
        let mut build_s = BTreeMap::new();
        for name in splits.iter().flat_map(|s| s.build_s.keys()) {
            let v: Vec<f64> = splits
                .iter()
                .filter_map(|s| s.build_s.get(name).copied())
                .collect();
            build_s.insert(*name, median(&v));
        }
        LayerTimes {
            context_s: median(&context),
            build_s,
        }
    }

    /// Context plus build time over every builder.
    pub fn total(&self) -> f64 {
        self.context_s + self.build_s.values().sum::<f64>()
    }

    /// Records `core.context.s` and `core.build_s.<builder>`.
    pub fn record(&self, m: &mut Metrics) {
        m.set("core.context.s", self.context_s, "s");
        for (name, s) in &self.build_s {
            m.set(&format!("core.build_s.{name}"), *s, "s");
        }
    }
}

/// Times the first ladder rung of every net under `config`, as
/// `Netlist::route` runs it: the context, its edge supply, and the build.
/// Build errors are not failures here; the route itself reports them.
pub fn decompose(netlist: &Netlist, config: &RouterConfig, into: &mut LayerTimes) {
    let builder = config.algorithm.builder();
    let name = builder.descriptor().name;
    for n in &netlist.nets {
        let (ctx_s, cx) = timed(|| {
            let cx = ProblemContext::new(&n.net, config.eps_for(n.criticality))
                .map(|cx| cx.with_edge_supply(config.edge_supply));
            if let Ok(cx) = &cx {
                if cx.sparse_active() {
                    std::hint::black_box(cx.neighbor_index());
                } else {
                    std::hint::black_box(cx.sorted_edges());
                }
            }
            cx
        });
        into.context_s += ctx_s;
        if let Ok(cx) = cx {
            let (build_s, tree) = timed(|| builder.try_build(&cx));
            std::hint::black_box(tree.is_ok());
            *into.build_s.entry(name).or_default() += build_s;
        }
    }
}

/// Copies the program's BKRUS, forest and router counters out of `rec`.
pub fn record_counters(rec: &SummaryRecorder, m: &mut Metrics) {
    let snap = rec.snapshot();
    let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    for name in [
        "bkrus.edges_scanned",
        "bkrus.rejected_cycle",
        "bkrus.rejected_bound",
        "bkrus.edges_accepted",
        "forest.cond3a.accept",
        "forest.cond3a.reject",
        "forest.cond3b.accept",
        "forest.cond3b.reject",
    ] {
        m.set(name, count(name), "count");
    }
    let scanned = count("bkrus.edges_scanned");
    let accept_ratio = if scanned > 0.0 {
        count("bkrus.edges_accepted") / scanned
    } else {
        0.0
    };
    m.set("bkrus.accept_ratio", accept_ratio, "ratio");
    let cross = snap
        .histograms
        .get("forest.merge.cross_pairs")
        .map_or(0, |h| h.sum);
    m.set("forest.merge.cross_pairs.sum", cross as f64, "count");
    m.set(
        "router.relaxations",
        rec.event_count("router.relax") as f64,
        "count",
    );
    m.set(
        "router.spt_fallbacks",
        rec.event_count("router.spt_fallback") as f64,
        "count",
    );
}
