//! Per-call layer probes and the per-layer report.
//!
//! Each layer is measured from outside, by timing calls into its public
//! functions on the workload's own inputs. A layer whose work cannot be
//! called on its own is measured as a difference: the span of the call
//! that includes it, minus a child span that re-runs the same call
//! without it (see `trace`). The µs metrics are medians of those signed
//! differences over the probed pairs.

use crate::gen::Pair;
use crate::stats::{median, Outcome};
use crate::trace::{SpanId, Trace, SHARES};
use hhc_core::disjoint::disjoint_paths_traced;
use hhc_core::{
    disjoint_paths_avoiding_into, disjoint_paths_into, CacheConfig, CrossingOrder, Hhc,
    MetricsReport, NodeId, PathBuilder, PathSet, Router, SharedFamilyCache,
};
use hypercube::{fan_paths_into, Cube, FanScratch, Node};
use netsim::{RouteScratch, Strategy};
use rand::rngs::StdRng;
use std::collections::HashSet;
use std::sync::Arc;

const GRAY: CrossingOrder = CrossingOrder::Gray;

/// Re-runs the two terminal fans of a cross-cube construction through
/// `fan_paths_into`, with the targets its `ConstructionTrace` reports.
pub struct FanReplay {
    cube: Cube,
    scratch: FanScratch,
    src: Vec<Node>,
    tgt: Vec<Node>,
    yu: Node,
    yv: Node,
}

impl FanReplay {
    pub fn new(h: &Hhc) -> Self {
        FanReplay {
            cube: h.son_cube(),
            scratch: FanScratch::new(),
            src: Vec::new(),
            tgt: Vec::new(),
            yu: 0,
            yv: 0,
        }
    }

    /// Loads the fan targets of `(u, v)` (an untimed traced build).
    pub fn prepare(&mut self, h: &Hhc, (u, v): Pair) {
        let (_, tr) = disjoint_paths_traced(h, u, v, GRAY).expect("valid pair");
        self.src.clear();
        self.src
            .extend(tr.source_fan_targets.iter().map(|&t| t as Node));
        self.tgt.clear();
        self.tgt
            .extend(tr.target_fan_targets.iter().map(|&t| t as Node));
        self.yu = h.node_field(u) as Node;
        self.yv = h.node_field(v) as Node;
    }

    /// Solves the loaded fans whose side is set in `sides` (source,
    /// target), one `fan` span each, under `parent`; returns the summed
    /// span time in ns.
    pub fn replay(&mut self, t: &mut Trace, parent: SpanId, qid: u64, sides: (bool, bool)) -> u64 {
        let mut ns = 0;
        for (on, s, targets) in [(sides.0, self.yu, &self.src), (sides.1, self.yv, &self.tgt)] {
            if !on || targets.is_empty() {
                continue;
            }
            let id = t.open("fan", Some(parent), qid);
            fan_paths_into(&self.cube, s, targets, &mut self.scratch)
                .expect("construction fan targets are valid");
            t.close(id);
            ns += t.span(id).dur();
        }
        ns
    }
}

/// The work of a family-cache miss, re-run on its own: a construction
/// with the fan cache on and the family cache off, spanned as
/// `construct`, with `fan` children re-solving the fans that missed the
/// fan cache.
pub struct ColdBuild {
    builder: PathBuilder,
    fans: FanReplay,
    out: PathSet,
}

impl ColdBuild {
    pub fn new(h: &Hhc) -> Self {
        ColdBuild {
            builder: PathBuilder::with_caches(CacheConfig {
                family_capacity: 0,
                ..CacheConfig::enabled()
            }),
            fans: FanReplay::new(h),
            out: PathSet::new(),
        }
    }

    pub fn run(
        &mut self,
        t: &mut Trace,
        h: &Hhc,
        p: Pair,
        parent: Option<SpanId>,
        qid: u64,
    ) -> SpanId {
        let before = self.builder.metrics();
        let c = t.open("construct", parent, qid);
        disjoint_paths_into(h, p.0, p.1, GRAY, &mut self.out, &mut self.builder)
            .expect("valid pair");
        t.close(c);
        let after = self.builder.metrics();
        let missed = |b: &hypercube::FanMetrics, a: &hypercube::FanMetrics| {
            a.queries > b.queries && a.cache_hits == b.cache_hits
        };
        let sides = (
            missed(&before.src_fan, &after.src_fan),
            missed(&before.tgt_fan, &after.tgt_fan),
        );
        if sides.0 || sides.1 {
            self.fans.prepare(h, p);
            self.fans.replay(t, c, qid, sides);
        }
        c
    }
}

/// What the probes run on.
pub struct ProbeInputs<'a> {
    pub hhc: &'a Hhc,
    /// A sample of the workload's pairs.
    pub pairs: &'a [Pair],
    /// As many pairs whose family keys the router's L2 has not seen.
    pub fresh: &'a [Pair],
    /// The live fault set.
    pub live: &'a HashSet<NodeId>,
}

/// Per-pair samples (µs) of the per-call probes; the report reads
/// their medians.
#[derive(Debug, Default)]
pub struct ProbeSamples {
    pub construct_cold: Vec<f64>,
    pub construct_self: Vec<f64>,
    pub fan_solve: Vec<f64>,
    pub l1_hit: Vec<f64>,
    pub l2_hit: Vec<f64>,
    pub l2_store: Vec<f64>,
    pub avoid_scan: Vec<f64>,
    pub avoid_repair: Vec<f64>,
    pub avoid_snapshot: Vec<f64>,
    pub service_roundtrip: Vec<f64>,
    pub netsim_select: Vec<f64>,
}

fn us(ns: i64) -> f64 {
    ns as f64 / 1e3
}

/// Runs every probe on every input pair, recording spans under one
/// `probe` root per pair. `router` serves the `service` and snapshot
/// probes, and its L2 the store and hit probes (which add the fresh
/// keys to it).
pub fn run(
    t: &mut Trace,
    inp: &ProbeInputs,
    router: &mut Router,
    rng: &mut StdRng,
) -> ProbeSamples {
    let h = inp.hhc;
    let empty = HashSet::new();
    let mut cold = PathBuilder::with_caches(CacheConfig::disabled());
    let mut l1 = PathBuilder::with_caches(CacheConfig::enabled());
    let mut l2 = PathBuilder::with_caches(CacheConfig::disabled());
    l2.attach_shared_cache(Arc::clone(router.shared_cache()));
    let mut fans = FanReplay::new(h);
    let mut route_scratch = RouteScratch::new();
    let (mut out, mut plain) = (PathSet::new(), PathSet::new());
    let mut route = Vec::new();
    let mut snap = HashSet::new();
    let mut blocked = inp.live.clone();
    let mut v = ProbeSamples::default();

    for (i, (&p, &f)) in inp.pairs.iter().zip(inp.fresh).enumerate() {
        let q = i as u64;
        let root = t.open("probe", None, q);
        // construct: a cold build without caches, minus its fan replays.
        fans.prepare(h, p);
        let c = t.open("construct", Some(root), q);
        disjoint_paths_into(h, p.0, p.1, GRAY, &mut plain, &mut cold).expect("valid pair");
        t.close(c);
        let fan_ns = fans.replay(t, c, q, (true, true));
        v.construct_cold.push(us(t.span(c).dur() as i64));
        v.construct_self.push(us(t.exclusive_of(c)));
        if fan_ns > 0 {
            v.fan_solve.push(us(fan_ns as i64));
        }
        // l1: a warm replay from the per-builder cache.
        disjoint_paths_into(h, p.0, p.1, GRAY, &mut out, &mut l1).expect("valid pair");
        t.time("l1", Some(root), q, || {
            disjoint_paths_into(h, p.0, p.1, GRAY, &mut out, &mut l1)
        })
        .expect("valid pair");
        v.l1_hit.push(us(t.last_dur() as i64));
        // avoid.scan: the warm replay under the live faults minus under none.
        let s = t.open("avoid.scan", Some(root), q);
        let scanned = disjoint_paths_avoiding_into(h, p.0, p.1, GRAY, inp.live, &mut out, &mut l1)
            .expect("valid pair");
        t.close(s);
        t.time("l1", Some(s), q, || {
            disjoint_paths_avoiding_into(h, p.0, p.1, GRAY, &empty, &mut out, &mut l1)
        })
        .expect("valid pair");
        if !scanned.rerouted {
            v.avoid_scan.push(us(t.exclusive_of(s)));
        }
        // avoid.repair: one more fault on the plain family forces a
        // rebuild; minus the scan under the live faults alone.
        if let Some(&w) = plain.path(0).get(1).filter(|_| plain.path(0).len() > 2) {
            blocked.insert(w);
            let r = t.open("avoid.repair", Some(root), q);
            let fixed =
                disjoint_paths_avoiding_into(h, p.0, p.1, GRAY, &blocked, &mut out, &mut l1)
                    .expect("valid pair");
            t.close(r);
            t.time("avoid.scan", Some(r), q, || {
                disjoint_paths_avoiding_into(h, p.0, p.1, GRAY, inp.live, &mut out, &mut l1)
            })
            .expect("valid pair");
            if fixed.rerouted {
                v.avoid_repair.push(us(t.exclusive_of(r)));
            }
            if !inp.live.contains(&w) {
                blocked.remove(&w);
            }
        }
        // l2.store: a cold build with the L1 off and the L2 attached,
        // minus the same build with no caches; then l2: its replay.
        let st = t.open("l2.store", Some(root), q);
        disjoint_paths_into(h, f.0, f.1, GRAY, &mut out, &mut l2).expect("valid pair");
        t.close(st);
        t.time("construct", Some(st), q, || {
            disjoint_paths_into(h, f.0, f.1, GRAY, &mut out, &mut cold)
        })
        .expect("valid pair");
        v.l2_store.push(us(t.exclusive_of(st)));
        t.time("l2", Some(root), q, || {
            disjoint_paths_into(h, f.0, f.1, GRAY, &mut out, &mut l2)
        })
        .expect("valid pair");
        v.l2_hit.push(us(t.last_dur() as i64));
        // service: an L1-hot router round trip minus the serial warm
        // avoiding call on the same pair.
        for _ in 0..router.threads() {
            let _ = router.query_into(p.0, p.1, &mut out);
        }
        let sv = t.open("service", Some(root), q);
        let _ = router.query_into(p.0, p.1, &mut out);
        t.close(sv);
        t.time("avoid.scan", Some(sv), q, || {
            disjoint_paths_avoiding_into(h, p.0, p.1, GRAY, inp.live, &mut out, &mut l1)
        })
        .expect("valid pair");
        v.service_roundtrip.push(us(t.exclusive_of(sv)));
        t.time("avoid.snapshot", Some(root), q, || {
            router.shared_cache().faults_snapshot_into(&mut snap)
        });
        v.avoid_snapshot.push(us(t.last_dur() as i64));
        // netsim.select: the simulator's route choice on the pair.
        let ok = t.time("netsim.select", Some(root), q, || {
            Strategy::MultipathRandom.select_into(
                h,
                p.0,
                p.1,
                inp.live,
                rng,
                &mut route_scratch,
                &mut route,
            )
        });
        assert!(ok, "multipath selection always routes");
        v.netsim_select.push(us(t.last_dur() as i64));
        t.close(root);
    }
    v
}

/// Counters of the program's own reports over the measured window.
#[derive(Debug, Default)]
pub struct Counts {
    pub queries: u64,
    pub l1_hits: u64,
    pub l1_bypass_events: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub l2_invalidations: u64,
    pub l2_entries: u64,
    pub reroutes: u64,
    pub cross_cube: u64,
    pub fan_queries: u64,
    pub fan_cache_hits: u64,
    pub fan_cache_probes: u64,
    pub fan_fast_path: u64,
    pub augmentations: u64,
    pub arcs_touched: u64,
}

impl Counts {
    /// `after − before` of two cumulative reports.
    pub fn between(
        before: &MetricsReport,
        after: &MetricsReport,
        l2: Option<&SharedFamilyCache>,
    ) -> Counts {
        let (b, a) = (&before.construction, &after.construction);
        let fan = |r: &MetricsReport| {
            let (s, t) = (&r.src_fan, &r.tgt_fan);
            (
                s.queries + t.queries,
                s.cache_hits + t.cache_hits,
                s.cache_hits + t.cache_hits + s.cache_misses + t.cache_misses,
                s.fast_path + t.fast_path,
            )
        };
        let (fb, fa) = (fan(before), fan(after));
        Counts {
            queries: a.queries - b.queries,
            l1_hits: a.family_hits - b.family_hits,
            l1_bypass_events: a
                .family_bypass_events
                .saturating_sub(b.family_bypass_events),
            l2_hits: a.l2_hits - b.l2_hits,
            l2_misses: a.l2_misses - b.l2_misses,
            l2_invalidations: a.l2_invalidations - b.l2_invalidations,
            l2_entries: l2.map_or(0, |c| c.len() as u64),
            reroutes: a.fault_reroutes - b.fault_reroutes,
            cross_cube: a.cross_cube - b.cross_cube,
            fan_queries: fa.0 - fb.0,
            fan_cache_hits: fa.1 - fb.1,
            fan_cache_probes: fa.2 - fb.2,
            fan_fast_path: fa.3 - fb.3,
            augmentations: after.solver.augmentations - before.solver.augmentations,
            arcs_touched: after.solver.arcs_touched - before.solver.arcs_touched,
        }
    }
}

/// Simulator-only counters (zero on the service workloads).
#[derive(Debug, Default)]
pub struct DesFacts {
    pub engine_share: f64,
    pub route_family_hit_ratio: f64,
    pub link_transmissions: u64,
    pub peak_links_materialised: u64,
    pub max_queue_len: u64,
    pub latency_mean_cycles: f64,
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Appends every per-layer metric, in one fixed order, to `o`.
pub fn report(
    o: &mut Outcome,
    p: &mut ProbeSamples,
    c: &Counts,
    des: &DesFacts,
    shares: &std::collections::BTreeMap<&'static str, f64>,
    overhead_ratio: f64,
) {
    o.metric(
        "service.roundtrip_us",
        median(&mut p.service_roundtrip),
        "us",
    );
    o.metric("service.queries", c.queries as f64, "count");
    o.metric("l1.hit_ratio", ratio(c.l1_hits, c.queries), "ratio");
    o.metric("l1.hit_us", median(&mut p.l1_hit), "us");
    o.metric("l1.bypass_events", c.l1_bypass_events as f64, "count");
    o.metric(
        "l2.hit_ratio",
        ratio(c.l2_hits, c.l2_hits + c.l2_misses),
        "ratio",
    );
    o.metric("l2.hit_us", median(&mut p.l2_hit), "us");
    o.metric("l2.invalidations", c.l2_invalidations as f64, "count");
    o.metric("l2.entries", c.l2_entries as f64, "count");
    o.metric("l2.store_us", median(&mut p.l2_store), "us");
    o.metric("avoid.scan_us", median(&mut p.avoid_scan), "us");
    o.metric("avoid.snapshot_us", median(&mut p.avoid_snapshot), "us");
    o.metric("avoid.repair_ratio", ratio(c.reroutes, c.queries), "ratio");
    o.metric("avoid.repair_us", median(&mut p.avoid_repair), "us");
    o.metric("construct.cold_us", median(&mut p.construct_cold), "us");
    o.metric("construct.self_us", median(&mut p.construct_self), "us");
    o.metric(
        "construct.cross_cube_ratio",
        ratio(c.cross_cube, c.queries),
        "ratio",
    );
    o.metric("fan.solve_us", median(&mut p.fan_solve), "us");
    o.metric(
        "fan.queries_per_query",
        ratio(c.fan_queries, c.queries),
        "ratio",
    );
    o.metric(
        "fan.cache_hit_ratio",
        ratio(c.fan_cache_hits, c.fan_cache_probes),
        "ratio",
    );
    o.metric(
        "fan.fast_path_ratio",
        ratio(c.fan_fast_path, c.fan_queries),
        "ratio",
    );
    o.metric(
        "dinic.augmentations_per_fan",
        ratio(c.augmentations, c.fan_queries),
        "ratio",
    );
    o.metric(
        "dinic.arcs_touched_per_fan",
        ratio(c.arcs_touched, c.fan_queries),
        "ratio",
    );
    o.metric("netsim.select_us", median(&mut p.netsim_select), "us");
    o.metric("netsim.engine_share", des.engine_share, "ratio");
    o.metric(
        "netsim.route_family_hit_ratio",
        des.route_family_hit_ratio,
        "ratio",
    );
    o.metric(
        "netsim.link_transmissions",
        des.link_transmissions as f64,
        "count",
    );
    o.metric(
        "netsim.peak_links_materialised",
        des.peak_links_materialised as f64,
        "count",
    );
    o.metric("netsim.max_queue_len", des.max_queue_len as f64, "count");
    o.metric(
        "netsim.latency_mean_cycles",
        des.latency_mean_cycles,
        "cycles",
    );
    o.metric("trace.overhead_ratio", overhead_ratio, "ratio");
    for (layer, name) in SHARES {
        o.metric(name, shares.get(layer).copied().unwrap_or(0.0), "ratio");
    }
}
