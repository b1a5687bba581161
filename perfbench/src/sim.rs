//! The `sim_hhc4` workload: the packet-level simulator on HHC(4)
//! (2^20 nodes) with uniform traffic and `Strategy::MultipathRandom`
//! at a low injection rate, plus the simulator's route-query front end
//! (`Strategy::select_into`) timed in batches of 64 pattern-drawn pairs.

use crate::gen::{self, Pair, BATCH};
use crate::probe::{self, ColdBuild, Counts, DesFacts, ProbeInputs};
use crate::serve::{PATH_LEN_BATCHES, PROBE_PAIRS, THREADS};
use crate::stats::{
    allowed_cpus, median, peak_rss_mb, run_on, setup_median, summarize, take_turn, timed, Cpu,
    Outcome, MIN_BATCHES,
};
use crate::trace::Trace;
use hhc_core::bounds::length_bound;
use hhc_core::verify::{verify_disjoint_paths_into, VerifyScratch};
use hhc_core::{CacheConfig, Hhc, MetricsReport, NodeId, PathSet};
use hhc_core::{Router, RouterConfig};
use netsim::{Network, RouteScratch, SimConfig, SimStats, Simulator, Strategy};
use rand::rngs::StdRng;
use std::collections::HashSet;
use std::time::{Duration, Instant};
use workloads::Pattern;

/// HHC(m) of the simulator workload: 2^(2^4 + 4) = 2^20 nodes.
pub const M: u32 = 4;
/// Injection cycles per simulator run.
const CYCLES: u64 = 8;
/// Injection probability per node per cycle.
const RATE: f64 = 0.01;
/// Drain cycles: enough for every injected packet to land.
const DRAIN: u64 = 20_000;
/// Simulator runs per measured run; `queries_per_cpu_s` is taken over
/// all of them.
const SIM_RUNS: u64 = 8;
/// Route-query batches timed on one fresh route scratch.
const SELECT_BATCHES: usize = 250;

fn cfg(cycles: u64, seed: u64) -> SimConfig {
    SimConfig {
        cycles,
        drain_cycles: DRAIN,
        inject_rate: RATE,
        seed,
        ..SimConfig::default()
    }
}

/// Conservation and delivery checks of one simulator run.
fn check_run(s: &SimStats, o: &mut Outcome) {
    o.attempted += s.injected;
    if s.injected != s.delivered + s.in_flight_at_end {
        o.fail(format!(
            "injected {} != delivered {} + in flight {}",
            s.injected, s.delivered, s.in_flight_at_end
        ));
    }
    let drops = s.dropped_unroutable + s.dropped_dst_faulty + s.dropped_backpressure;
    if drops > 0 || s.delivered == 0 {
        o.fail(format!("{drops} drops, {} delivered", s.delivered));
    }
    for _ in s.delivered..s.injected {
        o.fail("packet not delivered".into());
    }
}

/// Route-query batches and their checks.
struct Selector {
    h: Hhc,
    /// CPUs the rounds take turns on (see `run`), and the rounds so far.
    cpus: Vec<usize>,
    rounds: usize,
    pairs: StdRng,
    choice: StdRng,
    scratch: RouteScratch,
    check: RouteScratch,
    verify: VerifyScratch,
    batch: Vec<Pair>,
    routes: PathSet,
    route: Vec<NodeId>,
    no_faults: HashSet<NodeId>,
    /// Process CPU time of each timed batch (µs).
    batch_us: Vec<f64>,
    /// Wall time of each timed batch (µs).
    wall_us: Vec<f64>,
    hops_sum: u64,
    paths: u64,
    hops_max: u64,
    paths_checked: u64,
}

impl Selector {
    fn new(h: Hhc, seed: u64, cpus: Vec<usize>) -> Self {
        Selector {
            h,
            cpus,
            rounds: 0,
            pairs: gen::stream(seed, 10),
            choice: gen::stream(seed, 11),
            scratch: RouteScratch::new(),
            check: RouteScratch::with_route_cache(CacheConfig::disabled()),
            verify: VerifyScratch::new(),
            batch: Vec::with_capacity(BATCH),
            routes: PathSet::new(),
            route: Vec::new(),
            no_faults: HashSet::new(),
            batch_us: Vec::new(),
            wall_us: Vec::new(),
            hops_sum: 0,
            paths: 0,
            hops_max: 0,
            paths_checked: 0,
        }
    }

    /// Times `n` batches on a fresh route scratch (as cold as the one a
    /// simulator run starts with), on the next CPU in turn, and checks
    /// every answer. The path lengths of the run's first
    /// `PATH_LEN_BATCHES` batches are recorded.
    fn batches(&mut self, n: usize, o: &mut Outcome) {
        take_turn(&self.cpus, self.rounds);
        self.rounds += 1;
        self.scratch = RouteScratch::new();
        let h = self.h;
        for _ in 0..n {
            self.batch = gen::pattern_pairs(&h, BATCH, &mut self.pairs);
            self.routes.clear();
            let (c0, t0) = (Cpu::now(), Instant::now());
            for &(u, v) in &self.batch {
                let ok = Strategy::MultipathRandom.select_into(
                    &h,
                    u,
                    v,
                    &self.no_faults,
                    &mut self.choice,
                    &mut self.scratch,
                    &mut self.route,
                );
                self.routes.push_path(if ok { &self.route } else { &[] });
            }
            self.wall_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            self.batch_us.push(Cpu::now().since(c0) / 1e3);
            o.attempted += BATCH as u64;
            let record = self.batch_us.len() <= PATH_LEN_BATCHES;
            for (i, &(u, v)) in self.batch.iter().enumerate() {
                let family = h.disjoint_routes_into(u, v, &mut self.check);
                let route = self.routes.path(i);
                let bound = length_bound(&h, u, v) as usize;
                if let Err(e) = verify_disjoint_paths_into(&h, u, v, family, &mut self.verify) {
                    o.fail(format!("route family failed verification: {e}"));
                } else if family.len() != h.degree() as usize
                    || family.iter().any(|p| p.len() - 1 > bound)
                {
                    o.fail("route family has the wrong size or exceeds its length bound".into());
                } else if !family.iter().any(|p| p == route) {
                    o.fail("selected route is not a member of the pair's family".into());
                }
                self.paths_checked += family.len() as u64;
                if record {
                    for p in family.iter() {
                        self.hops_sum += p.len() as u64 - 1;
                        self.hops_max = self.hops_max.max(p.len() as u64 - 1);
                        self.paths += 1;
                    }
                }
            }
        }
    }
}

/// One set-up: a simulator and a one-cycle warm-up run (the engine's
/// per-run fixed cost: link table, arrival stream, first page faults).
fn setup<'a>(h: &'a Hhc, seed: u64, o: &mut Outcome, r: &mut u64) -> Simulator<'a, Hhc> {
    let sim = Simulator::new(h, Pattern::UniformRandom, Strategy::MultipathRandom);
    *r += 1;
    check_run(&sim.run(cfg(1, gen::derive(seed, 100 + *r))), o);
    sim
}

fn facts(o: &mut Outcome, seed: u64) {
    o.fact("workload", "sim_hhc4");
    o.fact("seed", seed);
    o.fact(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    o.fact("m", M);
    o.fact("nodes", 1u64 << 20);
    o.fact("cycles_per_run", CYCLES);
    o.fact("inject_rate", RATE);
    o.fact("batch_pairs", BATCH);
    o.fact("live_faults", 0);
    o.fact("fault_events", 0);
}

/// The untraced run: every end-to-end metric. The time is cut into
/// `SIM_RUNS` equal slots; each holds one simulator run and then rounds
/// of `SELECT_BATCHES` route-query batches until the slot ends (at
/// least one round), and rounds continue past the last slot until
/// `MIN_BATCHES` batches are timed. As on the service workloads,
/// `setup_s` is the median over the first set-up and further ones built
/// after the measured phase.
///
/// The simulator runs, and separately the rounds, take turns on the
/// CPUs the process may use, one CPU each. On a shared virtual machine
/// the CPUs do not run equally fast (the host's other load sits on some
/// of the cores behind them), and a single thread left to the scheduler
/// stays on one of them for seconds at a time, so which one it started
/// on moved a whole run's figures by a third; taking turns gives every
/// run the same share of each.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut o = Outcome::default();
    let h = Hhc::new(M).expect("m = 4 is valid");
    let mut r = 0;
    let (sim, first_setup_s) = timed(|| setup(&h, seed, &mut o, &mut r));
    let cpus = allowed_cpus();
    let mut sel = Selector::new(h, seed, cpus.clone());
    let (mut delivered, mut sim_cpu_s) = (0, 0.0);
    let start = Instant::now();
    for runs in 0..SIM_RUNS {
        take_turn(&cpus, runs as usize);
        let (stats, cpu_s) = timed(|| sim.run(cfg(CYCLES, gen::derive(seed, 12 + runs))));
        delivered += stats.delivered;
        sim_cpu_s += cpu_s;
        check_run(&stats, &mut o);
        let slot_end =
            start + Duration::from_secs_f64(seconds * (runs + 1) as f64 / SIM_RUNS as f64);
        sel.batches(SELECT_BATCHES, &mut o);
        while Instant::now() < slot_end {
            sel.batches(SELECT_BATCHES, &mut o);
        }
    }
    while sel.batch_us.len() < MIN_BATCHES {
        sel.batches(SELECT_BATCHES, &mut o);
    }
    run_on(&cpus);
    let lat = summarize(&sel.batch_us, BATCH);
    let wall = summarize(&sel.wall_us, BATCH);
    let rss = peak_rss_mb();
    drop(sim);
    let (setup_s, setups) = setup_median(first_setup_s, || setup(&h, seed, &mut o, &mut r));
    o.metric("queries_per_cpu_s", delivered as f64 / sim_cpu_s, "1/s");
    o.metric("batch_cpu_p50_us", lat.p50, "us");
    o.metric("batch_cpu_p90_us", lat.p90, "us");
    o.metric(
        "path_len_mean",
        sel.hops_sum as f64 / sel.paths as f64,
        "hops",
    );
    o.metric("path_len_max", sel.hops_max as f64, "hops");
    o.metric("setup_s", setup_s, "s");
    o.metric("peak_rss_mb", rss, "MiB");
    facts(&mut o, seed);
    o.fact("sim_runs", SIM_RUNS);
    o.fact("select_rounds", sel.rounds);
    o.fact("cpus_taking_turns", cpus.len());
    o.fact("batches", sel.batch_us.len());
    o.fact("batch_cpu_p99_us", lat.p99);
    o.fact("wall_batch_p50_us", wall.p50);
    o.fact("wall_batch_p99_us", wall.p99);
    o.fact("setup_samples", setups);
    o.fact("path_len_batches", PATH_LEN_BATCHES);
    o.fact("paths_checked", sel.paths_checked);
    o
}

/// The traced run: every per-layer metric. Each traced simulator run is
/// a `netsim.des` span whose children re-run its route queries (as many
/// as it injected, on pattern-drawn pairs) as `netsim.select` batches;
/// each query of a batch gets a `construct` child (see `ColdBuild`).
pub fn run_traced(seed: u64, seconds: f64, trace_file: &std::path::Path) -> Outcome {
    let mut o = Outcome::default();
    let h = Hhc::new(M).expect("m = 4 is valid");
    let sim = setup(&h, seed, &mut o, &mut 0);
    let mut t = Trace::default();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut first: Option<SimStats> = None;
    let half = Duration::from_secs_f64(seconds / 2.0);
    let start = Instant::now();
    let mut runs = 0u64;
    while plain_s.is_empty() || start.elapsed() < half {
        let t0 = Instant::now();
        let stats = sim.run(cfg(CYCLES, gen::derive(seed, 12 + runs)));
        plain_s.push(t0.elapsed().as_secs_f64());
        check_run(&stats, &mut o);
        first.get_or_insert(stats);
        runs += 1;
    }
    let mark = t.mark();
    let mut pairs_rng = gen::stream(seed, 13);
    let mut choice = gen::stream(seed, 14);
    let mut cold = ColdBuild::new(&h);
    let mut route = Vec::new();
    let mut effort = MetricsReport::default();
    let no_faults = HashSet::new();
    let (mut des_self, mut des_total) = (0i64, 0u64);
    let again = Instant::now();
    while traced_s.is_empty() || again.elapsed() < half {
        let des = t.open("netsim.des", None, runs);
        let stats = sim.run(cfg(CYCLES, gen::derive(seed, 12 + runs)));
        t.close(des);
        traced_s.push(t.span(des).dur() as f64 / 1e9);
        check_run(&stats, &mut o);
        let mut scratch = RouteScratch::new();
        let mut left = stats.injected as usize;
        while left > 0 {
            let batch = gen::pattern_pairs(&h, left.min(BATCH), &mut pairs_rng);
            left -= batch.len();
            let sel = t.open("netsim.select", Some(des), runs);
            for &(u, v) in &batch {
                Strategy::MultipathRandom.select_into(
                    &h,
                    u,
                    v,
                    &no_faults,
                    &mut choice,
                    &mut scratch,
                    &mut route,
                );
            }
            t.close(sel);
            for &p in &batch {
                cold.run(&mut t, &h, p, Some(sel), runs);
            }
        }
        effort.merge(&scratch.construction_metrics());
        des_self += t.exclusive_of(des);
        des_total += t.span(des).dur();
        runs += 1;
    }
    let shares = t.shares(mark);
    let overhead = median(&mut traced_s) / median(&mut plain_s);
    let first = first.expect("at least one untraced run");
    let des = DesFacts {
        engine_share: des_self.max(0) as f64 / des_total as f64,
        route_family_hit_ratio: first.route_family_hits as f64
            / first.route_constructions.max(1) as f64,
        link_transmissions: first.link_transmissions,
        peak_links_materialised: first.peak_links_materialised,
        max_queue_len: first.max_queue_len,
        latency_mean_cycles: first.mean_latency().unwrap_or(f64::NAN),
    };
    let counts = Counts::between(&MetricsReport::default(), &effort, None);

    let mut rng = gen::stream(seed, 15);
    let pairs = gen::pattern_pairs(&h, PROBE_PAIRS, &mut rng);
    let fresh = gen::pattern_pairs(&h, PROBE_PAIRS, &mut rng);
    let mut router = Router::new(
        M,
        RouterConfig {
            threads: THREADS,
            ..RouterConfig::default()
        },
    )
    .expect("m = 4 is valid");
    let inputs = ProbeInputs {
        hhc: &h,
        pairs: &pairs,
        fresh: &fresh,
        live: &no_faults,
    };
    let mut times = probe::run(&mut t, &inputs, &mut router, &mut rng);
    probe::report(&mut o, &mut times, &counts, &des, &shares, overhead);
    if let Err(e) = t.write_tsv(trace_file) {
        o.fail(format!("cannot write {}: {e}", trace_file.display()));
    }
    facts(&mut o, seed);
    o.fact("untraced_runs", plain_s.len());
    o.fact("traced_runs", traced_s.len());
    o.fact("spans", t.spans().len());
    o.fact("probe_pairs", pairs.len());
    o.fact("trace_file", trace_file.display());
    o
}
