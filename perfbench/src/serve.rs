//! The service workloads: `serve_hot`, `serve_cold` and `serve_churn`.
//!
//! One caller thread drives a `Router` over HHC(5) in a closed loop: it
//! submits a batch of 64 pairs to `query_many_into`, waits for the
//! answers and submits the next batch; every answer is checked outside
//! the timed spans.

use crate::gen::{self, ColdStream, FaultEvent, FaultFeed, Pair, BATCH};
use crate::probe::{self, ColdBuild, Counts, DesFacts, ProbeInputs};
use crate::stats::{
    allowed_cpus, median, peak_rss_mb, run_on, setup_median, summarize, take_turn, timed, Outcome,
    ThreadClocks, MIN_BATCHES,
};
use crate::trace::{SpanId, Trace};
use hhc_core::bounds::{length_bound, wide_diameter_upper_bound};
use hhc_core::service::{DEFAULT_L2_SHARDS, DEFAULT_L2_SHARD_CAPACITY};
use hhc_core::verify::{verify_disjoint_paths_into, VerifyScratch};
use hhc_core::{
    disjoint_paths_avoiding_into, disjoint_paths_into, CacheConfig, CrossingOrder, Hhc, NodeId,
    PathBuilder, PathSet, QueryBatchResult, Router, RouterConfig, SharedFamilyCache,
    DEFAULT_FAMILY_CACHE_CAPACITY,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// HHC(m) of the service workloads.
pub const M: u32 = 5;
/// Router worker threads.
pub const THREADS: usize = 2;
/// Batches per burst: run back to back, then checked.
pub const BURST: usize = 32;
/// Pairs the traced run probes per layer.
pub const PROBE_PAIRS: usize = 128;
/// Batches whose paths `path_len_mean` and `path_len_max` are taken
/// over: the run's first ones, a fixed seeded set of pairs.
pub const PATH_LEN_BATCHES: usize = 1000;
/// Largest difference allowed between the router's and the shadow's
/// L1-hit, L2-hit and repair shares of the traced loop's queries.
const SHADOW_TOLERANCE: f64 = 0.02;

const GRAY: CrossingOrder = CrossingOrder::Gray;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Cold,
    Churn,
}

/// A set-up service workload: the router, its inputs and (in a traced
/// run) the serial shadow of its workers.
pub struct Serve {
    kind: Kind,
    h: Hhc,
    router: Router,
    pool: Vec<Pair>,
    cold: Option<ColdStream>,
    feed: Option<FaultFeed>,
    pick: StdRng,
    /// One result buffer per batch of a burst.
    outs: Vec<QueryBatchResult>,
    shadow: Option<Shadow>,
}

impl Serve {
    /// Builds the router and the inputs and warms the caches. On
    /// `serve_cold` the warm-up fills the hot generation of every L2
    /// shard with keys the timed stream never repeats, so the timed
    /// stores run at the tier's steady-state occupancy.
    pub fn setup(kind: Kind, seed: u64, with_shadow: bool) -> Serve {
        let h = Hhc::new(M).expect("m = 5 is valid");
        let cfg = RouterConfig {
            threads: THREADS,
            ..RouterConfig::default()
        };
        let mut s = Serve {
            kind,
            h,
            router: Router::new(M, cfg).expect("m = 5 is valid"),
            pool: Vec::new(),
            cold: None,
            feed: None,
            pick: gen::stream(seed, 6),
            outs: (0..BURST).map(|_| QueryBatchResult::new()).collect(),
            shadow: with_shadow.then(|| Shadow::new(&h, cfg)),
        };
        match kind {
            Kind::Hot => {
                s.pool = gen::distinct_pool(&h, gen::HOT_POOL, &mut gen::stream(seed, 1));
                // A two-pair batch gives one pair to each worker, so
                // every key lands in both L1s.
                for i in 0..s.pool.len() {
                    let p = s.pool[i];
                    s.ask(&[p, p], 0);
                }
            }
            Kind::Cold => {
                let mut stream = ColdStream::new(seed);
                let mut batch = Vec::new();
                let fill = DEFAULT_L2_SHARDS * DEFAULT_L2_SHARD_CAPACITY;
                for _ in 0..fill / BATCH {
                    stream.fill(&h, BATCH, &mut batch);
                    s.ask(&batch, 0);
                }
                s.cold = Some(stream);
            }
            Kind::Churn => {
                s.pool = gen::distinct_pool(&h, gen::CHURN_POOL, &mut gen::stream(seed, 2));
                let pool = s.pool.clone();
                for batch in pool.chunks(BATCH) {
                    s.ask(batch, 0);
                }
                let feed = FaultFeed::new(&h, &s.pool, gen::CHURN_FAULTS, seed);
                for &v in feed.standing() {
                    s.router.add_fault(v);
                    if let Some(sh) = s.shadow.as_mut() {
                        sh.l2.add_fault(v);
                    }
                }
                s.feed = Some(feed);
            }
        }
        // Grow every result buffer to a full batch before timing.
        let mut prime = Vec::new();
        s.next_batch(&mut prime);
        for k in 0..BURST {
            s.ask(&prime, k);
        }
        s
    }

    /// An untimed router batch into result buffer `buf` (mirrored by
    /// the shadow).
    fn ask(&mut self, pairs: &[Pair], buf: usize) {
        self.router.query_many_into(pairs, &mut self.outs[buf]);
        if let Some(sh) = self.shadow.as_mut() {
            sh.process(&self.h, pairs, None);
        }
    }

    fn next_batch(&mut self, batch: &mut Vec<Pair>) {
        match self.cold.as_mut() {
            Some(stream) => stream.fill(&self.h, BATCH, batch),
            None => {
                batch.clear();
                batch
                    .extend((0..BATCH).map(|_| self.pool[self.pick.gen_range(0..self.pool.len())]));
            }
        }
    }

    /// Distinct family keys the run's inputs span.
    fn distinct_keys(&self) -> usize {
        self.cold
            .as_ref()
            .map_or(self.pool.len(), ColdStream::distinct_keys)
    }
}

/// Output checks, run between batches.
struct Checker {
    verify: VerifyScratch,
    family: PathSet,
    oracle: PathBuilder,
    oracle_out: PathSet,
    rng: StdRng,
    empty: HashSet<NodeId>,
    hops_sum: u64,
    paths: u64,
    hops_max: u64,
    batches: usize,
    paths_checked: u64,
    oracle_checks: u64,
}

impl Checker {
    fn new(seed: u64) -> Self {
        Checker {
            verify: VerifyScratch::new(),
            family: PathSet::new(),
            oracle: PathBuilder::with_caches(CacheConfig::disabled()),
            oracle_out: PathSet::new(),
            rng: gen::stream(seed, 7),
            empty: HashSet::new(),
            hops_sum: 0,
            paths: 0,
            hops_max: 0,
            batches: 0,
            paths_checked: 0,
            oracle_checks: 0,
        }
    }

    /// Checks every answer of a batch; one seeded answer is compared
    /// with the serial cold-cache oracle. The path lengths of the first
    /// `PATH_LEN_BATCHES` batches are recorded.
    fn check(
        &mut self,
        h: &Hhc,
        pairs: &[Pair],
        out: &QueryBatchResult,
        faults: Option<&HashSet<NodeId>>,
        o: &mut Outcome,
    ) {
        let wide = wide_diameter_upper_bound(h) as usize;
        let record = self.batches < PATH_LEN_BATCHES;
        self.batches += 1;
        let sample = self.rng.gen_range(0..pairs.len());
        let live = faults.unwrap_or(&self.empty);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let f = match out.get(i) {
                Ok(f) => f,
                Err(e) => {
                    o.fail(format!("query {i} errored: {e}"));
                    continue;
                }
            };
            self.family.clear();
            for p in f.iter() {
                self.family.push_path(p);
            }
            if let Err(e) = verify_disjoint_paths_into(h, u, v, &self.family, &mut self.verify) {
                o.fail(format!("family failed verification: {e}"));
                continue;
            }
            let want = if faults.is_some() {
                1..=h.degree() as usize
            } else {
                h.degree() as usize..=h.degree() as usize
            };
            if !want.contains(&f.len()) {
                o.fail(format!("family has {} paths", f.len()));
                continue;
            }
            let bound = length_bound(h, u, v) as usize;
            for p in f.iter() {
                let hops = p.len() - 1;
                if hops > bound || hops > wide {
                    o.fail(format!("path of {hops} hops exceeds its bound {bound}"));
                }
                if p.iter().any(|x| live.contains(x)) {
                    o.fail("path visits a live fault".into());
                }
                self.paths_checked += 1;
                if record {
                    self.hops_sum += hops as u64;
                    self.hops_max = self.hops_max.max(hops as u64);
                    self.paths += 1;
                }
            }
            if i == sample {
                self.oracle_checks += 1;
                let ok = disjoint_paths_avoiding_into(
                    h,
                    u,
                    v,
                    GRAY,
                    live,
                    &mut self.oracle_out,
                    &mut self.oracle,
                )
                .is_ok_and(|_| self.oracle_out.iter().eq(f.iter()));
                if !ok {
                    o.fail("answer differs from the serial cold-cache oracle".into());
                }
            }
        }
    }
}

/// The timed batches' costs (µs) in order: the CPU time the caller and
/// the router's workers spent on each `query_many_into` call, and its
/// wall time.
#[derive(Default)]
struct Samples {
    cpu_us: Vec<f64>,
    wall_us: Vec<f64>,
}

/// The closed loop for `seconds`, and past them until `min_batches`
/// batches are timed. Batches run back to back in bursts of `BURST`,
/// each answered into its own result buffer, and the whole burst is
/// checked afterwards, so the caller's checks add no think time between
/// the timed batches. A check pass evicts the router's data from the
/// CPU caches, so the first batch of each burst is answered and checked
/// but neither timed nor traced. With a trace, spans per batch and the
/// shadow's layer spans (the traced loop pays the shadow between
/// batches).
///
/// The caller takes turns on the CPUs the process may use, one CPU per
/// burst; the workers are left to the scheduler. Left to it as well,
/// the caller and the workers settled for a whole run into one of two
/// placements whose `serve_hot` batch CPU time differed by a fifth; a
/// caller held to one CPU at a time always gives the same one, and the
/// turns give every run the same share of each CPU (on a shared virtual
/// machine they do not run equally fast).
fn run_loop(
    s: &mut Serve,
    seconds: f64,
    min_batches: usize,
    ck: &mut Checker,
    o: &mut Outcome,
    mut trace: Option<&mut Trace>,
) -> Samples {
    let mut samples = Samples::default();
    // Every thread the process has now: the caller and the router's
    // workers.
    let clocks = ThreadClocks::of_process();
    let cpus = allowed_cpus();
    let mut bursts = 0;
    let mut batches: Vec<Vec<Pair>> = (0..BURST).map(|_| Vec::with_capacity(BATCH)).collect();
    let mut events: Vec<Option<FaultEvent>> = vec![None; BURST];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let more = |timed: &Samples| Instant::now() < deadline || timed.cpu_us.len() < min_batches;
    while more(&samples) {
        take_turn(&cpus, bursts);
        bursts += 1;
        let faults_before = s.feed.as_ref().map(|f| f.live().clone());
        let mut n = 0;
        while n < BURST && more(&samples) {
            let timed = n > 0;
            let mut trace = trace.as_deref_mut().filter(|_| timed);
            let batch = &mut batches[n];
            s.next_batch(batch);
            let qid = o.attempted;
            let root = trace.as_deref_mut().map(|t| t.open("batch", None, qid));
            events[n] = s.feed.as_mut().map(|feed| feed.next_event(&s.h, &s.pool));
            if let Some(ev) = events[n] {
                let ev_span = trace
                    .as_deref_mut()
                    .map(|t| t.open("avoid.event", root, qid));
                match ev {
                    FaultEvent::Add(v) => s.router.add_fault(v),
                    FaultEvent::Clear(v) => s.router.clear_fault(v),
                };
                if let (Some(t), Some(id)) = (trace.as_deref_mut(), ev_span) {
                    t.close(id);
                }
                if let Some(sh) = s.shadow.as_mut() {
                    sh.event(ev);
                }
            }
            let service = trace.as_deref_mut().map(|t| t.open("service", root, qid));
            let (c0, t0) = (clocks.read(), Instant::now());
            s.router.query_many_into(batch, &mut s.outs[n]);
            let ns = t0.elapsed().as_nanos() as f64;
            let cpu_ns = clocks.since(c0);
            if let (Some(t), Some(id)) = (trace.as_deref_mut(), service) {
                t.close(id);
            }
            if timed {
                samples.wall_us.push(ns / 1e3);
                samples.cpu_us.push(cpu_ns / 1e3);
            }
            o.attempted += batch.len() as u64;
            if let Some(sh) = s.shadow.as_mut() {
                let ctx = trace
                    .as_deref_mut()
                    .zip(service)
                    .zip(root)
                    .map(|((t, sv), r)| (t, sv, r));
                sh.process(&s.h, batch, ctx);
            }
            if let (Some(t), Some(id)) = (trace, root) {
                t.close(id);
            }
            n += 1;
        }
        // Check the burst under each batch's own fault set.
        let mut faults = faults_before;
        for k in 0..n {
            if let (Some(f), Some(ev)) = (faults.as_mut(), events[k]) {
                match ev {
                    FaultEvent::Add(v) => f.insert(v),
                    FaultEvent::Clear(v) => f.remove(&v),
                };
            }
            ck.check(&s.h, &batches[k], &s.outs[k], faults.as_ref(), o);
        }
    }
    run_on(&cpus);
    samples
}

fn common_facts(o: &mut Outcome, s: &Serve, seed: u64) {
    o.fact(
        "workload",
        match s.kind {
            Kind::Hot => "serve_hot",
            Kind::Cold => "serve_cold",
            Kind::Churn => "serve_churn",
        },
    );
    o.fact("seed", seed);
    o.fact(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    o.fact("router_threads", s.router.threads());
    o.fact("m", M);
    o.fact("batch_pairs", BATCH);
    o.fact("distinct_keys", s.distinct_keys());
    o.fact("l1_capacity_per_generation", DEFAULT_FAMILY_CACHE_CAPACITY);
    o.fact("live_faults", s.feed.as_ref().map_or(0, |f| f.live().len()));
    o.fact("fault_events", s.feed.as_ref().map_or(0, FaultFeed::events));
}

/// The untraced run: every end-to-end metric. The loop runs on the
/// run's first set-up; `setup_s` is the median over it and further
/// set-ups built after the loop, once the peak memory is read and the
/// first set-up is dropped.
pub fn run(kind: Kind, seed: u64, seconds: f64) -> Outcome {
    let mut o = Outcome::default();
    let (mut s, first_setup_s) = timed(|| Serve::setup(kind, seed, false));
    let mut ck = Checker::new(seed);
    let samples = run_loop(&mut s, seconds, MIN_BATCHES, &mut ck, &mut o, None);
    let lat = summarize(&samples.cpu_us, BATCH);
    let wall = summarize(&samples.wall_us, BATCH);
    let rss = peak_rss_mb();
    common_facts(&mut o, &s, seed);
    drop(s);
    let (setup_s, setups) = setup_median(first_setup_s, || Serve::setup(kind, seed, false));
    o.metric("queries_per_cpu_s", lat.per_s, "1/s");
    o.metric("batch_cpu_p50_us", lat.p50, "us");
    o.metric("batch_cpu_p90_us", lat.p90, "us");
    o.metric(
        "path_len_mean",
        ck.hops_sum as f64 / ck.paths as f64,
        "hops",
    );
    o.metric("path_len_max", ck.hops_max as f64, "hops");
    o.metric("setup_s", setup_s, "s");
    o.metric("peak_rss_mb", rss, "MiB");
    o.fact("batches", samples.cpu_us.len());
    o.fact("batch_cpu_p99_us", lat.p99);
    o.fact("wall_queries_per_s", wall.per_s);
    o.fact("wall_batch_p50_us", wall.p50);
    o.fact("wall_batch_p99_us", wall.p99);
    o.fact("setup_samples", setups);
    o.fact("path_len_batches", PATH_LEN_BATCHES);
    o.fact("paths_checked", ck.paths_checked);
    o.fact("oracle_checks", ck.oracle_checks);
    o
}

/// The traced run: every per-layer metric. The first half of the time
/// runs the loop without spans, the second half with them; then the
/// layer probes run on a sample of the workload's pairs.
pub fn run_traced(kind: Kind, seed: u64, seconds: f64, trace_file: &std::path::Path) -> Outcome {
    let mut o = Outcome::default();
    let mut s = Serve::setup(kind, seed, true);
    let mut ck = Checker::new(seed);
    let mut t = Trace::default();
    let before = s.router.metrics();
    let shadow_before = s.shadow.as_ref().map_or_else(Tally::default, |sh| sh.tally);
    let mut plain = run_loop(&mut s, seconds / 2.0, 1, &mut ck, &mut o, None).wall_us;
    let mark = t.mark();
    let mut traced = run_loop(&mut s, seconds / 2.0, 1, &mut ck, &mut o, Some(&mut t)).wall_us;
    let shares = t.shares(mark);
    let counts = Counts::between(&before, &s.router.metrics(), Some(s.router.shared_cache()));
    // The shares credit time by the path each shadow lookup took, so the
    // shadow must have taken the router's mix of paths.
    let shadow = s.shadow.as_ref().map_or_else(Tally::default, |sh| sh.tally);
    let shadow = shadow.since(&shadow_before);
    let router = Tally {
        queries: counts.queries,
        l1_hits: counts.l1_hits,
        l2_hits: counts.l2_hits,
        reroutes: counts.reroutes,
    };
    if let Some(e) = router.differs(&shadow, SHADOW_TOLERANCE) {
        o.fail(format!(
            "the shadow's path mix differs from the router's: {e}"
        ));
    }
    let overhead = median(&mut traced) / median(&mut plain);

    // Probe inputs: a sample of the workload's pairs, plus pairs the L2
    // has not seen.
    let mut rng = gen::stream(seed, 8);
    let (mut pairs, mut fresh) = (Vec::new(), Vec::new());
    match s.cold.as_mut() {
        Some(stream) => {
            stream.fill(&s.h, PROBE_PAIRS, &mut pairs);
            stream.fill(&s.h, PROBE_PAIRS, &mut fresh);
        }
        None => {
            pairs.extend((0..PROBE_PAIRS).map(|_| s.pool[rng.gen_range(0..s.pool.len())]));
            let seen: HashSet<_> = s.pool.iter().map(|&p| gen::family_key(&s.h, p)).collect();
            let extra = gen::distinct_pool(&s.h, 2 * PROBE_PAIRS, &mut gen::stream(seed, 9));
            fresh.extend(
                extra
                    .into_iter()
                    .filter(|&p| !seen.contains(&gen::family_key(&s.h, p)))
                    .take(PROBE_PAIRS),
            );
        }
    }
    let empty = HashSet::new();
    let live = s.feed.as_ref().map_or(&empty, FaultFeed::live).clone();
    let inputs = ProbeInputs {
        hhc: &s.h,
        pairs: &pairs,
        fresh: &fresh,
        live: &live,
    };
    let mut times = probe::run(&mut t, &inputs, &mut s.router, &mut rng);
    probe::report(
        &mut o,
        &mut times,
        &counts,
        &DesFacts::default(),
        &shares,
        overhead,
    );
    if let Err(e) = t.write_tsv(trace_file) {
        o.fail(format!("cannot write {}: {e}", trace_file.display()));
    }
    common_facts(&mut o, &s, seed);
    o.fact("untraced_batches", plain.len());
    o.fact("traced_batches", traced.len());
    o.fact("spans", t.spans().len());
    o.fact("probe_pairs", pairs.len());
    o.fact("shadow_l1_hits", shadow.l1_hits);
    o.fact("shadow_l2_hits", shadow.l2_hits);
    o.fact("shadow_reroutes", shadow.reroutes);
    o.fact("trace_file", trace_file.display());
    o
}

/// How many lookups took each path.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub queries: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub reroutes: u64,
}

impl Tally {
    /// `self − before`.
    fn since(&self, before: &Tally) -> Tally {
        Tally {
            queries: self.queries - before.queries,
            l1_hits: self.l1_hits - before.l1_hits,
            l2_hits: self.l2_hits - before.l2_hits,
            reroutes: self.reroutes - before.reroutes,
        }
    }

    /// Describes the first share of queries (L1 hits, L2 hits, repairs)
    /// that differs from `other`'s by more than `tolerance`, or a
    /// difference in the number of queries.
    fn differs(&self, other: &Tally, tolerance: f64) -> Option<String> {
        if self.queries != other.queries {
            return Some(format!(
                "{} queries against {}",
                self.queries, other.queries
            ));
        }
        let share = |n: u64| n as f64 / self.queries.max(1) as f64;
        [
            ("L1-hit", self.l1_hits, other.l1_hits),
            ("L2-hit", self.l2_hits, other.l2_hits),
            ("repair", self.reroutes, other.reroutes),
        ]
        .into_iter()
        .find(|&(_, a, b)| (share(a) - share(b)).abs() > tolerance)
        .map(|(what, a, b)| format!("{what} share {:.4} against {:.4}", share(a), share(b)))
    }
}

/// One mirrored worker: its builder (L1 plus the shadow L2) and its
/// fault snapshot.
struct Mirror {
    builder: PathBuilder,
    faults: HashSet<NodeId>,
    gen: u64,
}

/// The serial shadow of the router's workers: the same chunking, the
/// same cache configuration and the same fault feed, answered on the
/// caller thread so that every layer call can be spanned. Each lookup
/// is named after the path it took (read from the builder's counters)
/// and gets child spans that re-run its lower-layer work.
pub struct Shadow {
    l2: Arc<SharedFamilyCache>,
    workers: Vec<Mirror>,
    l2_only: PathBuilder,
    cold: ColdBuild,
    out: PathSet,
    qid: u64,
    /// Paths the lookups took (replays under a trace not counted).
    tally: Tally,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Tier {
    L1,
    L2,
    Cold,
}

impl Shadow {
    fn new(h: &Hhc, cfg: RouterConfig) -> Self {
        let l2 = Arc::new(SharedFamilyCache::new(cfg.l2));
        let workers = (0..cfg.threads)
            .map(|_| {
                let mut builder = PathBuilder::with_caches(cfg.l1);
                builder.attach_shared_cache(Arc::clone(&l2));
                Mirror {
                    builder,
                    faults: HashSet::new(),
                    gen: 0,
                }
            })
            .collect();
        let mut l2_only = PathBuilder::with_caches(CacheConfig::disabled());
        l2_only.attach_shared_cache(Arc::clone(&l2));
        Shadow {
            l2,
            workers,
            l2_only,
            cold: ColdBuild::new(h),
            out: PathSet::new(),
            qid: 0,
            tally: Tally::default(),
        }
    }

    fn event(&mut self, ev: FaultEvent) {
        match ev {
            FaultEvent::Add(v) => self.l2.add_fault(v),
            FaultEvent::Clear(v) => self.l2.clear_fault(v),
        };
    }

    /// Answers one batch the way the router does. With a trace, the
    /// spans of the worker that took longest become children of the
    /// batch's `service` span (the critical path), the others children
    /// of `root`.
    fn process(&mut self, h: &Hhc, pairs: &[Pair], mut ctx: Option<(&mut Trace, SpanId, SpanId)>) {
        let threads = self.workers.len();
        let chunk = pairs.len().div_ceil(threads);
        let mut top: Vec<Vec<SpanId>> = vec![Vec::new(); threads];
        let mut work = vec![0u64; threads];
        for (i, slice) in pairs.chunks(chunk).enumerate() {
            let w = i % threads;
            for &(u, v) in slice {
                self.qid += 1;
                let qid = self.qid;
                let root = ctx.as_ref().map(|c| c.2);
                let m = &mut self.workers[w];
                if self.l2.generation() != m.gen {
                    let id = ctx.as_mut().map(|c| c.0.open("avoid.snapshot", root, qid));
                    m.gen = self.l2.faults_snapshot_into(&mut m.faults);
                    if let (Some(c), Some(id)) = (ctx.as_mut(), id) {
                        c.0.close(id);
                        top[w].push(id);
                        work[w] += c.0.span(id).dur();
                    }
                }
                let before = m.builder.metrics().construction;
                let id = ctx.as_mut().map(|c| c.0.open("lookup", root, qid));
                disjoint_paths_avoiding_into(
                    h,
                    u,
                    v,
                    GRAY,
                    &m.faults,
                    &mut self.out,
                    &mut m.builder,
                )
                .expect("valid pair");
                if let (Some(c), Some(id)) = (ctx.as_mut(), id) {
                    c.0.close(id);
                }
                let after = m.builder.metrics().construction;
                let tier = if after.family_hits > before.family_hits {
                    Tier::L1
                } else if after.l2_hits > before.l2_hits {
                    Tier::L2
                } else {
                    Tier::Cold
                };
                let rerouted = after.fault_reroutes > before.fault_reroutes;
                self.tally.queries += after.queries - before.queries;
                self.tally.l1_hits += after.family_hits - before.family_hits;
                self.tally.l2_hits += after.l2_hits - before.l2_hits;
                self.tally.reroutes += after.fault_reroutes - before.fault_reroutes;
                let (Some((t, _, _)), Some(id)) = (ctx.as_mut(), id) else {
                    continue;
                };
                let faulted = !m.faults.is_empty();
                t.rename(
                    id,
                    match (rerouted, faulted, tier) {
                        (true, _, _) => "avoid.repair",
                        (false, true, _) => "avoid.scan",
                        (false, false, Tier::L1) => "l1",
                        (false, false, Tier::L2) => "l2",
                        (false, false, Tier::Cold) => "l2.store",
                    },
                );
                // Re-run the lower layers: the fault-free replay from the
                // same tier under a faulted lookup, the build without the
                // family cache (and its fan-cache misses) under a store.
                match (faulted, tier) {
                    (true, Tier::L1) => {
                        t.time("l1", Some(id), qid, || {
                            disjoint_paths_into(h, u, v, GRAY, &mut self.out, &mut m.builder)
                        })
                        .expect("valid pair");
                    }
                    (true, Tier::L2) => {
                        t.time("l2", Some(id), qid, || {
                            disjoint_paths_into(h, u, v, GRAY, &mut self.out, &mut self.l2_only)
                        })
                        .expect("valid pair");
                    }
                    (_, Tier::Cold) => {
                        self.cold.run(t, h, (u, v), Some(id), qid);
                    }
                    (false, _) => {}
                }
                top[w].push(id);
                work[w] += t.span(id).dur();
            }
        }
        if let Some((t, service, _)) = ctx {
            let critical = (0..threads)
                .max_by_key(|&w| work[w])
                .expect("at least one worker");
            for &id in &top[critical] {
                t.reparent(id, Some(service));
            }
        }
    }
}
