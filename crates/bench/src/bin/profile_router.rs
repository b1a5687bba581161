//! Sustained-throughput profiler for the concurrent routing service:
//! measures queries/sec of a [`Router`] worker pool under a live fault
//! feed, across thread counts and the three reuse workloads the batch
//! profiler uses (uniform / permutation / hotspot), against two ablation
//! baselines:
//!
//! * `l1_only` — the same pool with the shared L2 tier disabled
//!   (per-worker caches only: what PR 4 already shipped);
//! * `rebuild` — every fault event flushes both cache tiers
//!   ([`Router::flush_caches`]), the classic correct-but-crude answer to
//!   "a fault arrived, the cache might be stale". The tiered router
//!   instead keeps its fault-blind entries and repairs lazily, so the
//!   gated `speedup` is tiered_qps / rebuild_qps.
//!
//! The fault feed toggles interior nodes of answered families (so lazy
//! invalidation actually fires) on a balanced schedule — every add is
//! later cleared — which keeps each timed pass starting from an empty
//! fault set. Before timing, every router mode's answers over the full
//! schedule are asserted byte-identical to a serial cold-cache oracle;
//! the speedups below are speedups *between equivalent outputs*.
//!
//! Timed passes serve through [`Router::query_many_into`] into one
//! reused [`QueryBatchResult`] — the pipeline the service ships. The
//! materialising [`Router::query_many`] shim is timed separately on the
//! tiered router (`tiered_shim_qps`) and gates nothing.
//!
//! `--quick` runs a reduced workload and writes
//! `results/BENCH_router.quick.json` (CI smoke + `perf_gate` input);
//! full runs write `results/BENCH_router.json`.

use hhc_core::service::{DEFAULT_L2_SHARDS, DEFAULT_L2_SHARD_CAPACITY};
use hhc_core::{
    disjoint, disjoint_paths_avoiding, disjoint_paths_avoiding_into, disjoint_paths_into,
    CacheConfig, CrossingOrder, Hhc, L2Config, NodeId, PathBuilder, PathSet, QueryBatchResult,
    QueryResult, Router, RouterConfig, SharedFamilyCache,
};
use obs::json;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, RwLock};
use std::time::Instant;

fn min_time<F: FnMut()>(repeats: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// One serving workload: a pair sequence plus its reuse label.
struct Workload {
    name: &'static str,
    distinct: usize,
    pairs: Vec<(NodeId, NodeId)>,
}

/// The same three reuse profiles as `profile_batch` (same seeds, so the
/// two sidecars describe the same traffic).
fn make_workloads(h: &Hhc, total: usize, pool: usize) -> Vec<Workload> {
    let uniform = workloads::sampling::random_pairs(h, total, 0x10_000);
    let perm_pool = workloads::sampling::random_pairs(h, pool, 0x22_222);
    let permutation: Vec<_> = perm_pool.iter().copied().cycle().take(total).collect();
    let hot_pool = workloads::sampling::random_pairs(h, pool + 1, 0x33_333);
    let hot = hot_pool[0].0;
    let hot_pairs: Vec<_> = hot_pool[1..]
        .iter()
        .map(|&(s, _)| (s, hot))
        .filter(|&(s, _)| s != hot)
        .collect();
    let hotspot: Vec<_> = hot_pairs.iter().copied().cycle().take(total).collect();
    vec![
        Workload {
            name: "uniform",
            distinct: total,
            pairs: uniform,
        },
        Workload {
            name: "permutation",
            distinct: pool,
            pairs: permutation,
        },
        Workload {
            name: "hotspot",
            distinct: hot_pairs.len(),
            pairs: hotspot,
        },
    ]
}

/// Picks fault-feed targets: interior nodes of the workload's own plain
/// families (so cached entries really do get blocked), skipping nodes
/// that appear as endpoints anywhere in the workload (a faulty endpoint
/// short-circuits to an error, which would pad qps in every mode).
fn fault_pool(h: &Hhc, pairs: &[(NodeId, NodeId)], want: usize) -> Vec<NodeId> {
    let endpoints: HashSet<NodeId> = pairs.iter().flat_map(|&(u, v)| [u, v]).collect();
    let mut seen = HashSet::new();
    let mut pool = Vec::new();
    for &(u, v) in pairs {
        if pool.len() >= want {
            break;
        }
        let Ok(paths) = disjoint::disjoint_paths(h, u, v, CrossingOrder::Gray) else {
            continue;
        };
        for p in &paths {
            let w = p[p.len() / 2];
            if p.len() > 2 && !endpoints.contains(&w) && seen.insert(w) {
                pool.push(w);
            }
        }
    }
    assert!(!pool.is_empty(), "no interior fault targets found");
    pool.truncate(want);
    pool
}

/// Per-batch fault events, applied *before* each batch; the extra
/// trailing slot (index `n_batches`) runs after the last batch. Events
/// alternate add/clear of the same node, so the schedule is balanced:
/// every pass starts and ends with an empty fault set, making repeats
/// identical work.
fn make_schedule(n_batches: usize, every: usize, pool: &[NodeId]) -> Vec<Vec<(NodeId, bool)>> {
    let mut schedule = vec![Vec::new(); n_batches + 1];
    let mut e = 0usize;
    let mut b = every;
    while b < n_batches {
        schedule[b].push((pool[(e / 2) % pool.len()], e.is_multiple_of(2)));
        e += 1;
        b += every;
    }
    if e % 2 == 1 {
        schedule[n_batches].push((pool[((e - 1) / 2) % pool.len()], false));
    }
    schedule
}

/// The serial cold-cache oracle over the same batches and fault
/// schedule: every query solved from scratch at its linearisation point.
fn oracle_answers(
    h: &Hhc,
    batches: &[&[(NodeId, NodeId)]],
    schedule: &[Vec<(NodeId, bool)>],
) -> Vec<QueryResult> {
    let mut faults: HashSet<NodeId> = HashSet::new();
    let mut out = Vec::new();
    for (b, batch) in batches.iter().enumerate() {
        for &(w, add) in &schedule[b] {
            if add {
                faults.insert(w);
            } else {
                faults.remove(&w);
            }
        }
        for &(u, v) in *batch {
            out.push(
                disjoint_paths_avoiding(h, u, v, CrossingOrder::Gray, &faults).map(|(p, _)| p),
            );
        }
    }
    out
}

/// Feeds the whole schedule through a router: fault events before each
/// batch (plus the trailing balance slot), each batch handed to `serve`.
/// `rebuild` flushes both cache tiers after every event — the baseline.
fn run_pass(
    router: &mut Router,
    batches: &[&[(NodeId, NodeId)]],
    schedule: &[Vec<(NodeId, bool)>],
    rebuild: bool,
    mut serve: impl FnMut(&mut Router, &[(NodeId, NodeId)]),
) {
    let apply = |router: &mut Router, events: &[(NodeId, bool)]| {
        for &(w, add) in events {
            if add {
                router.add_fault(w);
            } else {
                router.clear_fault(w);
            }
            if rebuild {
                router.flush_caches();
            }
        }
    };
    for (b, batch) in batches.iter().enumerate() {
        apply(router, &schedule[b]);
        serve(router, batch);
    }
    apply(router, &schedule[batches.len()]);
}

/// The PR 9-shaped shared-tier baseline for the hit-path
/// microbenchmark: lock-striped `RwLock<HashMap>` shards (std SipHash,
/// as shipped); a probe takes the shard read lock and clones the entry
/// out to release the lock before replaying. Paired below with the
/// per-query `Vec<Path>` materialisation the PR 9 worker loop
/// performed, this reproduces that pipeline's per-hit work; the current
/// tier answers the same probe from its published append-only tables
/// with no lock and no per-query allocation.
struct StripedL2 {
    shards: Vec<RwLock<HashMap<u128, StripedEntry>>>,
    shard_mask: usize,
}

struct StripedEntry {
    nodes: Box<[u128]>,
    offsets: Box<[u32]>,
}

impl StripedL2 {
    fn new(shards: usize) -> Self {
        let n = shards.next_power_of_two();
        StripedL2 {
            shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
            shard_mask: n - 1,
        }
    }

    fn shard_of(&self, key: u128) -> usize {
        let h = ((key ^ (key >> 64)) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & self.shard_mask
    }

    fn store(&self, key: u128, set: &PathSet) {
        let mut nodes = Vec::with_capacity(set.total_nodes());
        let mut offsets = Vec::with_capacity(set.len() + 1);
        offsets.push(0u32);
        for p in set.iter() {
            nodes.extend(p.iter().map(|v| v.raw()));
            offsets.push(nodes.len() as u32);
        }
        self.shards[self.shard_of(key)].write().unwrap().insert(
            key,
            StripedEntry {
                nodes: nodes.into_boxed_slice(),
                offsets: offsets.into_boxed_slice(),
            },
        );
    }

    fn replay(&self, key: u128, out: &mut PathSet) -> bool {
        // Clone under the read lock, replay after releasing it — the
        // shortest-lock-hold discipline the striped design forces.
        let e = {
            let shard = self.shards[self.shard_of(key)].read().unwrap();
            let Some(e) = shard.get(&key) else {
                return false;
            };
            StripedEntry {
                nodes: e.nodes.clone(),
                offsets: e.offsets.clone(),
            }
        };
        for w in e.offsets.windows(2) {
            for &raw in &e.nodes[w[0] as usize..w[1] as usize] {
                out.push_node(NodeId::from_raw(raw));
            }
            out.finish_path();
        }
        true
    }
}

/// Hit-path microbenchmark: every query replays a cached family
/// (hit-heavy: the pool fits every tier), comparing the current
/// lock-free tier against the PR 9 striped-RwLock pipeline.
///
/// The lock-free side runs the *full* public serving path
/// ([`disjoint_paths_avoiding_into`] on a builder whose L1 is disabled,
/// so every query is a lock-free L2 probe plus the avoiding layer's
/// validation) into a reused `PathSet`. The striped side replays the
/// identical families from the [`StripedL2`] baseline and materialises
/// per-query `Vec<Path>`s, as the PR 9 worker did — it skips the
/// validation/metrics work the real path pays, so the reported speedup
/// is conservative.
fn hit_path_bench(h: &Hhc, repeats: usize, pool_sz: usize, iters: usize) -> String {
    let m = h.m();
    let pairs = workloads::sampling::random_pairs(h, pool_sz, 0x417_0000 + m as u64);
    let empty: HashSet<NodeId> = HashSet::new();

    // Lock-free side: the shared tier, no L1 in front.
    let l2 = Arc::new(SharedFamilyCache::new(L2Config::enabled()));
    let no_l1 = CacheConfig {
        fan_capacity: 0,
        family_capacity: 0,
    };
    let mut builder = PathBuilder::with_caches(no_l1);
    builder.attach_shared_cache(Arc::clone(&l2));
    let mut out = PathSet::new();

    // Striped baseline, fed the *same* families (byte-identical slabs).
    let striped = StripedL2::new(16);
    for (i, &(u, v)) in pairs.iter().enumerate() {
        disjoint_paths_avoiding_into(h, u, v, CrossingOrder::Gray, &empty, &mut out, &mut builder)
            .unwrap();
        striped.store(i as u128, &out);
        // Sanity: the baseline replays exactly what the tier serves.
        let mut back = PathSet::new();
        assert!(striped.replay(i as u128, &mut back));
        assert_eq!(back, out, "striped baseline diverged from the tier");
    }

    let secs_lockfree = min_time(repeats, || {
        for _ in 0..iters {
            for &(u, v) in &pairs {
                disjoint_paths_avoiding_into(
                    h,
                    u,
                    v,
                    CrossingOrder::Gray,
                    &empty,
                    &mut out,
                    &mut builder,
                )
                .unwrap();
                std::hint::black_box(&out);
            }
        }
    });
    let c = builder.metrics().construction;
    assert_eq!(c.family_hits, 0, "L1 is disabled in the hit bench");
    assert_eq!(
        c.l2_misses as usize,
        pairs.len(),
        "only the warm-up pass constructs"
    );

    let secs_striped = min_time(repeats, || {
        for _ in 0..iters {
            for i in 0..pairs.len() {
                out.clear();
                assert!(striped.replay(i as u128, &mut out));
                // The PR 9 pipeline handed every answer back as an owned
                // Vec<Path>; that allocation is part of its hit path.
                std::hint::black_box(out.to_paths());
            }
        }
    });

    let queries = (pairs.len() * iters) as f64;
    let lockfree_qps = queries / secs_lockfree;
    let striped_qps = queries / secs_striped;
    let hit_speedup = lockfree_qps / striped_qps;
    println!(
        "hit path m={m}  lockfree {:9.0} qps  striped+clone {:9.0} qps  speedup {:4.2}x",
        lockfree_qps, striped_qps, hit_speedup
    );
    let mut ro = json::Obj::new();
    ro.str("case", &format!("hit_m{m}"));
    ro.u64("pool", pairs.len() as u64);
    ro.u64("iters", iters as u64);
    ro.f64("lockfree_qps", lockfree_qps);
    ro.f64("striped_qps", striped_qps);
    ro.f64("hit_speedup", hit_speedup);
    ro.finish()
}

/// L2 store microbenchmark, by the `l2.store_us` definition: per-query
/// time of a cold build with the L1 off and the L2 attached (every key
/// is new, so every build ends in a store) minus the same build with no
/// caches. The tier is first filled with one default tier's worth of
/// other keys, so the timed stores run at steady-state occupancy. Each
/// repeat stores a fresh chunk of keys; both sides take their minimum.
fn l2_store_bench(h: &Hhc, repeats: usize, n: usize) -> String {
    let fill = DEFAULT_L2_SHARDS * DEFAULT_L2_SHARD_CAPACITY;
    let mut seen = HashSet::new();
    let pairs: Vec<(NodeId, NodeId)> =
        workloads::sampling::random_pairs(h, 2 * (fill + repeats * n), 0x5_7023)
            .into_iter()
            .filter(|&(u, v)| {
                seen.insert((
                    h.cube_field(u) ^ h.cube_field(v),
                    h.node_field(u),
                    h.node_field(v),
                ))
            })
            .take(fill + repeats * n)
            .collect();
    assert_eq!(
        pairs.len(),
        fill + repeats * n,
        "enough distinct family keys"
    );
    let l2 = Arc::new(SharedFamilyCache::new(L2Config::enabled()));
    let mut stored = PathBuilder::with_caches(CacheConfig::disabled());
    stored.attach_shared_cache(Arc::clone(&l2));
    let mut plain = PathBuilder::with_caches(CacheConfig::disabled());
    let mut out = PathSet::new();
    let mut build = |b: &mut PathBuilder, chunk: &[(NodeId, NodeId)]| {
        let t = Instant::now();
        for &(u, v) in chunk {
            disjoint_paths_into(h, u, v, CrossingOrder::Gray, &mut out, b).unwrap();
            std::hint::black_box(&out);
        }
        t.elapsed().as_secs_f64()
    };
    let (warm, timed) = pairs.split_at(fill);
    build(&mut stored, warm);
    let (mut secs_plain, mut secs_stored) = (f64::INFINITY, f64::INFINITY);
    for chunk in timed.chunks(n) {
        secs_plain = secs_plain.min(build(&mut plain, chunk));
        secs_stored = secs_stored.min(build(&mut stored, chunk));
    }
    let c = stored.metrics().construction;
    assert_eq!(c.l2_hits, 0, "every stored key is new");
    assert_eq!(
        c.l2_misses as usize,
        pairs.len(),
        "every build probed the L2"
    );
    let cold_build_us = secs_plain / n as f64 * 1e6;
    let l2_build_us = secs_stored / n as f64 * 1e6;
    let store_us = l2_build_us - cold_build_us;
    println!(
        "l2 store m={}  cold build {cold_build_us:6.2} us  with L2 store {l2_build_us:6.2} us  \
         store {store_us:6.2} us/query",
        h.m()
    );
    let mut ro = json::Obj::new();
    ro.str("case", "l2_store");
    ro.u64("m", h.m() as u64);
    ro.u64("fill", fill as u64);
    ro.u64("pool", n as u64);
    ro.f64("cold_build_us", cold_build_us);
    ro.f64("l2_build_us", l2_build_us);
    ro.f64("l2_store_us", store_us);
    ro.finish()
}

/// The three router modes per cell.
const MODES: [&str; 3] = ["tiered", "l1_only", "rebuild"];

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    // (timing repeats, pairs per workload, distinct pool, batch size,
    //  fault event every N batches, thread sweep)
    let (repeats, total, pool_sz, batch_sz, fault_every, threads): (_, _, _, _, _, &[usize]) =
        if quick {
            (1, 240, 24, 48, 1, &[1, 2])
        } else {
            (3, 4000, 256, 256, 1, &[1, 2, 4])
        };
    let h = Hhc::new(5).unwrap();
    println!(
        "router profile: HHC(5), {total} pairs/workload, batches of {batch_sz}, \
         fault event every {fault_every} batch(es), min over {repeats} repeat(s)"
    );

    let mut rows: Vec<String> = Vec::new();
    for w in make_workloads(&h, total, pool_sz) {
        let batches: Vec<&[(NodeId, NodeId)]> = w.pairs.chunks(batch_sz).collect();
        let pool = fault_pool(&h, &w.pairs, 8);
        let schedule = make_schedule(batches.len(), fault_every, &pool);
        let fault_events: usize = schedule.iter().map(Vec::len).sum();
        let want = oracle_answers(&h, &batches, &schedule);

        for &t in threads {
            let mut qps = [f64::NAN; MODES.len()];
            let mut shim_qps = f64::NAN;
            let mut tiered_metrics = None;
            for (mi, &mode) in MODES.iter().enumerate() {
                let cfg = RouterConfig {
                    threads: t,
                    order: CrossingOrder::Gray,
                    l1: hhc_core::CacheConfig::enabled(),
                    l2: if mode == "l1_only" {
                        L2Config::disabled()
                    } else {
                        L2Config::enabled()
                    },
                };
                let mut router = Router::new(5, cfg).unwrap();
                let rebuild = mode == "rebuild";
                let mut out = QueryBatchResult::new();
                // Warmup pass doubles as the equivalence check: every
                // mode must answer exactly like the cold-cache oracle.
                // Only this untimed pass materialises owned answers.
                let mut got: Vec<QueryResult> = Vec::with_capacity(want.len());
                run_pass(&mut router, &batches, &schedule, rebuild, |r, b| {
                    r.query_many_into(b, &mut out);
                    got.extend(out.to_results());
                });
                assert_eq!(
                    got, want,
                    "{} mode diverged from the oracle on {}",
                    mode, w.name
                );
                // Timed passes run the shipped pipeline: answers land in
                // one reused arena, with no per-query allocation.
                let secs = min_time(repeats, || {
                    run_pass(&mut router, &batches, &schedule, rebuild, |r, b| {
                        r.query_many_into(b, &mut out);
                        std::hint::black_box(&out);
                    });
                });
                qps[mi] = w.pairs.len() as f64 / secs;
                if mode == "tiered" {
                    tiered_metrics = Some(router.metrics().construction);
                    // The owned `query_many` shim, timed on its own row.
                    let mut sink: Vec<QueryResult> = Vec::with_capacity(want.len());
                    let secs = min_time(repeats, || {
                        sink.clear();
                        run_pass(&mut router, &batches, &schedule, rebuild, |r, b| {
                            sink.extend(r.query_many(b));
                        });
                        std::hint::black_box(&sink);
                    });
                    shim_qps = w.pairs.len() as f64 / secs;
                }
            }
            let c = tiered_metrics.expect("tiered mode always runs");
            let l2_probes = c.l2_hits + c.l2_misses;
            let l2_hit_rate = if l2_probes > 0 {
                c.l2_hits as f64 / l2_probes as f64
            } else {
                f64::NAN
            };
            let speedup = qps[0] / qps[2];
            let speedup_vs_l1 = qps[0] / qps[1];
            println!(
                "{:11} ({:5} distinct) t={}  tiered {:9.0} qps  l1_only {:9.0} qps  \
                 rebuild {:9.0} qps  speedup {:5.2}x (vs l1 {:4.2}x)  l2 hits {:5.1}%  \
                 invalidations {}  (tiered shim {:9.0} qps)",
                w.name,
                w.distinct,
                t,
                qps[0],
                qps[1],
                qps[2],
                speedup,
                speedup_vs_l1,
                l2_hit_rate * 100.0,
                c.l2_invalidations,
                shim_qps,
            );
            let mut ro = json::Obj::new();
            ro.str("workload", &format!("{}_t{}", w.name, t));
            ro.u64("threads", t as u64);
            ro.u64("distinct_pairs", w.distinct as u64);
            ro.u64("fault_events", fault_events as u64);
            ro.f64("tiered_qps", qps[0]);
            ro.f64("l1_only_qps", qps[1]);
            ro.f64("rebuild_qps", qps[2]);
            ro.f64("tiered_shim_qps", shim_qps);
            ro.f64("speedup", speedup);
            ro.f64("speedup_vs_l1", speedup_vs_l1);
            ro.f64("l2_hit_rate", l2_hit_rate);
            ro.f64("family_hit_rate", c.family_hit_rate().unwrap_or(f64::NAN));
            ro.u64("l2_invalidations", c.l2_invalidations);
            ro.u64("fault_reroutes", c.fault_reroutes);
            rows.push(ro.finish());
        }
    }

    // Hit-path microbenchmark: lock-free tier vs the PR 9
    // striped-RwLock pipeline on a replay-only workload, at two network
    // sizes (family length scales with m).
    let (hit_pool, hit_iters) = if quick { (32, 50) } else { (64, 400) };
    let mut hit_rows: Vec<String> = [3u32, 5]
        .iter()
        .map(|&m| hit_path_bench(&Hhc::new(m).unwrap(), repeats, hit_pool, hit_iters))
        .collect();
    // The miss side of the same tier: what one store adds to a build.
    hit_rows.push(l2_store_bench(&h, repeats, if quick { 200 } else { 1000 }));

    let mut o = json::Obj::new();
    o.str("bench", "profile_router");
    o.u64("quick", quick as u64);
    o.u64("m", 5);
    o.u64("pairs_per_workload", total as u64);
    o.u64("batch_size", batch_sz as u64);
    o.u64("fault_every_batches", fault_every as u64);
    // 1-CPU containers make thread-sweep numbers self-explanatory only
    // with the host parallelism recorded next to them.
    o.u64(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
    );
    o.raw(
        "threads_swept",
        &json::u64_array(&threads.iter().map(|&t| t as u64).collect::<Vec<_>>()),
    );
    o.raw("cells", &json::array(&rows));
    o.raw("hit_path", &json::array(&hit_rows));
    let payload = o.finish();
    // Quick runs feed the perf_gate regression check and must never
    // overwrite the committed full-run results.
    let path = if quick {
        "results/BENCH_router.quick.json"
    } else {
        "results/BENCH_router.json"
    };
    if let Err(e) =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write(path, payload.as_bytes()))
    {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("\nwrote {path}");
    }
}
