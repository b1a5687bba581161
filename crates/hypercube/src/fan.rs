//! Disjoint fans in `Q_n`: paths from one source to many targets,
//! pairwise vertex-disjoint except at the source.
//!
//! Menger's fan lemma guarantees a fan to any `k ≤ n` distinct targets.
//! The HHC construction needs fans only *inside a son-cube* (`Q_m`, at most
//! `2^m ≤ 64` nodes for every supported `m`), so an exact max-flow
//! formulation is both simple and effectively free; it also returns a
//! *minimum total length* fan, because each augmenting BFS phase of Dinic
//! saturates shortest augmenting paths first on this unit-capacity network.
//!
//! Flow model: vertex split (`x_in → x_out`, capacity 1; source unbounded),
//! each cube edge in both directions with capacity 1, and one arc
//! `t_out → sink` per target. Max-flow equals the fan size; extraction
//! walks positive-flow arcs from the source.

use crate::cube::{Cube, CubeError, Node};
use crate::fancache::{FanCache, FanEntry};
use graphs::{ArcId, Dinic};

/// Errors from fan construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FanError {
    /// Underlying cube error (bad dimension / label).
    Cube(CubeError),
    /// Targets must be distinct and different from the source.
    BadTargets,
    /// More targets than the cube's connectivity can support.
    TooManyTargets { targets: usize, dim: u32 },
    /// Fans are computed by flow on the materialised cube; `n ≤ 16` only.
    CubeTooLarge(u32),
}

impl std::fmt::Display for FanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FanError::Cube(e) => write!(f, "{e}"),
            FanError::BadTargets => write!(f, "targets must be distinct and ≠ source"),
            FanError::TooManyTargets { targets, dim } => {
                write!(f, "{targets} targets exceed connectivity {dim}")
            }
            FanError::CubeTooLarge(n) => write!(f, "fan computation limited to n ≤ 16, got {n}"),
        }
    }
}

impl std::error::Error for FanError {}

impl From<CubeError> for FanError {
    fn from(e: CubeError) -> Self {
        FanError::Cube(e)
    }
}

/// Effort counters accumulated by a [`FanScratch`] across queries.
///
/// Plain `u64` increments on paths that already run a max-flow solve —
/// unconditionally enabled. Solver-level effort (BFS passes, arc
/// mutations) is reported separately via [`FanScratch::solver_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FanMetrics {
    /// Validated [`fan_paths_into`] calls (including empty target sets).
    pub queries: u64,
    /// Total targets across all queries (= total fan paths produced).
    pub targets_requested: u64,
    /// Targets adjacent to the source whose direct edge was seeded,
    /// bypassing the solver (counts fast-path targets too).
    pub seeded_direct: u64,
    /// Flow networks (re)built because the cube dimension changed.
    pub network_builds: u64,
    /// Queries answered by the combinatorial neighbour-fan fast path
    /// (all targets adjacent to the source; no solver, no cache).
    pub fast_path: u64,
    /// [`fan_paths_cached`] queries answered from the [`FanCache`].
    pub cache_hits: u64,
    /// [`fan_paths_cached`] queries that had to solve (and, capacity
    /// permitting, populated the cache).
    pub cache_misses: u64,
}

impl FanMetrics {
    /// Element-wise accumulation (for merging per-thread scratches).
    pub fn merge(&mut self, other: &FanMetrics) {
        self.queries += other.queries;
        self.targets_requested += other.targets_requested;
        self.seeded_direct += other.seeded_direct;
        self.network_builds += other.network_builds;
        self.fast_path += other.fast_path;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }

    /// Cache hit rate over [`fan_paths_cached`] queries that reached the
    /// cache (fast-path queries never do); `None` before any such query.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let probes = self.cache_hits + self.cache_misses;
        (probes > 0).then(|| self.cache_hits as f64 / probes as f64)
    }
}

#[inline]
fn v_in(v: u32) -> u32 {
    2 * v
}
#[inline]
fn v_out(v: u32) -> u32 {
    2 * v + 1
}

const UNSET: u32 = u32::MAX;

/// Reusable state for [`fan_paths_into`]: the vertex-split flow network
/// for one cube dimension, capacity/flow rewind tables, and the output
/// arena. Building the network is the dominant cost of a fan query;
/// keeping it across queries (the batch engine's per-thread scratch
/// pattern) turns each query into a capacity reset plus one small
/// max-flow, with zero steady-state allocation.
pub struct FanScratch {
    /// Cube dimension the network was built for (`UNSET` = not built).
    dim: u32,
    dinic: Option<Dinic>,
    /// Default capacity per forward arc, in `add_edge` order.
    default_caps: Vec<u32>,
    /// Arc `v_in(v) → v_out(v)` per node.
    vertex_arc: Vec<ArcId>,
    /// Arc `v_out(v) → v_in(v ⊕ 2^dim)` at index `v·n + dim`.
    edge_arc: Vec<ArcId>,
    /// Arc `v_out(v) → sink` per node (default capacity 0).
    terminal_arc: Vec<ArcId>,
    /// Per-call: index of each node in `targets`, or `UNSET`.
    target_idx: Vec<u32>,
    /// Per-call: remaining decomposable flow per forward arc.
    rem: Vec<u32>,
    /// Decomposition output in discovery order (flat CSR).
    tmp_nodes: Vec<Node>,
    tmp_offsets: Vec<u32>,
    /// `path_of_target[i]` = index into `tmp_offsets` of target `i`'s path.
    path_of_target: Vec<u32>,
    /// Per-call canonicalisation: `(target ⊕ s, original index)`, sorted.
    canon: Vec<(Node, u32)>,
    /// Per-call: the sorted canonical targets as a plain node slice.
    canon_nodes: Vec<Node>,
    /// Per-call: canonical-order path indices being remapped.
    pot_tmp: Vec<u32>,
    /// Monotone effort counters; see [`FanMetrics`].
    metrics: FanMetrics,
}

impl FanScratch {
    pub fn new() -> Self {
        FanScratch {
            dim: UNSET,
            dinic: None,
            default_caps: Vec::new(),
            vertex_arc: Vec::new(),
            edge_arc: Vec::new(),
            terminal_arc: Vec::new(),
            target_idx: Vec::new(),
            rem: Vec::new(),
            tmp_nodes: Vec::new(),
            tmp_offsets: Vec::new(),
            path_of_target: Vec::new(),
            canon: Vec::new(),
            canon_nodes: Vec::new(),
            pot_tmp: Vec::new(),
            metrics: FanMetrics::default(),
        }
    }

    /// Effort counters accumulated since construction or the last
    /// [`FanScratch::reset_metrics`].
    pub fn metrics(&self) -> FanMetrics {
        self.metrics
    }

    /// Zeroes the effort counters (network and solver state untouched).
    pub fn reset_metrics(&mut self) {
        self.metrics = FanMetrics::default();
        if let Some(d) = self.dinic.as_mut() {
            d.reset_stats();
        }
    }

    /// Counters of the underlying max-flow solver, accumulated across
    /// every query since the network was built (default if never built).
    pub fn solver_stats(&self) -> graphs::DinicStats {
        self.dinic.as_ref().map(|d| d.stats()).unwrap_or_default()
    }

    /// Number of fan paths produced by the last [`fan_paths_into`] call.
    pub fn num_paths(&self) -> usize {
        self.path_of_target.len()
    }

    /// Whether `targets[i]` was served by the last [`fan_paths_avoiding`]
    /// call. Plain fan entry points always serve every target (the fan
    /// lemma guarantees it), so this is only informative after an
    /// avoiding query, where forbidden nodes may make some targets
    /// unreachable. Reading [`FanScratch::path`] for an unserved target
    /// is a logic error (it panics).
    pub fn target_served(&self, i: usize) -> bool {
        self.path_of_target[i] != UNSET
    }

    /// The fan path to `targets[i]` from the last call (`s → targets[i]`).
    pub fn path(&self, i: usize) -> &[Node] {
        let p = self.path_of_target[i] as usize;
        let (a, b) = (
            self.tmp_offsets[p] as usize,
            self.tmp_offsets[p + 1] as usize,
        );
        &self.tmp_nodes[a..b]
    }

    /// Builds (or rebuilds) the flow network for dimension `n`.
    fn ensure_network(&mut self, n: u32) {
        if self.dim == n {
            return;
        }
        let num = 1u32 << n;
        let sink = 2 * num;
        let mut d = Dinic::new(sink as usize + 1);
        self.default_caps.clear();
        self.vertex_arc.clear();
        self.edge_arc.clear();
        self.edge_arc.resize((num * n.max(1)) as usize, UNSET);
        self.terminal_arc.clear();
        for v in 0..num {
            self.vertex_arc.push(d.add_edge(v_in(v), v_out(v), 1));
            self.default_caps.push(1);
        }
        for v in 0..num {
            for dim in 0..n {
                // Add each undirected edge once, as two directed arcs.
                let w = v ^ (1u32 << dim);
                if v < w {
                    self.edge_arc[(v * n + dim) as usize] = d.add_edge(v_out(v), v_in(w), 1);
                    self.default_caps.push(1);
                    self.edge_arc[(w * n + dim) as usize] = d.add_edge(v_out(w), v_in(v), 1);
                    self.default_caps.push(1);
                }
            }
        }
        // A terminal arc per node, default capacity 0: per-call target
        // sets just raise their own arcs to 1.
        for v in 0..num {
            self.terminal_arc.push(d.add_edge(v_out(v), sink, 0));
            self.default_caps.push(0);
        }
        self.dinic = Some(d);
        self.dim = n;
        self.metrics.network_builds += 1;
    }
}

impl Default for FanScratch {
    fn default() -> Self {
        FanScratch::new()
    }
}

/// Computes a fan: one path from `s` to each target, pairwise
/// vertex-disjoint except at `s`. Paths are returned in target order
/// (`paths[i]` ends at `targets[i]`).
///
/// Requires `targets.len() ≤ n` (fan lemma bound) and `n ≤ 16`
/// (the cube is materialised as a flow network of `2^{n+1} + 1` nodes).
///
/// Allocates the flow network per call; hot paths should hold a
/// [`FanScratch`] and call [`fan_paths_into`] instead.
///
/// # Examples
/// ```
/// use hypercube::{Cube, fan};
/// let q = Cube::new(3).unwrap();
/// let fan = fan::fan_paths(&q, 0b000, &[0b011, 0b101, 0b110]).unwrap();
/// assert_eq!(fan.len(), 3);
/// fan::check_fan(&q, 0b000, &[0b011, 0b101, 0b110], &fan).unwrap();
/// ```
pub fn fan_paths(cube: &Cube, s: Node, targets: &[Node]) -> Result<Vec<Vec<Node>>, FanError> {
    let mut scratch = FanScratch::new();
    fan_paths_into(cube, s, targets, &mut scratch)?;
    Ok((0..scratch.num_paths())
        .map(|i| scratch.path(i).to_vec())
        .collect())
}

/// [`fan_paths`] writing into caller-owned buffers: the fan is computed
/// inside `scratch` and read back through [`FanScratch::path`]. After the
/// first call at a given dimension, subsequent calls allocate nothing.
///
/// # Panics
///
/// Panics only on an internal invariant violation: the fan lemma
/// guarantees a fan of size `targets.len()` exists whenever the validated
/// preconditions hold, so a smaller max-flow (or a stuck decomposition)
/// indicates a bug in this module, never bad input — all input errors are
/// reported as [`FanError`].
pub fn fan_paths_into(
    cube: &Cube,
    s: Node,
    targets: &[Node],
    scratch: &mut FanScratch,
) -> Result<(), FanError> {
    let n = validate_and_index(cube, s, targets, scratch)?;
    if targets.is_empty() {
        return Ok(());
    }
    if all_adjacent(s, targets) {
        write_direct_fan(s, targets, scratch);
        return Ok(());
    }
    solve_dinic(n, s, targets, 0, scratch);
    Ok(())
}

/// [`fan_paths_into`] restricted to the fault-free subcube: nodes whose
/// bit is set in `forbidden` are excluded from the flow network (their
/// vertex capacity is zeroed), so no returned path visits them.
///
/// Unlike the plain entry points this is *best-effort*: forbidden nodes
/// can disconnect targets from the source, so instead of asserting the
/// fan-lemma value this returns the number of targets actually served.
/// Check [`FanScratch::target_served`] per target before reading its
/// path. With `forbidden == 0` this is exactly [`fan_paths_into`] and
/// serves every target.
///
/// Never consults or populates the [`FanCache`] — cached entries are
/// keyed on `(s, targets)` only and would be unsound to replay against
/// an arbitrary fault set. The HHC fault-avoiding construction calls
/// this rarely (only on queries whose plain family is actually blocked),
/// so the uncached solve is not a hot path.
///
/// `forbidden` is a bitmask over node labels, so this entry point is
/// limited to `n ≤ 6` (64 nodes) — every HHC son-cube qualifies.
pub fn fan_paths_avoiding(
    cube: &Cube,
    s: Node,
    targets: &[Node],
    forbidden: u64,
    scratch: &mut FanScratch,
) -> Result<usize, FanError> {
    if cube.dim() > 6 {
        return Err(FanError::CubeTooLarge(cube.dim()));
    }
    let n = validate_and_index(cube, s, targets, scratch)?;
    debug_assert_eq!(forbidden >> s & 1, 0, "source itself forbidden");
    if targets.is_empty() {
        return Ok(0);
    }
    if all_adjacent(s, targets) && targets.iter().all(|&t| forbidden >> t & 1 == 0) {
        // Direct edges bypass every interior node, so faults elsewhere in
        // the cube cannot invalidate the star fan.
        write_direct_fan(s, targets, scratch);
        return Ok(targets.len());
    }
    Ok(solve_dinic(n, s, targets, forbidden, scratch) as usize)
}

/// Input validation shared by every fan entry point. On success the
/// output arena is cleared, `target_idx` maps node labels to positions in
/// `targets`, and the query is counted in the metrics.
fn validate_and_index(
    cube: &Cube,
    s: Node,
    targets: &[Node],
    scratch: &mut FanScratch,
) -> Result<u32, FanError> {
    let n = cube.dim();
    if n > 16 {
        return Err(FanError::CubeTooLarge(n));
    }
    cube.check(s)?;
    for &t in targets {
        cube.check(t)?;
    }
    if targets.len() > n as usize {
        return Err(FanError::TooManyTargets {
            targets: targets.len(),
            dim: n,
        });
    }
    scratch.tmp_nodes.clear();
    scratch.tmp_offsets.clear();
    scratch.tmp_offsets.push(0);
    scratch.path_of_target.clear();

    // Duplicate/source detection doubles as the target index used by the
    // flow decomposition.
    scratch.target_idx.clear();
    scratch.target_idx.resize(1usize << n, UNSET);
    for (i, &t) in targets.iter().enumerate() {
        if t == s || scratch.target_idx[t as usize] != UNSET {
            return Err(FanError::BadTargets);
        }
        scratch.target_idx[t as usize] = i as u32;
    }
    scratch.metrics.queries += 1;
    scratch.metrics.targets_requested += targets.len() as u64;
    Ok(n)
}

#[inline]
fn all_adjacent(s: Node, targets: &[Node]) -> bool {
    targets.iter().all(|&t| (t ^ s).count_ones() == 1)
}

/// Combinatorial fast path: when every target is a neighbour of `s`, the
/// unique minimum fan is the star of direct edges — exactly what the flow
/// formulation returns after seeding (each target's vertex capacity is
/// consumed by its own terminal unit, so no seeded edge is ever rerouted).
/// Writing it directly skips the solver, and even network construction.
fn write_direct_fan(s: Node, targets: &[Node], scratch: &mut FanScratch) {
    for (i, &t) in targets.iter().enumerate() {
        scratch.tmp_nodes.push(s);
        scratch.tmp_nodes.push(t);
        scratch.tmp_offsets.push(scratch.tmp_nodes.len() as u32);
        scratch.path_of_target.push(i as u32);
    }
    scratch.metrics.seeded_direct += targets.len() as u64;
    scratch.metrics.fast_path += 1;
}

/// The one fan solver: seeds direct edges, runs unit max-flow, and
/// decomposes the flow into the output arena. Requires
/// [`validate_and_index`] to have set up `target_idx` for exactly this
/// `(s, targets)` query, and `targets` non-empty.
///
/// Nodes whose bit is set in `forbidden` (non-zero only for `n ≤ 6`)
/// are removed from the network: their vertex capacity is zeroed,
/// forbidden targets get no terminal arc and no seeded edge. Returns the
/// max-flow value, the number of targets served; unserved targets keep
/// `path_of_target == UNSET`. With `forbidden == 0` the fan lemma makes
/// every target served, and that is asserted.
fn solve_dinic(n: u32, s: Node, targets: &[Node], forbidden: u64, scratch: &mut FanScratch) -> u32 {
    scratch.ensure_network(n);
    let num = 1u32 << n;
    let sink = 2 * num;
    let s32 = s as u32;
    // `forbidden` is empty whenever labels can reach 64 bits.
    let open = |t: Node| forbidden == 0 || forbidden >> t & 1 == 0;
    let d = scratch.dinic.as_mut().expect("network built");
    // Undo only what the previous query moved (O(arcs on its augmenting
    // paths)) rather than rewriting every capacity in the network.
    d.rewind(&scratch.default_caps);
    d.set_cap(scratch.vertex_arc[s as usize], u32::MAX / 2);
    // Remove every forbidden node from the network by zeroing its
    // vertex-split arc: no flow (hence no fan path) can pass through it.
    let mut f = forbidden;
    while f != 0 {
        let v = f.trailing_zeros();
        f &= f - 1;
        if v < num {
            d.set_cap(scratch.vertex_arc[v as usize], 0);
        }
    }
    let mut want = 0u32;
    for &t in targets {
        if open(t) {
            d.set_cap(scratch.terminal_arc[t as usize], 1);
            want += 1;
        }
    }

    // Seed every reachable target adjacent to `s` with its direct edge
    // (forcing a unit through a zeroed vertex arc would corrupt the
    // flow). A target is never an interior node of any fan path (its
    // vertex capacity is consumed by its own terminal unit), so the
    // direct edge is compatible with — and no longer than — some maximum
    // fan of the (restricted) network; the solver only has to route the
    // remaining targets.
    let mut seeded = 0u32;
    for &t in targets {
        let t32 = t as u32;
        let diff = t32 ^ s32;
        if diff.count_ones() == 1 && open(t) {
            let dim = diff.trailing_zeros();
            d.force_unit(scratch.vertex_arc[s as usize]);
            d.force_unit(scratch.edge_arc[(s32 * n + dim) as usize]);
            d.force_unit(scratch.vertex_arc[t as usize]);
            d.force_unit(scratch.terminal_arc[t as usize]);
            seeded += 1;
        }
    }
    scratch.metrics.seeded_direct += seeded as u64;

    // The terminal arcs cap the flow at the reachable target count, so
    // the solver can stop there instead of running a final no-progress
    // phase to prove it. Every augmenting path here has bottleneck 1
    // (the terminal arcs), which is exactly the regime the unit solver
    // is built for. Without forbidden nodes the fan lemma guarantees
    // that cap is reached; with them, faults may legitimately cut
    // targets off, so the flow value is the answer, not an invariant.
    let flow = seeded + d.max_flow_unit(v_in(s32), sink, want - seeded);
    if forbidden == 0 {
        assert_eq!(
            flow as usize,
            targets.len(),
            "fan lemma violated: flow {flow} < {} targets (bug)",
            targets.len()
        );
    }

    // Decompose: remaining flow per forward arc (the network is simple,
    // so an arc is uniquely determined by its endpoints), then walk.
    // Every arc with nonzero flow is in the solver's touched set, so
    // only those slots need reading.
    scratch.rem.clear();
    scratch.rem.resize(scratch.default_caps.len(), 0);
    for &slot in d.touched_slots() {
        scratch.rem[slot as usize] = d.flow_on(2 * slot);
    }
    scratch.path_of_target.resize(targets.len(), UNSET);
    let take = |rem: &mut Vec<u32>, aid: ArcId| -> bool {
        let slot = &mut rem[(aid / 2) as usize];
        if *slot > 0 {
            *slot -= 1;
            true
        } else {
            false
        }
    };
    for p in 0..flow {
        scratch.tmp_nodes.push(s);
        let mut cur = s32;
        loop {
            let _ = take(&mut scratch.rem, scratch.vertex_arc[cur as usize]);
            // Terminate here if this node's terminal arc still carries flow
            // (a target is never a through-node: its vertex capacity is 1).
            let t_idx = scratch.target_idx[cur as usize];
            if t_idx != UNSET && take(&mut scratch.rem, scratch.terminal_arc[cur as usize]) {
                assert_eq!(
                    scratch.path_of_target[t_idx as usize], UNSET,
                    "target reached twice"
                );
                scratch.path_of_target[t_idx as usize] = p;
                scratch.tmp_offsets.push(scratch.tmp_nodes.len() as u32);
                break;
            }
            let next = (0..n)
                .find(|&dim| take(&mut scratch.rem, scratch.edge_arc[(cur * n + dim) as usize]))
                .map(|dim| cur ^ (1u32 << dim))
                .expect("flow decomposition stuck (bug)");
            scratch.tmp_nodes.push(next as Node);
            cur = next;
        }
    }
    flow
}

/// Whether a canonical fan query in `Q_n` with `k` targets fits the
/// [`FanCache`] key/entry encoding (one byte per sorted nonzero target).
#[inline]
fn cacheable(n: u32, k: usize) -> bool {
    n <= 8 && k <= 8
}

/// [`fan_paths_into`] with translation canonicalisation and memoisation.
///
/// The query is canonicalised by XOR-translating the source to 0 and
/// sorting the targets — an automorphism of `Q_n`, so the canonical
/// solution maps back exactly. Canonical solutions are looked up in (and
/// inserted into) `cache`; results are read back through
/// [`FanScratch::path`] in original target order, exactly as with
/// [`fan_paths_into`].
///
/// **Determinism contract:** for a given `(cube, s, targets)` the
/// resulting paths are byte-identical regardless of cache capacity,
/// contents, or hit/miss history. Misses always solve the *canonical*
/// query, so a later hit replays exactly what the miss produced. A
/// capacity-0 cache therefore serves as the reference "off" mode.
/// (Because of canonicalisation, individual paths may differ from the
/// direct [`fan_paths_into`] solve of the untranslated query — both are
/// valid minimum-total-length fans.)
///
/// Queries outside the cacheable regime (`n > 8`; never produced by the
/// HHC construction, whose son-cubes have `m ≤ 6`) skip canonicalisation
/// and solve directly.
pub fn fan_paths_cached(
    cube: &Cube,
    s: Node,
    targets: &[Node],
    scratch: &mut FanScratch,
    cache: &mut FanCache,
) -> Result<(), FanError> {
    let n = validate_and_index(cube, s, targets, scratch)?;
    let k = targets.len();
    if k == 0 {
        return Ok(());
    }
    if all_adjacent(s, targets) {
        write_direct_fan(s, targets, scratch);
        return Ok(());
    }
    if !cacheable(n, k) {
        solve_dinic(n, s, targets, 0, scratch);
        return Ok(());
    }

    // Canonicalise: translate the source to 0 and sort the targets.
    // `canon[j] = (sorted canonical target, its original index)`.
    scratch.canon.clear();
    for (i, &t) in targets.iter().enumerate() {
        scratch.canon.push((t ^ s, i as u32));
    }
    scratch.canon.sort_unstable();
    let mut key = (n as u128) << 64;
    for (j, &(ct, _)) in scratch.canon.iter().enumerate() {
        key |= ct << (8 * j);
    }

    if let Some(e) = cache.get(key) {
        // Replay the canonical fan, translated back by `s`. The arena is
        // laid out in sorted-target order; `path_of_target` restores the
        // caller's order.
        for j in 0..k {
            let (a, b) = (e.offsets[j] as usize, e.offsets[j + 1] as usize);
            for &x in &e.nodes[a..b] {
                scratch.tmp_nodes.push(x as Node ^ s);
            }
            scratch.tmp_offsets.push(scratch.tmp_nodes.len() as u32);
        }
        scratch.path_of_target.resize(k, UNSET);
        for (j, &(_, i)) in scratch.canon.iter().enumerate() {
            scratch.path_of_target[i as usize] = j as u32;
        }
        scratch.metrics.cache_hits += 1;
        return Ok(());
    }
    scratch.metrics.cache_misses += 1;

    // Solve the canonical query: re-index `target_idx` for the
    // translated labels, then run the ordinary solver from source 0.
    scratch.target_idx.fill(UNSET);
    scratch.canon_nodes.clear();
    for (j, &(ct, _)) in scratch.canon.iter().enumerate() {
        scratch.canon_nodes.push(ct);
        scratch.target_idx[ct as usize] = j as u32;
    }
    let canon_nodes = std::mem::take(&mut scratch.canon_nodes);
    solve_dinic(n, 0, &canon_nodes, 0, scratch);
    scratch.canon_nodes = canon_nodes;

    // Snapshot the canonical solution for the cache (sorted-target CSR,
    // byte labels) before de-canonicalising the arena in place.
    if cache.capacity() > 0 {
        let mut nodes = Vec::new();
        let mut offsets = Vec::with_capacity(k + 1);
        offsets.push(0u16);
        for j in 0..k {
            let p = scratch.path_of_target[j] as usize;
            let (a, b) = (
                scratch.tmp_offsets[p] as usize,
                scratch.tmp_offsets[p + 1] as usize,
            );
            nodes.extend(scratch.tmp_nodes[a..b].iter().map(|&x| x as u8));
            offsets.push(nodes.len() as u16);
        }
        cache.insert(
            key,
            FanEntry {
                nodes: nodes.into_boxed_slice(),
                offsets: offsets.into_boxed_slice(),
            },
        );
    }

    // De-canonicalise: translate every arena node back, and remap
    // `path_of_target` from canonical (sorted) indices to original ones.
    for x in &mut scratch.tmp_nodes {
        *x ^= s;
    }
    scratch.pot_tmp.clear();
    scratch.pot_tmp.extend_from_slice(&scratch.path_of_target);
    for (j, &(_, i)) in scratch.canon.iter().enumerate() {
        scratch.path_of_target[i as usize] = scratch.pot_tmp[j];
    }
    Ok(())
}

/// Checks fan validity: `paths[i]` runs `s → targets[i]`, each simple,
/// pairwise sharing only `s`.
pub fn check_fan(
    cube: &Cube,
    s: Node,
    targets: &[Node],
    paths: &[Vec<Node>],
) -> Result<(), String> {
    if paths.len() != targets.len() {
        return Err(format!(
            "expected {} paths, got {}",
            targets.len(),
            paths.len()
        ));
    }
    let mut used = std::collections::HashSet::new();
    for (i, p) in paths.iter().enumerate() {
        if p.first() != Some(&s) || p.last() != Some(&targets[i]) {
            return Err(format!("path {i}: wrong endpoints"));
        }
        let mut own = std::collections::HashSet::new();
        for w in p.windows(2) {
            if cube.distance(w[0], w[1]) != 1 {
                return Err(format!("path {i}: non-edge"));
            }
        }
        for &x in p {
            if !own.insert(x) {
                return Err(format!("path {i}: revisit"));
            }
        }
        for &x in &p[1..] {
            if !used.insert(x) {
                return Err(format!("paths share node {x:#x} beyond source"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_to_all_neighbors() {
        let q = Cube::new(4).unwrap();
        let s = 0b0101u128;
        let targets: Vec<Node> = q.neighbors(s).collect();
        let fan = fan_paths(&q, s, &targets).unwrap();
        check_fan(&q, s, &targets, &fan).unwrap();
        // Each neighbour is reachable directly; minimum fan uses the edges.
        assert!(fan.iter().all(|p| p.len() == 2));
    }

    #[test]
    fn fan_to_far_targets() {
        let q = Cube::new(4).unwrap();
        let s = 0u128;
        let targets = vec![0b1111u128, 0b1110, 0b0111, 0b1011];
        let fan = fan_paths(&q, s, &targets).unwrap();
        check_fan(&q, s, &targets, &fan).unwrap();
    }

    #[test]
    fn single_target_is_a_path() {
        let q = Cube::new(3).unwrap();
        let fan = fan_paths(&q, 0, &[0b111]).unwrap();
        check_fan(&q, 0, &[0b111], &fan).unwrap();
        assert_eq!(fan[0].len(), 4); // shortest: 3 hops
    }

    #[test]
    fn empty_targets_empty_fan() {
        let q = Cube::new(3).unwrap();
        assert!(fan_paths(&q, 0, &[]).unwrap().is_empty());
    }

    #[test]
    fn rejects_duplicate_or_source_targets() {
        let q = Cube::new(3).unwrap();
        assert_eq!(fan_paths(&q, 0, &[1, 1]), Err(FanError::BadTargets));
        assert_eq!(fan_paths(&q, 0, &[0]), Err(FanError::BadTargets));
    }

    #[test]
    fn rejects_too_many_targets() {
        let q = Cube::new(2).unwrap();
        let err = fan_paths(&q, 0, &[1, 2, 3]).unwrap_err();
        assert!(matches!(err, FanError::TooManyTargets { .. }));
    }

    #[test]
    fn rejects_big_cube() {
        let q = Cube::new(17).unwrap();
        assert_eq!(fan_paths(&q, 0, &[1]), Err(FanError::CubeTooLarge(17)));
    }

    #[test]
    fn exhaustive_q3_every_target_set() {
        // All subsets of size ≤ 3 of Q_3 \ {s}, for every s.
        let q = Cube::new(3).unwrap();
        let nodes: Vec<Node> = (0..8).collect();
        for &s in &nodes {
            let others: Vec<Node> = nodes.iter().copied().filter(|&x| x != s).collect();
            for mask in 1u32..(1 << others.len()) {
                if mask.count_ones() > 3 {
                    continue;
                }
                let targets: Vec<Node> = others
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &t)| t)
                    .collect();
                let fan = fan_paths(&q, s, &targets).unwrap();
                check_fan(&q, s, &targets, &fan)
                    .unwrap_or_else(|e| panic!("s={s} targets={targets:?}: {e}"));
            }
        }
    }

    #[test]
    fn metrics_count_queries_and_builds() {
        let q = Cube::new(4).unwrap();
        let mut sc = FanScratch::new();
        let s = 0u128;
        let neighbors: Vec<Node> = q.neighbors(s).collect();
        fan_paths_into(&q, s, &neighbors, &mut sc).unwrap();
        fan_paths_into(&q, s, &[0b1111], &mut sc).unwrap();
        let m = sc.metrics();
        assert_eq!(m.queries, 2);
        assert_eq!(m.targets_requested, 5);
        // All 4 neighbours seed directly; the far target seeds nothing.
        assert_eq!(m.seeded_direct, 4);
        // The all-neighbour query took the combinatorial fast path, so
        // only the far query forced a network build.
        assert_eq!(m.fast_path, 1);
        assert_eq!(m.network_builds, 1);
        // The far query needed the solver: at least one BFS recorded.
        assert!(sc.solver_stats().bfs_passes >= 1);
        // Rejected calls are not counted as queries.
        assert!(fan_paths_into(&q, s, &[s], &mut sc).is_err());
        assert_eq!(sc.metrics().queries, 2);
        sc.reset_metrics();
        assert_eq!(sc.metrics(), FanMetrics::default());
        assert_eq!(sc.solver_stats(), graphs::DinicStats::default());
    }

    /// Runs the general solver on a query the public entry points would
    /// answer via the combinatorial fast path.
    fn dinic_reference(q: &Cube, s: Node, targets: &[Node], sc: &mut FanScratch) {
        let n = validate_and_index(q, s, targets, sc).unwrap();
        solve_dinic(n, s, targets, 0, sc);
    }

    #[test]
    fn fast_path_agrees_with_dinic_exhaustively() {
        // Every source and every non-empty neighbour subset of Q_2..Q_4:
        // the direct fan must match the flow solver path-for-path.
        for n in 2u32..=4 {
            let q = Cube::new(n).unwrap();
            let mut fast = FanScratch::new();
            let mut oracle = FanScratch::new();
            for s in 0..(1u128 << n) {
                let nbrs: Vec<Node> = q.neighbors(s).collect();
                for mask in 1u32..(1 << nbrs.len()) {
                    let targets: Vec<Node> = nbrs
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask >> i & 1 == 1)
                        .map(|(_, &t)| t)
                        .collect();
                    fan_paths_into(&q, s, &targets, &mut fast).unwrap();
                    dinic_reference(&q, s, &targets, &mut oracle);
                    assert_eq!(fast.num_paths(), oracle.num_paths());
                    for i in 0..targets.len() {
                        assert_eq!(
                            fast.path(i),
                            oracle.path(i),
                            "n={n} s={s} targets={targets:?} path {i}"
                        );
                    }
                }
            }
            // The fast path never touched the solver.
            assert_eq!(fast.metrics().network_builds, 0);
            assert!(oracle.metrics().network_builds >= 1);
        }
    }

    #[test]
    fn cached_is_deterministic_and_hits_on_translation() {
        // Same canonical class (translated sources, permuted targets):
        // one miss, then hits; every answer identical to the capacity-0
        // reference and a valid fan.
        let q = Cube::new(4).unwrap();
        let mut warm = FanScratch::new();
        let mut cold = FanScratch::new();
        let mut cache = FanCache::new(64);
        let mut off = FanCache::new(0);
        let base: Vec<Node> = vec![0b1111, 0b0111, 0b1110];
        for s in 0..16u128 {
            let targets: Vec<Node> = base.iter().map(|&t| t ^ s).collect();
            let mut rev = targets.clone();
            rev.reverse();
            for t in [&targets, &rev] {
                fan_paths_cached(&q, s, t, &mut warm, &mut cache).unwrap();
                fan_paths_cached(&q, s, t, &mut cold, &mut off).unwrap();
                assert_eq!(warm.num_paths(), cold.num_paths());
                let fan: Vec<Vec<Node>> = (0..t.len()).map(|i| warm.path(i).to_vec()).collect();
                for i in 0..t.len() {
                    assert_eq!(warm.path(i), cold.path(i), "s={s} targets={t:?} path {i}");
                }
                check_fan(&q, s, t, &fan).unwrap();
            }
        }
        let m = warm.metrics();
        assert_eq!(m.cache_misses, 1, "one canonical class ⇒ one solve");
        assert_eq!(m.cache_hits, 31);
        assert_eq!(cold.metrics().cache_hits, 0);
        assert_eq!(cold.metrics().cache_misses, 32);
        assert!(off.is_empty());
    }

    #[test]
    fn cached_survives_eviction_pressure() {
        // A capacity-1 cache sweeps constantly; answers must not change.
        let q = Cube::new(5).unwrap();
        let mut tiny_sc = FanScratch::new();
        let mut off_sc = FanScratch::new();
        let mut tiny = FanCache::new(1);
        let mut off = FanCache::new(0);
        let mut state = 0xdeadbeefcafef00du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..300 {
            let s = (next() % 32) as Node;
            let k = (next() % 5 + 1) as usize;
            let mut targets = Vec::new();
            while targets.len() < k {
                let t = (next() % 32) as Node;
                if t != s && !targets.contains(&t) {
                    targets.push(t);
                }
            }
            fan_paths_cached(&q, s, &targets, &mut tiny_sc, &mut tiny).unwrap();
            fan_paths_cached(&q, s, &targets, &mut off_sc, &mut off).unwrap();
            for i in 0..k {
                assert_eq!(tiny_sc.path(i), off_sc.path(i), "s={s} targets={targets:?}");
            }
        }
        assert!(tiny.sweeps() > 0, "capacity 1 must sweep under this load");
        assert!(tiny.len() <= 2);
    }

    #[test]
    fn avoiding_with_no_forbidden_matches_plain() {
        // forbidden == 0 must be byte-identical to the plain entry point.
        let q = Cube::new(3).unwrap();
        let nodes: Vec<Node> = (0..8).collect();
        let mut plain = FanScratch::new();
        let mut avoid = FanScratch::new();
        for &s in &nodes {
            let others: Vec<Node> = nodes.iter().copied().filter(|&x| x != s).collect();
            for mask in 1u32..(1 << others.len()) {
                if mask.count_ones() > 3 {
                    continue;
                }
                let targets: Vec<Node> = others
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &t)| t)
                    .collect();
                fan_paths_into(&q, s, &targets, &mut plain).unwrap();
                let served = fan_paths_avoiding(&q, s, &targets, 0, &mut avoid).unwrap();
                assert_eq!(served, targets.len());
                for i in 0..targets.len() {
                    assert!(avoid.target_served(i));
                    assert_eq!(plain.path(i), avoid.path(i), "s={s} targets={targets:?}");
                }
            }
        }
    }

    #[test]
    fn avoiding_respects_forbidden_nodes() {
        // Random queries with random fault masks: every served path must
        // be a valid fan path that visits no forbidden node, and when the
        // remaining connectivity permits, all targets must be served.
        let q = Cube::new(5).unwrap();
        let mut sc = FanScratch::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..500 {
            let s = (next() % 32) as Node;
            let k = (next() % 5 + 1) as usize;
            let mut targets = Vec::new();
            while targets.len() < k {
                let t = (next() % 32) as Node;
                if t != s && !targets.contains(&t) {
                    targets.push(t);
                }
            }
            // Up to 4 faults, never on the source.
            let mut forbidden = 0u64;
            for _ in 0..(next() % 5) {
                let v = next() % 32;
                if v != s as u64 {
                    forbidden |= 1 << v;
                }
            }
            let served = fan_paths_avoiding(&q, s, &targets, forbidden, &mut sc).unwrap();
            let mut seen = std::collections::HashSet::new();
            let mut n_served = 0;
            for (i, &t) in targets.iter().enumerate() {
                if !sc.target_served(i) {
                    continue;
                }
                n_served += 1;
                let p = sc.path(i);
                assert_eq!(p.first(), Some(&s));
                assert_eq!(p.last(), Some(&t));
                for w in p.windows(2) {
                    assert_eq!(q.distance(w[0], w[1]), 1);
                }
                for &x in p {
                    assert_eq!(forbidden >> x & 1, 0, "path visits forbidden node {x:#x}");
                }
                for &x in &p[1..] {
                    assert!(seen.insert(x), "paths share node {x:#x}");
                }
            }
            assert_eq!(served, n_served);
            // With ≤ 4 faults in a 5-connected cube and no faulty
            // endpoints, Menger still guarantees min(k, 5 - f) paths.
            let f = forbidden.count_ones() as usize;
            let fault_free_targets = targets.iter().filter(|&&t| forbidden >> t & 1 == 0).count();
            assert!(
                served >= fault_free_targets.min(5 - f),
                "served {served} < guaranteed {} (s={s} targets={targets:?} forbidden={forbidden:#x})",
                fault_free_targets.min(5 - f)
            );
        }
    }

    #[test]
    fn avoiding_forbidden_target_is_unserved() {
        let q = Cube::new(3).unwrap();
        let mut sc = FanScratch::new();
        let targets = vec![0b001u128, 0b110];
        let served = fan_paths_avoiding(&q, 0, &targets, 1 << 0b110, &mut sc).unwrap();
        assert_eq!(served, 1);
        assert!(sc.target_served(0));
        assert!(!sc.target_served(1));
        assert_eq!(sc.path(0), &[0, 0b001]);
    }

    #[test]
    fn random_fans_q6() {
        // Deterministic pseudo-random target sets in the largest son-cube.
        let q = Cube::new(6).unwrap();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let s = (next() % 64) as Node;
            let k = (next() % 6 + 1) as usize;
            let mut targets = Vec::new();
            while targets.len() < k {
                let t = (next() % 64) as Node;
                if t != s && !targets.contains(&t) {
                    targets.push(t);
                }
            }
            let fan = fan_paths(&q, s, &targets).unwrap();
            check_fan(&q, s, &targets, &fan).unwrap();
        }
    }
}
