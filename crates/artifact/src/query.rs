//! The memory-resident query index and its batch engine.
//!
//! [`QueryIndex`] wraps a decoded [`Snapshot`] with an id→index map
//! and answers four request kinds:
//!
//! * `pattern <tower>` — the tower's cluster and region kind;
//! * `decompose <tower>` — its convex combination over the four pure
//!   patterns (stored rows are served verbatim; other towers are
//!   solved live against the frozen basis with the *same* active-set
//!   solver and options the batch study used, so the answers are
//!   bit-identical either way);
//! * `topk <tower> <k>` — the k nearest towers in the 6-dim spectral
//!   feature space, answered by a pruned descent of the exact-pruning
//!   [`SpatialIndex`] built at snapshot load (bit-identical to the
//!   matrix-free linear scan, which the tests keep as the oracle);
//! * `screen <tower> <day-file>` — z-score anomaly screening of a
//!   fresh day of traffic against the tower's stored expected
//!   profile.
//!
//! [`run_batch_with`] fans request lines across `towerlens-par` workers in
//! contiguous index chunks, so output order equals input order and
//! the bytes are identical for any `--threads`. Per-worker tallies
//! are merged in worker order and published to the `query.*` counters
//! exactly once, so counter values are also thread-count invariant.

use std::collections::HashMap;
use std::path::Path;

use towerlens_cluster::index::{SearchStats, SpatialIndex};
use towerlens_cluster::source::TopK;
use towerlens_obs::LazyCounter;
use towerlens_opt::{simplex_least_squares, SimplexLsOptions, Solver};
use towerlens_par::par_map_indexed_scratch;

use crate::format::Snapshot;

static QUERY_REQUESTS: LazyCounter = LazyCounter::new("query.requests");
static QUERY_PATTERN: LazyCounter = LazyCounter::new("query.pattern");
static QUERY_DECOMPOSE: LazyCounter = LazyCounter::new("query.decompose");
static QUERY_TOPK: LazyCounter = LazyCounter::new("query.topk");
static QUERY_SCREEN: LazyCounter = LazyCounter::new("query.screen");
static QUERY_ERRORS: LazyCounter = LazyCounter::new("query.errors");
static QUERY_SHED: LazyCounter = LazyCounter::new("query.shed_total");
static QUERY_TOPK_PRUNED: LazyCounter = LazyCounter::new("query.topk_pruned_total");

/// Per-bin |z| above this marks an exceedance; any exceedance marks
/// the day anomalous (the classic 3σ rule).
pub const SCREEN_Z_THRESHOLD: f64 = 3.0;
/// Floor on the profile σ so a perfectly flat historical bin cannot
/// divide by zero.
const SIGMA_FLOOR: f64 = 1e-9;

/// A borrowed `topk` answer: the rendered `(tower id, distance)`
/// neighbour slice plus the number of subtrees the descent pruned.
pub type TopkAnswer<'s> = (&'s [(u64, f64)], u64);

/// Per-worker scratch reused across a batch's requests: the top-k
/// accumulator and its staging buffers survive between requests, so
/// steady-state `topk` answering performs no per-request heap
/// allocation beyond the rendered answer string.
#[derive(Debug, Default)]
pub struct QueryScratch {
    top: TopK,
    sorted: Vec<(usize, f64)>,
    neighbours: Vec<(u64, f64)>,
}

/// The verdict of screening one day of traffic against a tower's
/// expected profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ScreenVerdict {
    /// Bins in the screened day.
    pub bins: usize,
    /// Largest per-bin |z|.
    pub max_z: f64,
    /// Mean per-bin |z|.
    pub mean_z: f64,
    /// Bins with |z| above [`SCREEN_Z_THRESHOLD`].
    pub exceedances: usize,
    /// True when any bin exceeds the threshold.
    pub anomalous: bool,
}

/// A parsed query request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `pattern <tower>`
    Pattern(u64),
    /// `decompose <tower>`
    Decompose(u64),
    /// `topk <tower> <k>`
    Topk(u64, usize),
    /// `screen <tower> <day-file>`
    Screen(u64, String),
}

/// Parses one request line.
///
/// # Errors
/// A human-readable message naming what was malformed.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut words = line.split_whitespace();
    let verb = words.next().ok_or_else(|| "empty request".to_string())?;
    let id = |w: Option<&str>| -> Result<u64, String> {
        let w = w.ok_or_else(|| format!("`{verb}` needs a tower id"))?;
        w.parse().map_err(|_| format!("bad tower id `{w}`"))
    };
    let req = match verb {
        "pattern" => Request::Pattern(id(words.next())?),
        "decompose" => Request::Decompose(id(words.next())?),
        "topk" => {
            let tower = id(words.next())?;
            let kw = words
                .next()
                .ok_or_else(|| "`topk` needs a count".to_string())?;
            let k: usize = kw.parse().map_err(|_| format!("bad topk count `{kw}`"))?;
            Request::Topk(tower, k)
        }
        "screen" => {
            let tower = id(words.next())?;
            let file = words
                .next()
                .ok_or_else(|| "`screen` needs a day file".to_string())?;
            Request::Screen(tower, file.to_string())
        }
        other => return Err(format!("unknown request `{other}`")),
    };
    if let Some(extra) = words.next() {
        return Err(format!("trailing argument `{extra}`"));
    }
    Ok(req)
}

// ---------------------------------------------------- virtual-cost model

/// Virtual-cost units charged for a live `decompose` solve: one unit
/// of lookup plus the 2⁴−1 = 15 candidate supports the active-set
/// solver enumerates over the four basis vertices. A constant because
/// [`simplex_least_squares`] enumerates every support unconditionally
/// — the solve's work does not depend on the input.
pub const DECOMPOSE_SOLVE_UNITS: u64 = 16;

/// The estimated virtual cost of one request, in deterministic work
/// units (towers scanned, profile bins compared, solver support
/// enumerations). The unit is *not* wall-clock time: the same request
/// against the same snapshot always costs the same number of units,
/// so admission decisions are byte-identical at any `--threads`.
///
/// * `pattern` — 1 (one hash lookup);
/// * `decompose` — 1 for a stored study row, [`DECOMPOSE_SOLVE_UNITS`]
///   for a live solve;
/// * `topk` — one unit per tower in the snapshot. This is a
///   deterministic *upper bound*: the pruned index descent usually
///   touches far fewer towers, but admission decisions must not
///   depend on data layout or query locality, so the charge
///   stays at the worst case (and existing shed behaviour is
///   unchanged);
/// * `screen` — one unit per profile bin compared.
///
/// Malformed or unknown-tower requests are charged the flat lookup
/// cost of 1 so they surface as ordinary errors, never as shed.
#[must_use]
pub fn request_cost(index: &QueryIndex, request: &Request) -> u64 {
    match request {
        Request::Pattern(_) => 1,
        Request::Decompose(id) => {
            let stored = index
                .by_id
                .get(id)
                .is_some_and(|idx| index.decomp_by_index.contains_key(idx));
            if stored {
                1
            } else {
                DECOMPOSE_SOLVE_UNITS
            }
        }
        Request::Topk(..) => index.n_towers().max(1) as u64,
        Request::Screen(..) => index.snapshot.profile.bins_per_day.max(1) as u64,
    }
}

/// How a batch runs: worker count and admission budget.
/// [`QueryPolicy::default`] admits everything on all cores.
#[derive(Debug, Clone, Default)]
pub struct QueryPolicy {
    /// Worker threads (`0` = all available cores).
    pub threads: usize,
    /// Admission cap: a request whose *estimated* cost exceeds this
    /// is shed with a typed `overloaded` error line before any work
    /// is done (`None` = admit everything). A request whose cost
    /// exactly equals the budget is admitted.
    pub request_budget: Option<u64>,
}

/// The memory-resident index over one snapshot.
#[derive(Debug)]
pub struct QueryIndex {
    snapshot: Snapshot,
    by_id: HashMap<u64, usize>,
    decomp_by_index: HashMap<usize, usize>,
    /// Exact-pruning spatial index over the 6-dim feature rows, built
    /// once per snapshot load — the `--watch` reloader constructs a
    /// fresh `QueryIndex` per generation, so the tree rebuilds on
    /// reload for free.
    tree: SpatialIndex,
    /// Basis vertices lifted to the solver's row format once, instead
    /// of re-collected on every live `decompose` solve.
    basis_vertices: Option<Vec<Vec<f64>>>,
}

impl QueryIndex {
    /// Builds the index: the id maps (one pass over the tower table)
    /// plus the spatial tree over the feature rows (O(n log n)).
    #[must_use]
    pub fn new(snapshot: Snapshot) -> QueryIndex {
        let by_id = snapshot
            .tower_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        let decomp_by_index = snapshot
            .decompositions
            .iter()
            .enumerate()
            .map(|(row, d)| (d.vector_index, row))
            .collect();
        let tree = SpatialIndex::build(&snapshot.features[..]);
        let basis_vertices = snapshot
            .basis
            .as_ref()
            .map(|b| b.vertices.iter().map(|v| v.to_vec()).collect());
        QueryIndex {
            snapshot,
            by_id,
            decomp_by_index,
            tree,
            basis_vertices,
        }
    }

    /// The underlying snapshot.
    #[must_use]
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// Number of towers served.
    #[must_use]
    pub fn n_towers(&self) -> usize {
        self.snapshot.n_towers()
    }

    /// True when the snapshot holds no towers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n_towers() == 0
    }

    fn resolve(&self, id: u64) -> Result<usize, String> {
        self.by_id
            .get(&id)
            .copied()
            .ok_or_else(|| format!("unknown tower {id}"))
    }

    /// The tower's cluster label and (when the study labelled
    /// clusters) its region kind.
    ///
    /// # Errors
    /// Unknown tower id.
    pub fn pattern(&self, id: u64) -> Result<(u32, Option<&str>), String> {
        let idx = self.resolve(id)?;
        let label = self.snapshot.labels[idx];
        let kind = self
            .snapshot
            .kinds
            .as_ref()
            .and_then(|k| k.get(label as usize))
            .map(String::as_str);
        Ok((label, kind))
    }

    /// The tower's convex-combination decomposition over the four
    /// pure patterns: stored study rows verbatim, otherwise a live
    /// active-set solve against the frozen basis (same solver, same
    /// options, same inputs as the batch path — bit-identical).
    ///
    /// # Errors
    /// Unknown tower, a snapshot without a basis, or a solver
    /// failure.
    pub fn decompose(&self, id: u64) -> Result<([f64; 4], f64), String> {
        let idx = self.resolve(id)?;
        if let Some(&row) = self.decomp_by_index.get(&idx) {
            let d = &self.snapshot.decompositions[row];
            return Ok((d.coefficients, d.residual_sqr));
        }
        let vertices = self
            .basis_vertices
            .as_ref()
            .ok_or_else(|| "snapshot has no primary-component basis".to_string())?;
        let f = &self.snapshot.features[idx];
        // f6 order is [amp_week, phase_week, amp_day, phase_day,
        // amp_half, phase_half]; the decomposition space is f3 =
        // [amp_day, phase_day, amp_half].
        let target = [f[2], f[3], f[4]];
        let solution = simplex_least_squares(
            vertices,
            &target,
            SimplexLsOptions {
                solver: Solver::ActiveSet,
                ..SimplexLsOptions::default()
            },
        )
        .map_err(|e| format!("decompose solve failed: {e}"))?;
        let mut coefficients = [0.0f64; 4];
        coefficients.copy_from_slice(&solution.coefficients);
        Ok((coefficients, solution.residual_sqr))
    }

    /// The `k` nearest towers in spectral feature space, as
    /// `(tower id, distance)` ascending by `(distance, index)` — a
    /// pruned descent of the spatial tree, bit-identical to the linear
    /// scan over the same kernel.
    ///
    /// # Errors
    /// Unknown tower id.
    pub fn topk(&self, id: u64, k: usize) -> Result<Vec<(u64, f64)>, String> {
        let mut scratch = QueryScratch::default();
        self.topk_scratch(id, k, &mut scratch)
            .map(|(neighbours, _)| neighbours.to_vec())
    }

    /// [`QueryIndex::topk`] through caller-owned scratch buffers (the
    /// batch engine reuses one [`QueryScratch`] per worker, so
    /// steady-state requests allocate nothing). Returns the rendered
    /// neighbour slice and the number of subtrees the descent pruned.
    ///
    /// # Errors
    /// Unknown tower id.
    pub fn topk_scratch<'s>(
        &self,
        id: u64,
        k: usize,
        scratch: &'s mut QueryScratch,
    ) -> Result<TopkAnswer<'s>, String> {
        let idx = self.resolve(id)?;
        scratch.top.reset(k);
        scratch.sorted.clear();
        scratch.neighbours.clear();
        let mut stats = SearchStats::default();
        self.tree.top_k_into(
            &self.snapshot.features[idx],
            idx,
            &mut stats,
            &mut scratch.top,
        );
        scratch.top.sorted_into(&mut scratch.sorted);
        scratch.neighbours.extend(
            scratch
                .sorted
                .iter()
                .map(|&(j, d)| (self.snapshot.tower_ids[j], d)),
        );
        Ok((&scratch.neighbours, stats.pruned_subtrees))
    }

    /// Screens one day of raw traffic against the tower's expected
    /// profile: the day is z-scored by its own mean/σ (matching how
    /// the study normalised traffic), then each bin is compared to
    /// the stored per-bin mean/σ.
    ///
    /// # Errors
    /// Unknown tower, a bin-count mismatch against the profile, or a
    /// flat (zero-variance) day that cannot be z-scored.
    pub fn screen(&self, id: u64, day: &[f64]) -> Result<ScreenVerdict, String> {
        let idx = self.resolve(id)?;
        let bins = self.snapshot.profile.bins_per_day;
        if bins == 0 {
            return Err("snapshot profile has no bins".to_string());
        }
        if day.len() != bins {
            return Err(format!(
                "day has {} values, profile expects {bins}",
                day.len()
            ));
        }
        let mean = day.iter().sum::<f64>() / bins as f64;
        let var = day.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / bins as f64;
        let sd = var.sqrt();
        if sd <= 0.0 {
            return Err("day has zero variance, cannot z-score".to_string());
        }
        let prof_mean = &self.snapshot.profile.mean[idx];
        let prof_std = &self.snapshot.profile.std[idx];
        let mut max_z = 0.0f64;
        let mut sum_z = 0.0f64;
        let mut exceedances = 0usize;
        for b in 0..bins {
            let day_z = (day[b] - mean) / sd;
            let z = ((day_z - prof_mean[b]) / prof_std[b].max(SIGMA_FLOOR)).abs();
            max_z = max_z.max(z);
            sum_z += z;
            if z > SCREEN_Z_THRESHOLD {
                exceedances += 1;
            }
        }
        Ok(ScreenVerdict {
            bins,
            max_z,
            mean_z: sum_z / bins as f64,
            exceedances,
            anomalous: exceedances > 0,
        })
    }
}

// ------------------------------------------------------------ rendering

/// Renders a `pattern` answer. Shared with the golden tests so the
/// CLI and the reference derive the byte-identical line from the same
/// code.
#[must_use]
pub fn render_pattern(id: u64, cluster: u32, kind: Option<&str>) -> String {
    format!(
        "pattern {id} cluster={cluster} kind={}",
        kind.unwrap_or("-")
    )
}

/// Renders a `decompose` answer (coefficients in pure-pattern order).
#[must_use]
pub fn render_decompose(id: u64, coefficients: &[f64; 4], residual_sqr: f64) -> String {
    format!(
        "decompose {id} resident={:.6} transport={:.6} office={:.6} \
         entertainment={:.6} residual={residual_sqr:.6}",
        coefficients[0], coefficients[1], coefficients[2], coefficients[3]
    )
}

/// Renders a `topk` answer (`-` when no neighbours exist).
#[must_use]
pub fn render_topk(id: u64, neighbours: &[(u64, f64)]) -> String {
    let mut out = format!("topk {id}");
    if neighbours.is_empty() {
        out.push_str(" -");
        return out;
    }
    for (nid, d) in neighbours {
        out.push_str(&format!(" {nid}:{d:.6}"));
    }
    out
}

/// Renders a `screen` answer.
#[must_use]
pub fn render_screen(id: u64, verdict: &ScreenVerdict) -> String {
    format!(
        "screen {id} bins={} max_z={:.3} mean_z={:.3} exceed={} verdict={}",
        verdict.bins,
        verdict.max_z,
        verdict.mean_z,
        verdict.exceedances,
        if verdict.anomalous {
            "anomalous"
        } else {
            "normal"
        }
    )
}

// --------------------------------------------------------- batch engine

/// Exact per-kind request counts from one [`run_batch_with`] call, merged
/// across workers in worker order (thread-count invariant).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchTally {
    /// All requests, well-formed or not.
    pub requests: u64,
    /// Answered `pattern` requests.
    pub pattern: u64,
    /// Answered `decompose` requests.
    pub decompose: u64,
    /// Answered `topk` requests.
    pub topk: u64,
    /// Answered `screen` requests.
    pub screen: u64,
    /// Requests that produced an `error:` line (parse failures,
    /// unknown towers, solver/IO failures — *not* shed requests, which
    /// have their own field so that `requests = pattern + decompose +
    /// topk + screen + errors + shed` always holds).
    pub errors: u64,
    /// Requests shed by the admission budget (`overloaded` lines).
    pub shed: u64,
    /// Subtrees the spatial index pruned while answering `topk`
    /// requests. Pruning is a pure function of each request against
    /// the snapshot, so — like every other field — this is
    /// thread-count invariant.
    pub topk_pruned: u64,
}

const SLOT_REQUESTS: usize = 0;
const SLOT_PATTERN: usize = 1;
const SLOT_DECOMPOSE: usize = 2;
const SLOT_TOPK: usize = 3;
const SLOT_SCREEN: usize = 4;
const SLOT_ERRORS: usize = 5;
const SLOT_SHED: usize = 6;
const SLOT_TOPK_PRUNED: usize = 7;
const SLOTS: usize = 8;

/// Answers one parsed request, returning the rendered line and the
/// subtree count the spatial index pruned (nonzero only for `topk`).
fn answer(
    index: &QueryIndex,
    request: &Request,
    scratch: &mut QueryScratch,
) -> Result<(String, u64), String> {
    match request {
        Request::Pattern(id) => {
            let (cluster, kind) = index.pattern(*id)?;
            Ok((render_pattern(*id, cluster, kind), 0))
        }
        Request::Decompose(id) => {
            let (coefficients, residual_sqr) = index.decompose(*id)?;
            Ok((render_decompose(*id, &coefficients, residual_sqr), 0))
        }
        Request::Topk(id, k) => {
            let (neighbours, pruned) = index.topk_scratch(*id, *k, scratch)?;
            Ok((render_topk(*id, neighbours), pruned))
        }
        Request::Screen(id, file) => {
            let day = read_day_file(Path::new(file))?;
            Ok((render_screen(*id, &index.screen(*id, &day)?), 0))
        }
    }
}

/// Reads a whitespace/newline-separated day-of-traffic file.
///
/// # Errors
/// I/O failure or a value that does not parse as a float.
pub fn read_day_file(path: &Path) -> Result<Vec<f64>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("day file {}: {e}", path.display()))?;
    text.split_whitespace()
        .map(|w| {
            w.parse::<f64>()
                .map_err(|_| format!("day file {}: bad value `{w}`", path.display()))
        })
        .collect()
}

/// The full admission → answer path for one request. Every decision
/// (shed, answer bytes) depends only on the request and the snapshot,
/// never on chunking, and therefore not on the thread count.
fn answer_counted(
    index: &QueryIndex,
    scratch: &mut QueryScratch,
    line: &str,
    policy: &QueryPolicy,
    tally: &mut [u64],
) -> Result<String, String> {
    tally[SLOT_REQUESTS] += 1;
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(message) => {
            tally[SLOT_ERRORS] += 1;
            return Err(message);
        }
    };
    let cost = request_cost(index, &request);
    if let Some(budget) = policy.request_budget {
        if cost > budget {
            tally[SLOT_SHED] += 1;
            return Err(format!(
                "overloaded: request cost {cost} exceeds budget {budget}"
            ));
        }
    }
    let slot = match request {
        Request::Pattern(_) => SLOT_PATTERN,
        Request::Decompose(_) => SLOT_DECOMPOSE,
        Request::Topk(..) => SLOT_TOPK,
        Request::Screen(..) => SLOT_SCREEN,
    };
    match answer(index, &request, scratch) {
        Ok((text, pruned)) => {
            tally[slot] += 1;
            tally[SLOT_TOPK_PRUNED] += pruned;
            Ok(text)
        }
        Err(message) => {
            tally[SLOT_ERRORS] += 1;
            Err(message)
        }
    }
}

fn publish(tally: &BatchTally) {
    QUERY_REQUESTS.add(tally.requests);
    QUERY_PATTERN.add(tally.pattern);
    QUERY_DECOMPOSE.add(tally.decompose);
    QUERY_TOPK.add(tally.topk);
    QUERY_SCREEN.add(tally.screen);
    QUERY_ERRORS.add(tally.errors);
    QUERY_SHED.add(tally.shed);
    QUERY_TOPK_PRUNED.add(tally.topk_pruned);
}

/// Answers one request with the default policy, publishing its
/// `query.*` counters. Used by the CLI's one-shot mode.
///
/// # Errors
/// The request's error message (also counted under `query.errors`).
pub fn run_one(index: &QueryIndex, line: &str) -> Result<String, String> {
    run_one_with(index, line, &QueryPolicy::default())
}

/// [`run_one`] under an explicit [`QueryPolicy`].
///
/// # Errors
/// The request's error or shed message.
pub fn run_one_with(
    index: &QueryIndex,
    line: &str,
    policy: &QueryPolicy,
) -> Result<String, String> {
    let mut slots = [0u64; SLOTS];
    let mut scratch = QueryScratch::default();
    let outcome = answer_counted(index, &mut scratch, line, policy, &mut slots);
    publish(&tally_of(&slots));
    outcome
}

fn tally_of(slots: &[u64]) -> BatchTally {
    BatchTally {
        requests: slots[SLOT_REQUESTS],
        pattern: slots[SLOT_PATTERN],
        decompose: slots[SLOT_DECOMPOSE],
        topk: slots[SLOT_TOPK],
        screen: slots[SLOT_SCREEN],
        errors: slots[SLOT_ERRORS],
        shed: slots[SLOT_SHED],
        topk_pruned: slots[SLOT_TOPK_PRUNED],
    }
}

/// Answers a batch of request lines across `policy.threads` workers
/// (`0` = all available cores) under the policy's admission budget.
/// Output `lines[i]` answers input `lines[i]` — failed requests yield
/// `error: <message>` lines in place. Shed decisions depend only on
/// each request's cost against the snapshot — never on chunking — so
/// stdout and every tally are byte-identical at any thread count. The
/// merged tally is published to the `query.*` counters exactly once.
#[must_use]
pub fn run_batch_with(
    index: &QueryIndex,
    lines: &[String],
    policy: &QueryPolicy,
) -> (Vec<String>, BatchTally) {
    // Each worker owns one QueryScratch for its whole chunk, so
    // steady-state topk answering is allocation-free per request.
    let (out, slots) = par_map_indexed_scratch(
        lines,
        policy.threads,
        SLOTS,
        QueryScratch::default,
        |scratch, _, line, tally| match answer_counted(index, scratch, line, policy, tally) {
            Ok(answer) => answer,
            Err(message) => format!("error: {message}"),
        },
    );
    let tally = tally_of(&slots);
    publish(&tally);
    (out, tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{BasisSection, DayProfile, DecompRow, Meta, Snapshot};

    fn snapshot(n: usize) -> Snapshot {
        let bins = 4;
        let vectors: Vec<Vec<f64>> = (0..n)
            .map(|t| {
                (0..bins * 2)
                    .map(|b| ((t * 7 + b) as f64 * 0.61).sin())
                    .collect()
            })
            .collect();
        Snapshot {
            meta: Meta {
                fingerprint: 7,
                window_start_s: 0,
                bin_secs: 600,
                n_bins: bins * 2,
                k: 2,
                threshold: 1.0,
                feature_space: "spectral".into(),
            },
            tower_ids: (0..n as u64).map(|i| i * 10).collect(),
            labels: (0..n).map(|i| (i % 2) as u32).collect(),
            features: (0..n)
                .map(|t| {
                    let mut row = [0.0; 6];
                    for (j, slot) in row.iter_mut().enumerate() {
                        *slot = ((t * 6 + j) as f64 * 0.43).cos();
                    }
                    row
                })
                .collect(),
            centroids: vec![vec![0.0; bins * 2], vec![1.0; bins * 2]],
            kinds: Some(vec!["Resident".into(), "Office".into()]),
            basis: Some(BasisSection {
                representatives: [0, 1, 2 % n.max(1), 3 % n.max(1)],
                vertices: [
                    [1.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0],
                    [0.0, 0.0, 1.0],
                    [0.5, 0.5, 0.5],
                ],
            }),
            decompositions: vec![DecompRow {
                vector_index: 0,
                coefficients: [0.7, 0.1, 0.1, 0.1],
                residual_sqr: 0.01,
                ntf_idf: [0.7, 0.1, 0.1, 0.1],
            }],
            profile: DayProfile::from_vectors(&vectors, bins),
        }
    }

    #[test]
    fn pattern_and_stored_decompose_answer_from_the_snapshot() {
        let index = QueryIndex::new(snapshot(6));
        assert_eq!(
            run_one(&index, "pattern 30").unwrap(),
            "pattern 30 cluster=1 kind=Office"
        );
        assert_eq!(
            run_one(&index, "decompose 0").unwrap(),
            render_decompose(0, &[0.7, 0.1, 0.1, 0.1], 0.01)
        );
    }

    #[test]
    fn live_decompose_matches_a_direct_solver_call() {
        let index = QueryIndex::new(snapshot(6));
        let (coefficients, residual) = index.decompose(10).unwrap();
        let basis = index.snapshot().basis.as_ref().unwrap();
        let vertices: Vec<Vec<f64>> = basis.vertices.iter().map(|v| v.to_vec()).collect();
        let f = &index.snapshot().features[1];
        let expect = simplex_least_squares(
            &vertices,
            &[f[2], f[3], f[4]],
            SimplexLsOptions {
                solver: Solver::ActiveSet,
                ..SimplexLsOptions::default()
            },
        )
        .unwrap();
        assert_eq!(coefficients.to_vec(), expect.coefficients);
        assert_eq!(residual.to_bits(), expect.residual_sqr.to_bits());
    }

    #[test]
    fn unknown_tower_and_bad_verbs_are_errors_not_panics() {
        let index = QueryIndex::new(snapshot(3));
        assert!(run_one(&index, "pattern 5")
            .unwrap_err()
            .contains("unknown tower"));
        assert!(run_one(&index, "warp 0")
            .unwrap_err()
            .contains("unknown request"));
        assert!(run_one(&index, "topk 0")
            .unwrap_err()
            .contains("needs a count"));
        assert!(run_one(&index, "").unwrap_err().contains("empty"));
    }

    #[test]
    fn batch_is_input_ordered_and_thread_invariant() {
        let index = QueryIndex::new(snapshot(8));
        let lines: Vec<String> = (0..64)
            .map(|i| match i % 3 {
                0 => format!("pattern {}", (i % 8) * 10),
                1 => format!("topk {} 3", (i % 8) * 10),
                _ => format!("decompose {}", (i % 8) * 10),
            })
            .collect();
        let policy = |threads| QueryPolicy {
            threads,
            ..QueryPolicy::default()
        };
        let (seq, seq_tally) = run_batch_with(&index, &lines, &policy(1));
        for threads in [2, 3, 8] {
            let (par, par_tally) = run_batch_with(&index, &lines, &policy(threads));
            assert_eq!(seq, par, "threads={threads}");
            assert_eq!(seq_tally, par_tally, "threads={threads}");
        }
        assert_eq!(seq_tally.requests, 64);
        assert_eq!(seq_tally.errors, 0);
    }

    #[test]
    fn batch_turns_failures_into_error_lines_in_place() {
        let index = QueryIndex::new(snapshot(3));
        let lines = vec!["pattern 0".to_string(), "pattern 999".to_string()];
        let single = QueryPolicy {
            threads: 1,
            ..QueryPolicy::default()
        };
        let (out, tally) = run_batch_with(&index, &lines, &single);
        assert!(out[0].starts_with("pattern 0 "));
        assert!(out[1].starts_with("error: unknown tower 999"));
        assert_eq!(tally.errors, 1);
        assert_eq!(tally.requests, 2);
    }

    #[test]
    fn request_costs_follow_the_virtual_cost_model() {
        let index = QueryIndex::new(snapshot(6));
        assert_eq!(request_cost(&index, &Request::Pattern(0)), 1);
        // Tower 0 has a stored decomposition row; tower 10 solves live.
        assert_eq!(request_cost(&index, &Request::Decompose(0)), 1);
        assert_eq!(
            request_cost(&index, &Request::Decompose(10)),
            DECOMPOSE_SOLVE_UNITS
        );
        // topk scans every tower; screen compares every profile bin.
        assert_eq!(request_cost(&index, &Request::Topk(0, 3)), 6);
        assert_eq!(
            request_cost(&index, &Request::Screen(0, "day.txt".into())),
            4
        );
    }

    #[test]
    fn budget_equal_to_cost_admits_and_one_below_sheds() {
        let index = QueryIndex::new(snapshot(6));
        let admit = QueryPolicy {
            request_budget: Some(6),
            ..QueryPolicy::default()
        };
        assert!(run_one_with(&index, "topk 0 2", &admit)
            .unwrap()
            .starts_with("topk 0 "));
        let shed = QueryPolicy {
            request_budget: Some(5),
            ..QueryPolicy::default()
        };
        let err = run_one_with(&index, "topk 0 2", &shed).unwrap_err();
        assert_eq!(err, "overloaded: request cost 6 exceeds budget 5");
    }

    #[test]
    fn shed_lines_stay_in_input_order_and_tallies_are_thread_invariant() {
        let index = QueryIndex::new(snapshot(8));
        let lines: Vec<String> = (0..64)
            .map(|i| match i % 4 {
                0 => format!("topk {} 3", (i % 8) * 10),
                1 => format!("decompose {}", if i % 8 == 5 { 10 } else { 0 }),
                _ => format!("pattern {}", (i % 8) * 10),
            })
            .collect();
        // Budget 3 sheds topk (cost 8) and live decompose (cost 16)
        // but admits pattern (1) and the stored row for tower 0 (1).
        let policy = |threads| QueryPolicy {
            threads,
            request_budget: Some(3),
        };
        let (seq, seq_tally) = run_batch_with(&index, &lines, &policy(1));
        for (i, line) in seq.iter().enumerate() {
            match i % 4 {
                0 => assert!(line.starts_with("error: overloaded: "), "line {i}: {line}"),
                1 if lines[i].ends_with(" 10") => {
                    assert!(line.starts_with("error: overloaded: "), "line {i}: {line}");
                }
                1 => assert!(line.starts_with("decompose 0 "), "line {i}: {line}"),
                _ => assert!(line.starts_with("pattern "), "line {i}: {line}"),
            }
        }
        // 16 topk + 8 live decompose shed; 8 stored decompose admitted.
        assert_eq!(seq_tally.shed, 24);
        assert_eq!(seq_tally.errors, 0);
        assert_eq!(
            seq_tally.requests,
            seq_tally.pattern
                + seq_tally.decompose
                + seq_tally.topk
                + seq_tally.screen
                + seq_tally.errors
                + seq_tally.shed
        );
        for threads in [2, 3, 8] {
            let (par, par_tally) = run_batch_with(&index, &lines, &policy(threads));
            assert_eq!(seq, par, "threads={threads}");
            assert_eq!(seq_tally, par_tally, "threads={threads}");
        }
    }

    #[test]
    fn screen_flags_a_shifted_day_and_accepts_a_typical_one() {
        let n = 4;
        let bins = 4;
        let index = QueryIndex::new(snapshot(n));
        // A typical day: the tower's own profile mean re-scaled.
        let profile_mean = index.snapshot().profile.mean[0].clone();
        let typical: Vec<f64> = profile_mean.iter().map(|v| v * 5.0 + 100.0).collect();
        let verdict = index.screen(0, &typical);
        if let Ok(v) = verdict {
            assert_eq!(v.bins, bins);
        }
        // A day with one wild bin must raise max_z well above the
        // typical day's.
        let mut wild = typical.clone();
        wild[2] += 1e6;
        let wild_v = index.screen(0, &wild).unwrap();
        assert!(wild_v.max_z > 0.0);
        // Bin-count mismatch is a typed error.
        assert!(index
            .screen(0, &[1.0])
            .unwrap_err()
            .contains("profile expects"));
    }
}
