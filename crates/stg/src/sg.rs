//! Binary-coded state graphs and the region machinery of thesis Sec. 3.4.
//!
//! Besides the scratch generators ([`StateGraph::of_mg`],
//! [`StateGraph::of_stg`]) this module implements the *incremental*
//! regeneration used by the relaxation loop: [`StateGraph::of_mg_from`]
//! derives the successor state graph of a single-arc edit from the
//! predecessor's graph, re-exploring only the cone of states whose
//! enabling conditions the edit can affect, while reproducing the scratch
//! generator's output — including its failures — bit for bit. It also
//! returns the parent↔child state correspondence and the affected cone as
//! an [`SgMap`], so downstream per-state analyses (the conformance sweep)
//! can reuse the unaffected states' verdicts. For *cold* exploration of
//! weakly connected marked graphs, [`StateGraph::of_mg_sigma`] replaces
//! the packed-marking state keys with the cheaper normalized
//! firing-count-vector (σ-space) keys the delta path already uses.
//!
//! Both σ-space generators run one exploration kernel: states are
//! identified by their normalized firing-count rows, kept in a flat arena
//! with an open-addressing index ([`SigmaRows`]), so exploring a state
//! allocates nothing beyond the graph's own edge list.
//! [`StateGraph::of_mg`] stays marking-keyed: it is the independent
//! oracle every σ-space result is checked against.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::mg::MgStg;
use crate::signal::{Polarity, SignalId, TransitionLabel};
use crate::stg::{Stg, StgError};

/// An empty slot of a [`SigmaRows`] index.
const EMPTY: u32 = u32::MAX;

/// The σ rows of one state graph: per state, the normalized firing-count
/// vector that identifies it, in state order, plus an index from rows
/// back to states.
///
/// Layout: one flat arena with one column per alive transition (ascending
/// transition id); state `i`'s row is `rows[i * width..(i + 1) * width]`.
/// Firing counts of a weakly connected marked graph are fixed by the
/// marking only up to a constant shift, so every row is normalized to
/// minimum 0; an entry never exceeds the state count, which the index
/// bounds to `u32`. Each row's hash is stored next to it: re-indexing never
/// re-hashes, and a probe compares whole rows only on equal hashes. The
/// index is linear probing over a power-of-two table of state ids, kept
/// at most half full.
///
/// A value is produced by the σ-space explorer and handed out in
/// [`SgMap::rows`]; passing it back to [`StateGraph::of_mg_from`] with its
/// graph saves that call from re-walking the graph to rebuild it.
#[derive(Debug, Clone)]
pub struct SigmaRows {
    width: usize,
    rows: Vec<u32>,
    hashes: Vec<u64>,
    slots: Vec<u32>,
    indexed: usize,
}

impl PartialEq for SigmaRows {
    /// Two tables are equal when they hold the same rows in the same
    /// order; the hashes follow from the rows and the slot layout is an
    /// index detail.
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width && self.rows == other.rows
    }
}

impl Eq for SigmaRows {}

impl SigmaRows {
    fn new(width: usize) -> Self {
        Self {
            width,
            rows: Vec::new(),
            hashes: Vec::new(),
            slots: vec![EMPTY; 16],
            indexed: 0,
        }
    }

    /// The rows of `sg`'s states, recovered by walking its edges from the
    /// initial state (`alive` = the generating MG's alive transitions).
    /// Each row is its discoverer's row plus one firing, normalized; in a
    /// weakly connected MG every path to a state yields the same row.
    fn of_graph(sg: &StateGraph, alive: &[usize]) -> Self {
        let width = alive.len();
        let col = columns(alive);
        let n = sg.state_count();
        let mut table = Self::new(width);
        table.rows = vec![0; n * width];
        let mut seen = vec![false; n];
        seen[0] = true;
        let mut stack = vec![0usize];
        while let Some(p) = stack.pop() {
            for &(t, j) in &sg.edges[p] {
                if !seen[j] {
                    seen[j] = true;
                    table
                        .rows
                        .copy_within(p * width..(p + 1) * width, j * width);
                    let row = &mut table.rows[j * width..(j + 1) * width];
                    row[col[t]] += 1;
                    normalize(row);
                    stack.push(j);
                }
            }
        }
        table.hashes = table.rows.chunks_exact(width).map(hash_row).collect();
        table.reindex();
        table
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.rows[i * self.width..(i + 1) * self.width]
    }

    /// The state whose row is `row` (with hash `hash`), if indexed.
    fn find(&self, row: &[u32], hash: u64) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut s = hash as usize & mask;
        loop {
            let k = self.slots[s];
            if k == EMPTY {
                return None;
            }
            let k = k as usize;
            if self.hashes[k] == hash && self.row(k) == row {
                return Some(k);
            }
            s = (s + 1) & mask;
        }
    }

    /// Appends a row without indexing it.
    fn push(&mut self, row: &[u32], hash: u64) {
        self.rows.extend_from_slice(row);
        self.hashes.push(hash);
    }

    /// Appends a row from another table with the same columns.
    fn push_from(&mut self, other: &Self, i: usize) {
        self.rows.extend_from_slice(other.row(i));
        self.hashes.push(other.hashes[i]);
    }

    /// Indexes the last appended row. Growing the table re-indexes every
    /// row appended so far; an index holding extra rows answers the same.
    fn index_last(&mut self) {
        if (self.indexed + 1) * 2 > self.slots.len() {
            self.reindex();
        } else {
            self.insert_slot(self.len() - 1);
        }
    }

    /// Indexes every row, sizing the slot table for them.
    fn reindex(&mut self) {
        let cap = (self.len() * 2).next_power_of_two().max(16);
        self.slots.clear();
        self.slots.resize(cap, EMPTY);
        self.indexed = 0;
        for i in 0..self.len() {
            self.insert_slot(i);
        }
    }

    fn insert_slot(&mut self, i: usize) {
        let mask = self.slots.len() - 1;
        let mut s = self.hashes[i] as usize & mask;
        while self.slots[s] != EMPTY {
            s = (s + 1) & mask;
        }
        self.slots[s] = u32::try_from(i).expect("state ids fit in u32");
        self.indexed += 1;
    }
}

/// Hash of one σ row (a multiply-rotate word hash, folded so the low bits
/// the index probes with depend on every entry).
fn hash_row(row: &[u32]) -> u64 {
    let mut h = 0u64;
    for &x in row {
        h = (h.rotate_left(5) ^ u64::from(x)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h ^ (h >> 32)
}

/// Shifts a row to its canonical representative (minimum entry 0).
fn normalize(row: &mut [u32]) {
    let min = row.iter().copied().min().unwrap_or(0);
    if min > 0 {
        for x in row {
            *x -= min;
        }
    }
}

/// `col[t]` = the σ-row column of alive transition `t`.
fn columns(alive: &[usize]) -> Vec<usize> {
    let nt = alive.last().map_or(0, |&t| t + 1);
    let mut col = vec![usize::MAX; nt];
    for (c, &t) in alive.iter().enumerate() {
        col[t] = c;
    }
    col
}

/// The label table of a graph generated from `mg`, indexed by transition
/// id (`None` for dead ids).
fn label_table(mg: &MgStg, alive: &[usize]) -> Vec<Option<TransitionLabel>> {
    let mut labels = vec![None; alive.last().map_or(0, |&t| t + 1)];
    for &t in alive {
        labels[t] = Some(mg.label(t));
    }
    labels
}

/// The consistency violation of firing transition `t` of `mg`.
fn inconsistent(mg: &MgStg, t: usize) -> StgError {
    StgError::Inconsistent {
        signal: mg.signal_name(mg.label(t).signal).to_string(),
    }
}

/// The predecessor state graph an inherited σ exploration derives from.
struct Inherit<'a> {
    sg: &'a StateGraph,
    rows: &'a SigmaRows,
    /// Per transition id: whether the arc delta touches its incoming arcs.
    changed: Vec<bool>,
}

/// One run of the σ-space kernel: the graph, its rows (fully indexed) and
/// the parent counterpart of each state (all `None` without a parent).
struct Explored {
    sg: StateGraph,
    rows: SigmaRows,
    parent_of: Vec<Option<usize>>,
}

/// Where the exploration found an enabled transition's successor.
enum Succ {
    /// An existing child state.
    Known(usize),
    /// A new state whose row is the parent state's row.
    Inherited(usize),
    /// A new state with no parent counterpart; its row is in the buffer.
    Fresh(u64),
}

/// The σ-space exploration kernel behind [`StateGraph::of_mg_sigma`] and
/// [`StateGraph::of_mg_from`]. `mg` must be weakly connected, `alive` its
/// alive transitions, and `parent` (if any) a graph over the same alive
/// set.
///
/// It mirrors [`StateGraph::of_mg`]'s loop exactly — the same LIFO
/// frontier, the same ascending transition order, the same consistency
/// and budget checks at the same points — so it visits the same states in
/// the same order and fails at the same point.
///
/// With a parent, a state that has a parent counterpart `p` inherits from
/// it: a transition whose incoming arcs the delta leaves alone is enabled
/// exactly where `p` has an edge for it, and its successor is the child
/// of `p`'s successor — a state with a known row, found with no row built
/// or hashed. Only the successors of delta-touched transitions and of
/// states with no counterpart are looked up: first among the parent's
/// rows, then among the child's own new rows, which are the only rows the
/// child indexes while it explores.
fn explore(
    mg: &MgStg,
    alive: &[usize],
    budget: usize,
    parent: Option<&Inherit<'_>>,
) -> Result<Explored, StgError> {
    let width = alive.len();
    let col = columns(alive);
    // Incoming arcs per column with token counts, flattened, for the
    // firing-count enabling test `tokens + σ(src) − σ(dst) > 0`.
    let mut pred_start = vec![0usize; width + 1];
    for ((_, b), _) in mg.arcs() {
        pred_start[col[b] + 1] += 1;
    }
    for c in 0..width {
        pred_start[c + 1] += pred_start[c];
    }
    let mut preds = vec![(0usize, 0i64); pred_start[width]];
    let mut fill = pred_start.clone();
    for ((a, b), attr) in mg.arcs() {
        preds[fill[col[b]]] = (col[a], i64::from(attr.tokens));
        fill[col[b]] += 1;
    }

    // Per column: the code bit the transition flips, and the value the
    // signal must not already have (consistency).
    let flips: Vec<(u64, bool)> = alive
        .iter()
        .map(|&t| {
            let label = mg.label(t);
            (1u64 << label.signal.0, label.polarity.target_value())
        })
        .collect();
    // A derived graph is usually about its parent's size: reserve for it.
    let expect = parent.map_or(0, |par| par.rows.len());
    let mut rows = SigmaRows::new(width);
    rows.rows.reserve(expect * width);
    rows.hashes.reserve(expect);
    let mut buf = vec![0u32; width];
    let h0 = hash_row(&buf);
    rows.push(&buf, h0);
    let p0 = parent.and_then(|par| par.rows.find(&buf, h0));
    if p0.is_none() {
        rows.index_last();
    }
    let mut parent_of = Vec::with_capacity(expect);
    parent_of.push(p0);
    // `child_of[p]` = the child state sharing parent state `p`'s row.
    let mut child_of = vec![EMPTY; expect];
    if let Some(p0) = p0 {
        child_of[p0] = 0;
    }
    let mut states = Vec::with_capacity(expect);
    states.push(SgState {
        code: mg.initial_code(),
    });
    let mut edges: Vec<Vec<(usize, usize)>> = Vec::with_capacity(expect);
    edges.push(Vec::new());
    let mut frontier = vec![0usize];
    // The columns of the transitions the delta touches, ascending.
    let changed_cols: Vec<usize> = parent.map_or_else(Vec::new, |par| {
        (0..width).filter(|&c| par.changed[alive[c]]).collect()
    });
    // The enabled transitions of the state being expanded, in ascending
    // order, as `(column, successor of the parent counterpart)`.
    let mut enabled: Vec<(usize, Option<usize>)> = Vec::with_capacity(width);

    while let Some(i) = frontier.pop() {
        enabled.clear();
        {
            let row = rows.row(i);
            let sigma_enabled = |c: usize| {
                preds[pred_start[c]..pred_start[c + 1]]
                    .iter()
                    .all(|&(a, tok)| tok + i64::from(row[a]) - i64::from(row[c]) > 0)
            };
            match parent.zip(parent_of[i]) {
                // Merge the parent counterpart's edges of transitions the
                // delta leaves alone with the σ test of the ones it
                // touches; both run in ascending transition order.
                Some((par, p)) => {
                    let pe = &par.sg.edges[p];
                    let mut k = 0;
                    for &c in &changed_cols {
                        while k < pe.len() && pe[k].0 < alive[c] {
                            let (t, pj) = pe[k];
                            if !par.changed[t] {
                                enabled.push((col[t], Some(pj)));
                            }
                            k += 1;
                        }
                        if sigma_enabled(c) {
                            enabled.push((c, None));
                        }
                    }
                    for &(t, pj) in &pe[k..] {
                        if !par.changed[t] {
                            enabled.push((col[t], Some(pj)));
                        }
                    }
                }
                None => enabled.extend((0..width).filter(|&c| sigma_enabled(c)).map(|c| (c, None))),
            }
        }
        let code = states[i].code;
        edges[i].reserve_exact(enabled.len());
        for &(c, parent_succ) in &enabled {
            let t = alive[c];
            let (bit, target) = flips[c];
            if (code & bit != 0) == target {
                return Err(inconsistent(mg, t));
            }
            let next_code = code ^ bit;
            let succ = match parent_succ {
                Some(pj) => match child_of[pj] {
                    EMPTY => Succ::Inherited(pj),
                    j => Succ::Known(j as usize),
                },
                None => {
                    buf.copy_from_slice(rows.row(i));
                    buf[c] += 1;
                    normalize(&mut buf);
                    let h = hash_row(&buf);
                    match parent.and_then(|par| par.rows.find(&buf, h)) {
                        Some(p) => match child_of[p] {
                            EMPTY => Succ::Inherited(p),
                            j => Succ::Known(j as usize),
                        },
                        None => match rows.find(&buf, h) {
                            Some(j) => Succ::Known(j),
                            None => Succ::Fresh(h),
                        },
                    }
                }
            };
            if !matches!(succ, Succ::Known(_)) && states.len() >= budget {
                return Err(StgError::Petri(si_petri::PetriError::StateBudgetExceeded {
                    budget,
                }));
            }
            let j = match succ {
                Succ::Known(j) => {
                    if states[j].code != next_code {
                        return Err(inconsistent(mg, t));
                    }
                    j
                }
                Succ::Inherited(p) => {
                    let par = parent.expect("inherited states have a parent");
                    rows.push_from(par.rows, p);
                    child_of[p] = u32::try_from(states.len()).expect("state ids fit in u32");
                    parent_of.push(Some(p));
                    states.len()
                }
                Succ::Fresh(h) => {
                    rows.push(&buf, h);
                    rows.index_last();
                    parent_of.push(None);
                    states.len()
                }
            };
            if j == states.len() {
                states.push(SgState { code: next_code });
                edges.push(Vec::new());
                frontier.push(j);
            }
            edges[i].push((t, j));
        }
    }
    if rows.indexed < rows.len() {
        rows.reindex();
    }
    Ok(Explored {
        sg: StateGraph {
            states,
            edges,
            labels: label_table(mg, alive),
        },
        rows,
        parent_of,
    })
}

/// The parent↔child state correspondence and the *affected cone* of one
/// incremental derivation ([`StateGraph::of_mg_from`]).
///
/// The correspondence identifies states by normalized firing-count class:
/// `parent_of[i]` is the predecessor state whose firing counts equal child
/// state `i`'s (it is a partial bijection — both graphs dedup states by
/// the same key).
///
/// The affected cone is the contract downstream verdict reuse rests on:
/// `affected[i]` is `false` only when child state `i` has a parent
/// counterpart `p = parent_of[i]` with the **same binary code and the
/// same edge list** — elementwise equal transition ids, with each
/// successor pair related by the correspondence — and the two graphs
/// share their transition-label table. Every *local* per-state verdict
/// (a function of the state's code, its own outgoing edges and the shared
/// labels — excitedness, cover evaluation, premature/lagging membership)
/// therefore coincides between `i` and `p` whenever `affected[i]` is
/// `false`. Verdicts that traverse *paths* (next-transition-to-fire,
/// pending-ness) are **not** covered by the contract and must be
/// recomputed by the consumer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SgMap {
    /// `parent_of[i]` = the parent state sharing child state `i`'s
    /// normalized firing-count class, if any.
    pub parent_of: Vec<Option<usize>>,
    /// Whether child state `i` is in the affected cone (no parent
    /// counterpart, or its code/edge list differs from the counterpart's
    /// under the correspondence).
    pub affected: Vec<bool>,
    /// The child graph's σ rows. Passed to the next
    /// [`StateGraph::of_mg_from`] that derives from the child graph, they
    /// spare it the walk that would rebuild them.
    pub rows: SigmaRows,
}

impl SgMap {
    /// Number of states outside the affected cone (whose local verdicts
    /// the correspondence makes reusable).
    pub fn unaffected_count(&self) -> usize {
        self.affected.iter().filter(|&&a| !a).count()
    }

    /// Derives the cone from the exploration's correspondence vector:
    /// child state `i` is affected iff it has no counterpart, the label
    /// tables differ, its code differs, or its edge list differs
    /// elementwise (transition ids, and successors related by
    /// `parent_of`).
    fn derive(explored: Explored, parent: &StateGraph) -> (StateGraph, Self) {
        let Explored {
            sg: child,
            rows,
            parent_of,
        } = explored;
        let labels_match = child.labels == parent.labels;
        let affected = (0..child.states.len())
            .map(|i| match parent_of[i] {
                None => true,
                Some(p) => {
                    !labels_match
                        || child.states[i].code != parent.states[p].code
                        || child.edges[i].len() != parent.edges[p].len()
                        || child.edges[i]
                            .iter()
                            .zip(&parent.edges[p])
                            .any(|(&(t, j), &(pt, pj))| t != pt || parent_of[j] != Some(pj))
                }
            })
            .collect();
        let map = Self {
            parent_of,
            affected,
            rows,
        };
        (child, map)
    }
}

/// One state of a [`StateGraph`]: a reachable marking labelled with the
/// binary signal vector (bit `i` = value of signal `i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SgState {
    /// Packed signal values.
    pub code: u64,
}

/// A state graph: reachable markings of an STG with consistent binary codes
/// (thesis Sec. 3.4). State 0 is the initial state. Edge labels are the
/// transition ids of the source [`MgStg`] or [`Stg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateGraph {
    /// States; index 0 is the initial state.
    pub states: Vec<SgState>,
    /// `edges[i]` lists `(transition id, successor state)` pairs.
    pub edges: Vec<Vec<(usize, usize)>>,
    labels: Vec<Option<TransitionLabel>>,
}

impl StateGraph {
    /// Generates the state graph of a marked-graph STG (the `Write_sg` step
    /// of Algorithm 4), checking consistency along the way.
    ///
    /// # Errors
    ///
    /// [`StgError::Inconsistent`] if rising/falling transitions do not
    /// alternate, [`StgError::Petri`] via budget exhaustion.
    pub fn of_mg(mg: &MgStg, budget: usize) -> Result<Self, StgError> {
        let arc_keys: Vec<(usize, usize)> = mg.arcs().map(|(k, _)| k).collect();
        let pack = |m: &std::collections::BTreeMap<(usize, usize), u32>| -> Vec<u32> {
            arc_keys
                .iter()
                .map(|k| m.get(k).copied().unwrap_or(0))
                .collect()
        };
        let alive = mg.transitions();
        let mut labels: Vec<Option<TransitionLabel>> = Vec::new();
        for &t in &alive {
            while labels.len() <= t {
                labels.push(None);
            }
            labels[t] = Some(mg.label(t));
        }

        let m0 = mg.initial_marking();
        let mut index: HashMap<Vec<u32>, usize> = HashMap::new();
        let mut markings = vec![m0.clone()];
        let mut states = vec![SgState {
            code: mg.initial_code(),
        }];
        let mut edges: Vec<Vec<(usize, usize)>> = vec![Vec::new()];
        index.insert(pack(&m0), 0);
        let mut frontier = vec![0usize];

        while let Some(i) = frontier.pop() {
            let m = markings[i].clone();
            let code = states[i].code;
            for &t in &alive {
                if !mg.enabled_in(t, &m) {
                    continue;
                }
                let label = mg.label(t);
                let bit = 1u64 << label.signal.0;
                let before = code & bit != 0;
                if before == label.polarity.target_value() {
                    return Err(StgError::Inconsistent {
                        signal: mg.signal_name(label.signal).to_string(),
                    });
                }
                let next_code = code ^ bit;
                let next_m = mg.fire_in(t, &m);
                let key = pack(&next_m);
                let j = match index.get(&key) {
                    Some(&j) => {
                        if states[j].code != next_code {
                            return Err(StgError::Inconsistent {
                                signal: mg.signal_name(label.signal).to_string(),
                            });
                        }
                        j
                    }
                    None => {
                        if markings.len() >= budget {
                            return Err(StgError::Petri(
                                si_petri::PetriError::StateBudgetExceeded { budget },
                            ));
                        }
                        let j = markings.len();
                        markings.push(next_m);
                        states.push(SgState { code: next_code });
                        edges.push(Vec::new());
                        index.insert(key, j);
                        frontier.push(j);
                        j
                    }
                };
                edges[i].push((t, j));
            }
        }
        Ok(Self {
            states,
            edges,
            labels,
        })
    }

    /// Derives the state graph of `mg` from the predecessor `parent`'s
    /// graph, re-exploring only the cone of states affected by the arc
    /// delta between the two — the incremental regeneration behind each
    /// relaxation-loop edit.
    ///
    /// `parent_sg` must be the graph [`StateGraph::of_mg`] returns for
    /// `parent` (any budget it fits in), and `parent_rows`, if given, the
    /// [`SgMap::rows`] that came with `parent_sg` from an earlier call;
    /// without them the parent's rows are rebuilt by walking `parent_sg`.
    /// The contract is exact equivalence with a scratch run: the returned
    /// graph is bit-identical to `StateGraph::of_mg(mg, budget)` — same
    /// state indexing, same edge order — and every failure (consistency
    /// violation, budget exhaustion) is the error the scratch run would
    /// report, raised at the same point of the exploration. The returned
    /// [`SgMap`] carries the parent↔child state correspondence plus the
    /// affected cone (see [`SgMap`] for the exact reuse contract) and the
    /// child's rows; it is `None` when the inputs were ineligible
    /// (different alive-transition sets, or a parent or child arc skeleton
    /// that is not weakly connected) and the result came from a scratch
    /// generation — σ-keyed ([`StateGraph::of_mg_sigma`]) whenever `mg` is
    /// weakly connected.
    ///
    /// The delta-guided path identifies states by *normalized firing-count
    /// vectors* instead of full markings: in a weakly connected marked
    /// graph a reachable marking determines the firing counts up to a
    /// constant shift, so the count vector is a faithful state key shared
    /// between predecessor and successor. A transition whose incoming arcs
    /// the delta does not touch is enabled in the successor exactly where
    /// the predecessor's graph has an edge for it — those verdicts (and
    /// the successor states they lead to) are copied in O(1) per edge,
    /// with no state key built; only transitions downstream of the edited
    /// arc, and states beyond the predecessor's horizon, are looked up.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`StateGraph::of_mg`] under `budget`.
    pub fn of_mg_from(
        parent: &MgStg,
        parent_sg: &StateGraph,
        parent_rows: Option<&SigmaRows>,
        mg: &MgStg,
        budget: usize,
    ) -> Result<(Self, Option<SgMap>), StgError> {
        if !mg.arcs_weakly_connected() {
            return Ok((Self::of_mg(mg, budget)?, None));
        }
        let alive = mg.transitions();
        if parent.transitions() != alive {
            return Ok((explore(mg, &alive, budget, None)?.sg, None));
        }
        // Rows are only ever built for weakly connected MGs. In any other
        // parent a state's firing counts depend on the path that reached
        // it, so there is nothing faithful to inherit through.
        let rows = match parent_rows {
            Some(r) if r.width == alive.len() && r.len() == parent_sg.state_count() => {
                Cow::Borrowed(r)
            }
            _ if parent.arcs_weakly_connected() => {
                Cow::Owned(SigmaRows::of_graph(parent_sg, &alive))
            }
            _ => return Ok((explore(mg, &alive, budget, None)?.sg, None)),
        };
        // Transitions whose enabling the delta can affect (their incoming
        // arcs changed); everything else inherits the parent's verdicts.
        let mut changed = vec![false; alive.last().map_or(0, |&t| t + 1)];
        for t in parent.arc_delta(mg).affected_dsts() {
            changed[t] = true;
        }
        let inherit = Inherit {
            sg: parent_sg,
            rows: &rows,
            changed,
        };
        let explored = explore(mg, &alive, budget, Some(&inherit))?;
        let (sg, map) = SgMap::derive(explored, parent_sg);
        Ok((sg, Some(map)))
    }

    /// Generates the state graph of a *weakly connected* marked-graph STG
    /// using normalized firing-count vectors (σ-space) as state keys — the
    /// cheaper identification [`StateGraph::of_mg_from`] already uses for
    /// its delta path, applied to cold (no-predecessor) exploration. In a
    /// weakly connected marked graph a reachable marking determines the
    /// firing counts up to a constant shift, so the normalized vector is a
    /// faithful state key; enabledness reduces to the per-arc test
    /// `tokens + σ(src) − σ(dst) > 0`, with no marking maps cloned per
    /// state.
    ///
    /// The output contract is exact equivalence with [`StateGraph::of_mg`]:
    /// the same LIFO frontier and ascending transition order visit the
    /// same states under either key, so the returned graph — and every
    /// failure, raised at the same exploration point — is bit-identical.
    /// Inputs that are not weakly connected fall back to
    /// [`StateGraph::of_mg`] transparently.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`StateGraph::of_mg`] under `budget`.
    pub fn of_mg_sigma(mg: &MgStg, budget: usize) -> Result<Self, StgError> {
        if !mg.arcs_weakly_connected() {
            return Self::of_mg(mg, budget);
        }
        Ok(explore(mg, &mg.transitions(), budget, None)?.sg)
    }
    /// Generates the state graph of a full (possibly free-choice) STG.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StateGraph::of_mg`], plus errors from
    /// [`Stg::initial_values`].
    pub fn of_stg(stg: &Stg, budget: usize) -> Result<Self, StgError> {
        let values = stg.initial_values()?;
        let mut code0 = 0u64;
        for (i, &v) in values.iter().enumerate() {
            if v {
                code0 |= 1u64 << i;
            }
        }
        let net = stg.net();
        let labels: Vec<Option<TransitionLabel>> =
            net.transitions().map(|t| Some(stg.label(t))).collect();

        let m0 = net.initial_marking();
        let mut index: HashMap<Vec<u32>, usize> = HashMap::new();
        let mut markings = vec![m0.clone()];
        let mut states = vec![SgState { code: code0 }];
        let mut edges: Vec<Vec<(usize, usize)>> = vec![Vec::new()];
        index.insert(m0, 0);
        let mut frontier = vec![0usize];

        while let Some(i) = frontier.pop() {
            let m = markings[i].clone();
            let code = states[i].code;
            for t in net.enabled_transitions(&m) {
                let label = stg.label(t);
                let bit = 1u64 << label.signal.0;
                if (code & bit != 0) == label.polarity.target_value() {
                    return Err(StgError::Inconsistent {
                        signal: stg.signal_name(label.signal).to_string(),
                    });
                }
                let next_code = code ^ bit;
                let next_m = net.fire(t, &m);
                let j = match index.get(&next_m) {
                    Some(&j) => {
                        if states[j].code != next_code {
                            return Err(StgError::Inconsistent {
                                signal: stg.signal_name(label.signal).to_string(),
                            });
                        }
                        j
                    }
                    None => {
                        if markings.len() >= budget {
                            return Err(StgError::Petri(
                                si_petri::PetriError::StateBudgetExceeded { budget },
                            ));
                        }
                        let j = markings.len();
                        markings.push(next_m.clone());
                        states.push(SgState { code: next_code });
                        edges.push(Vec::new());
                        index.insert(next_m, j);
                        frontier.push(j);
                        j
                    }
                };
                edges[i].push((t.0, j));
            }
        }
        Ok(Self {
            states,
            edges,
            labels,
        })
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Label of transition id `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` was not alive when the graph was generated.
    pub fn label(&self, t: usize) -> TransitionLabel {
        self.labels[t].expect("transition was alive at SG generation")
    }

    /// The binary code of state `i`.
    pub fn code(&self, i: usize) -> u64 {
        self.states[i].code
    }

    /// Value of `signal` in state `i`.
    pub fn value(&self, i: usize, signal: SignalId) -> bool {
        self.states[i].code & (1u64 << signal.0) != 0
    }

    /// Whether `signal` is excited in state `i` (some transition of the
    /// signal is enabled).
    pub fn is_excited(&self, i: usize, signal: SignalId) -> bool {
        self.edges[i]
            .iter()
            .any(|&(t, _)| self.label(t).signal == signal)
    }

    /// The successor of state `i` by transition `t`, if enabled there.
    pub fn successor_by(&self, i: usize, t: usize) -> Option<usize> {
        self.edges[i]
            .iter()
            .find(|&&(u, _)| u == t)
            .map(|&(_, j)| j)
    }

    /// States where transition `t` is enabled: the excitation region of that
    /// particular occurrence.
    pub fn er_of_transition(&self, t: usize) -> Vec<usize> {
        (0..self.states.len())
            .filter(|&i| self.edges[i].iter().any(|&(u, _)| u == t))
            .collect()
    }

    /// `ER(signal±)`: states where any occurrence of the edge is enabled.
    pub fn er_states(&self, signal: SignalId, polarity: Polarity) -> Vec<usize> {
        (0..self.states.len())
            .filter(|&i| {
                self.edges[i].iter().any(|&(t, _)| {
                    let l = self.label(t);
                    l.signal == signal && l.polarity == polarity
                })
            })
            .collect()
    }

    /// `QR(signal+)` (`value = true`) or `QR(signal-)` (`value = false`):
    /// states where the signal is stable at `value`.
    pub fn qr_states(&self, signal: SignalId, value: bool) -> Vec<usize> {
        (0..self.states.len())
            .filter(|&i| !self.is_excited(i, signal) && self.value(i, signal) == value)
            .collect()
    }

    /// The indexed excitation regions `ERi(signal±)` of thesis Sec. 3.4:
    /// the connected components of the excitation region, each sorted, in
    /// deterministic order.
    pub fn er_regions(&self, signal: SignalId, polarity: Polarity) -> Vec<Vec<usize>> {
        self.connected_components(&self.er_states(signal, polarity))
    }

    /// The indexed quiescent regions `QRi` (`value = true` for `QR(sig+)`).
    pub fn qr_regions(&self, signal: SignalId, value: bool) -> Vec<Vec<usize>> {
        self.connected_components(&self.qr_states(signal, value))
    }

    fn connected_components(&self, members: &[usize]) -> Vec<Vec<usize>> {
        let member_set: std::collections::BTreeSet<usize> = members.iter().copied().collect();
        let mut assigned: std::collections::BTreeMap<usize, usize> =
            std::collections::BTreeMap::new();
        let mut components: Vec<Vec<usize>> = Vec::new();
        for &start in members {
            if assigned.contains_key(&start) {
                continue;
            }
            let id = components.len();
            let mut component = Vec::new();
            let mut stack = vec![start];
            assigned.insert(start, id);
            while let Some(s) = stack.pop() {
                component.push(s);
                // Undirected adjacency restricted to the member set.
                for &(_, j) in &self.edges[s] {
                    if member_set.contains(&j) && !assigned.contains_key(&j) {
                        assigned.insert(j, id);
                        stack.push(j);
                    }
                }
                for (p, outs) in self.edges.iter().enumerate() {
                    if member_set.contains(&p)
                        && !assigned.contains_key(&p)
                        && outs.iter().any(|&(_, j)| j == s)
                    {
                        assigned.insert(p, id);
                        stack.push(p);
                    }
                }
            }
            component.sort_unstable();
            components.push(component);
        }
        components
    }

    /// The next transition of `signal` to fire from state `i`: the unique
    /// transition of the signal first reachable along any path. Returns
    /// `None` if the signal never fires from `i`.
    ///
    /// # Errors
    ///
    /// [`StgError::Inconsistent`] if different paths reach different
    /// occurrences first (impossible in a consistent STG).
    pub fn next_transition_of(
        &self,
        i: usize,
        signal: SignalId,
        signal_name: &str,
    ) -> Result<Option<usize>, StgError> {
        let mut seen = vec![false; self.states.len()];
        let mut stack = vec![i];
        seen[i] = true;
        let mut found: Option<usize> = None;
        while let Some(s) = stack.pop() {
            for &(t, j) in &self.edges[s] {
                if self.label(t).signal == signal {
                    match found {
                        None => found = Some(t),
                        Some(prev) if prev != t => {
                            return Err(StgError::Inconsistent {
                                signal: signal_name.to_string(),
                            })
                        }
                        _ => {}
                    }
                } else if !seen[j] {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        Ok(found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_astg;
    use crate::signal::SignalKind;

    fn handshake_mg() -> (Stg, MgStg) {
        let text = "\
.model handshake
.inputs req
.outputs ack
.graph
req+ ack+
ack+ req-
req- ack-
ack- req+
.marking { <ack-,req+> }
.end
";
        let stg = parse_astg(text).expect("valid");
        let mg = MgStg::from_stg_mg(&stg).expect("marked graph");
        (stg, mg)
    }

    #[test]
    fn handshake_sg_has_four_states() {
        let (_, mg) = handshake_mg();
        let sg = StateGraph::of_mg(&mg, 100).expect("consistent");
        assert_eq!(sg.state_count(), 4);
        // Initial state 00.
        assert_eq!(sg.code(0), 0);
    }

    #[test]
    fn regions_partition_states() {
        let (stg, mg) = handshake_mg();
        let sg = StateGraph::of_mg(&mg, 100).expect("consistent");
        let req = stg.signal_by_name("req").expect("declared");
        let ack = stg.signal_by_name("ack").expect("declared");
        // ER(ack+) = {state after req+}, one state; QR(ack+) similar.
        assert_eq!(sg.er_states(ack, Polarity::Plus).len(), 1);
        assert_eq!(sg.er_states(ack, Polarity::Minus).len(), 1);
        assert_eq!(sg.qr_states(ack, true).len(), 1);
        assert_eq!(sg.qr_states(ack, false).len(), 1);
        // req is an input: every state has req either excited or stable.
        let total = sg.er_states(req, Polarity::Plus).len()
            + sg.er_states(req, Polarity::Minus).len()
            + sg.qr_states(req, true).len()
            + sg.qr_states(req, false).len();
        assert_eq!(total, 4);
    }

    #[test]
    fn inconsistent_mg_is_rejected() {
        // x+ followed by x+ again: inconsistent.
        let mut stg = Stg::new("bad");
        let x = stg.add_signal("x", SignalKind::Input);
        let mut mg = MgStg::empty_like(&stg);
        let a = mg.add_transition(TransitionLabel::new(x, Polarity::Plus, 1));
        let b = mg.add_transition(TransitionLabel::new(x, Polarity::Plus, 2));
        mg.insert_arc(a, b, 0, false);
        mg.insert_arc(b, a, 1, false);
        assert!(matches!(
            StateGraph::of_mg(&mg, 100),
            Err(StgError::Inconsistent { .. })
        ));
    }

    #[test]
    fn full_stg_sg_handles_choice() {
        let text = "\
.model choice
.inputs a b
.outputs c
.graph
p0 a+ b+
a+ c+
b+ c+
c+ p1
p1 a- b-
a- c-
b- c-
c- p0
.marking { p0 }
.end
";
        // A free-choice STG where either a or b handshakes with c. Note the
        // second choice must match the first for consistency, so this STG is
        // only consistent if a+ pairs with a- — here both orders exist, so
        // consistency fails. Use it to check error reporting:
        let stg = parse_astg(text).expect("parses");
        assert!(StateGraph::of_stg(&stg, 1000).is_err());
    }

    #[test]
    fn full_stg_sg_of_imec_benchmark() {
        let stg = parse_astg(crate::parse::IMEC_RAM_READ_SBUF_G).expect("valid");
        let sg = StateGraph::of_stg(&stg, 100_000).expect("consistent");
        assert_eq!(sg.state_count(), 112); // thesis Table 7.2
    }

    #[test]
    fn indexed_regions_are_connected_partitions() {
        // fifo-double style: a signal toggling twice per cycle has two
        // disjoint positive excitation regions. Use a chain where x rises
        // twice: x+ a+ x- x+/2 b+ x-/2 (ring).
        let text = "\
.model twice
.inputs a b
.outputs x
.graph
x+ a+
a+ x-
x- a-
a- x+/2
x+/2 b+
b+ x-/2
x-/2 b-
b- x+
.marking { <b-,x+> }
.end
";
        let stg = parse_astg(text).expect("valid");
        let mg = MgStg::from_stg_mg(&stg).expect("marked graph");
        let sg = StateGraph::of_mg(&mg, 1000).expect("consistent");
        let x = stg.signal_by_name("x").expect("declared");
        let ers = sg.er_regions(x, Polarity::Plus);
        assert_eq!(ers.len(), 2, "two separate ER(x+) components: {ers:?}");
        let qrs = sg.qr_regions(x, true);
        assert_eq!(qrs.len(), 2, "two separate QR(x+) components: {qrs:?}");
        // Regions partition their aggregate sets.
        let total: usize = ers.iter().map(Vec::len).sum();
        assert_eq!(total, sg.er_states(x, Polarity::Plus).len());
    }

    /// The chain `x+ → y+ → o+ → x- → y- → o- → x+` of the relaxation
    /// tests, plus its relaxed successor (the arcs `relax_arc` produces
    /// for `x+ ⇒ y+`: the direct arc removed, bypasses `o- ⇒ y+` and
    /// `x+ ⇒ o+` inserted).
    fn chain_and_relaxed() -> (MgStg, MgStg) {
        let text = "\
.model chain
.inputs x y
.outputs o
.graph
x+ y+
y+ o+
o+ x-
x- y-
y- o-
o- x+
.marking { <o-,x+> }
.end
";
        let stg = parse_astg(text).expect("valid");
        let parent = MgStg::from_stg_mg(&stg).expect("marked graph");
        let xp = parent.transition_by_label("x+").expect("present");
        let yp = parent.transition_by_label("y+").expect("present");
        let op = parent.transition_by_label("o+").expect("present");
        let om = parent.transition_by_label("o-").expect("present");
        let mut child = parent.clone();
        child.remove_arc(xp, yp);
        child.insert_arc(om, yp, 1, false);
        child.insert_arc(xp, op, 0, false);
        (parent, child)
    }

    #[test]
    fn incremental_regeneration_matches_scratch_after_relaxation_edit() {
        let (parent, child) = chain_and_relaxed();
        let parent_sg = StateGraph::of_mg(&parent, 1000).expect("consistent");
        let scratch = StateGraph::of_mg(&child, 1000).expect("consistent");
        let (inc, map) =
            StateGraph::of_mg_from(&parent, &parent_sg, None, &child, 1000).expect("derives");
        let map = map.expect("a relaxation edit must take the delta path");
        assert_eq!(inc, scratch);
        assert!(
            inc.state_count() > parent_sg.state_count(),
            "relaxation grows the interleaving space: {} vs {}",
            inc.state_count(),
            parent_sg.state_count()
        );
        assert_sg_map_contract(&inc, &parent_sg, &map);
    }

    /// Checks the [`SgMap`] reuse contract against its definition: every
    /// unaffected child state has a parent counterpart with the same code
    /// and an elementwise-identical edge list under the correspondence.
    fn assert_sg_map_contract(child: &StateGraph, parent: &StateGraph, map: &SgMap) {
        assert_eq!(map.parent_of.len(), child.state_count());
        assert_eq!(map.affected.len(), child.state_count());
        for i in 0..child.state_count() {
            if map.affected[i] {
                continue;
            }
            let p = map.parent_of[i].expect("unaffected implies mapped");
            assert_eq!(child.states[i].code, parent.states[p].code, "state {i}");
            assert_eq!(
                child.edges[i].len(),
                parent.edges[p].len(),
                "state {i} edge count"
            );
            for (&(t, j), &(pt, pj)) in child.edges[i].iter().zip(&parent.edges[p]) {
                assert_eq!(t, pt, "state {i}");
                assert_eq!(map.parent_of[j], Some(pj), "state {i} successor");
                assert_eq!(child.label(t), parent.label(pt), "state {i} label");
            }
        }
    }

    #[test]
    fn incremental_regeneration_matches_scratch_after_token_move() {
        let (_, mg) = handshake_mg();
        let parent_sg = StateGraph::of_mg(&mg, 100).expect("consistent");
        // Advance the cycle by one firing of req+: the token moves from
        // <ack-, req+> to <req+, ack+> and the initial code flips req.
        let reqp = mg.transition_by_label("req+").expect("present");
        let ackp = mg.transition_by_label("ack+").expect("present");
        let ackm = mg.transition_by_label("ack-").expect("present");
        let mut child = mg.clone();
        child.remove_arc(reqp, ackp);
        child.insert_arc(reqp, ackp, 1, false);
        child.remove_arc(ackm, reqp);
        child.insert_arc(ackm, reqp, 0, false);
        child.set_initial_code(1);
        let scratch = StateGraph::of_mg(&child, 100).expect("consistent");
        let (inc, map) =
            StateGraph::of_mg_from(&mg, &parent_sg, None, &child, 100).expect("derives");
        let map = map.expect("delta path");
        assert_eq!(inc, scratch);
        assert_sg_map_contract(&inc, &parent_sg, &map);
        // The token move shifts every code, so no verdict is reusable.
        assert_eq!(map.unaffected_count(), 0);
    }

    #[test]
    fn incremental_regeneration_replays_failures_exactly() {
        // Under every budget — including ones neither graph fits in — the
        // incremental derivation must reproduce the scratch result, Ok or
        // Err alike.
        let (parent, child) = chain_and_relaxed();
        let parent_sg = StateGraph::of_mg(&parent, 1000).expect("consistent");
        for budget in 1..=10 {
            let scratch = StateGraph::of_mg(&child, budget);
            let inc =
                StateGraph::of_mg_from(&parent, &parent_sg, None, &child, budget).map(|(sg, _)| sg);
            assert_eq!(inc, scratch, "budget {budget}");
        }
        // An inconsistent edit (removing y+'s only ordering toward o+
        // leaves o+ racing) must fail identically on both paths.
        let mut bad = parent.clone();
        let yp = bad.transition_by_label("y+").expect("present");
        let op = bad.transition_by_label("o+").expect("present");
        let om = bad.transition_by_label("o-").expect("present");
        bad.remove_arc(yp, op);
        bad.insert_arc(om, op, 1, false);
        let scratch = StateGraph::of_mg(&bad, 1000);
        let inc = StateGraph::of_mg_from(&parent, &parent_sg, None, &bad, 1000).map(|(sg, _)| sg);
        assert!(scratch.is_err(), "edit must be inconsistent");
        assert_eq!(inc, scratch);
    }

    #[test]
    fn incremental_regeneration_from_a_disconnected_parent_matches_scratch() {
        // Two independent handshake rings: in the parent's state graph a
        // state's firing counts depend on the path that reached it, so
        // an arc that joins the rings must not inherit through them.
        let mut stg = Stg::new("rings");
        let a = stg.add_signal("a", SignalKind::Input);
        let b = stg.add_signal("b", SignalKind::Input);
        let mut parent = MgStg::empty_like(&stg);
        let ap = parent.add_transition(TransitionLabel::new(a, Polarity::Plus, 1));
        let am = parent.add_transition(TransitionLabel::new(a, Polarity::Minus, 1));
        let bp = parent.add_transition(TransitionLabel::new(b, Polarity::Plus, 1));
        let bm = parent.add_transition(TransitionLabel::new(b, Polarity::Minus, 1));
        parent.insert_arc(ap, am, 0, false);
        parent.insert_arc(am, ap, 1, false);
        parent.insert_arc(bp, bm, 0, false);
        parent.insert_arc(bm, bp, 1, false);
        assert!(!parent.arcs_weakly_connected());
        let parent_sg = StateGraph::of_mg(&parent, 100).expect("consistent");
        for (src, dst) in [(ap, bp), (am, bp), (bm, ap), (bp, am)] {
            for tokens in 0..=2 {
                let mut child = parent.clone();
                child.insert_arc(src, dst, tokens, false);
                for budget in [1, 2, 3, 100] {
                    let inc = StateGraph::of_mg_from(&parent, &parent_sg, None, &child, budget)
                        .map(|(sg, _)| sg);
                    assert_eq!(
                        inc,
                        StateGraph::of_mg(&child, budget),
                        "arc {src}->{dst} with {tokens} tokens, budget {budget}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_regeneration_falls_back_on_alive_mismatch() {
        // Projecting the handshake down to the ack cycle removes both req
        // transitions: the alive sets differ, so the delta path must
        // decline and the scratch fallback must still match.
        let (_, mg) = handshake_mg();
        let parent_sg = StateGraph::of_mg(&mg, 100).expect("consistent");
        let reqp = mg.transition_by_label("req+").expect("present");
        let reqm = mg.transition_by_label("req-").expect("present");
        let ackp = mg.transition_by_label("ack+").expect("present");
        let ackm = mg.transition_by_label("ack-").expect("present");
        let mut child = mg.clone();
        child.remove_transition(reqp);
        child.remove_transition(reqm);
        child.insert_arc(ackp, ackm, 0, false);
        child.insert_arc(ackm, ackp, 1, false);
        let scratch = StateGraph::of_mg(&child, 100).expect("consistent");
        let (inc, map) =
            StateGraph::of_mg_from(&mg, &parent_sg, None, &child, 100).expect("derives");
        assert!(
            map.is_none(),
            "a removed transition must force the fallback"
        );
        assert_eq!(inc, scratch);
        // The fallback is the σ kernel (the child is weakly connected),
        // identical to both cold generators under every budget.
        assert!(child.arcs_weakly_connected());
        for budget in 1..=5 {
            let inc =
                StateGraph::of_mg_from(&mg, &parent_sg, None, &child, budget).map(|(sg, _)| sg);
            assert_eq!(inc, StateGraph::of_mg(&child, budget), "budget {budget}");
            assert_eq!(
                inc,
                StateGraph::of_mg_sigma(&child, budget),
                "budget {budget}"
            );
        }
    }

    #[test]
    fn sg_map_leaves_undisturbed_states_unaffected() {
        // A redundant ordering arc (req+ ⇒ req-) changes no reachable
        // behaviour: every state keeps its code and edge list, so the
        // affected cone must be empty and the correspondence total.
        let (_, mg) = handshake_mg();
        let parent_sg = StateGraph::of_mg(&mg, 100).expect("consistent");
        let reqp = mg.transition_by_label("req+").expect("present");
        let reqm = mg.transition_by_label("req-").expect("present");
        let mut child = mg.clone();
        child.insert_arc(reqp, reqm, 0, false);
        let (inc, map) =
            StateGraph::of_mg_from(&mg, &parent_sg, None, &child, 100).expect("derives");
        let map = map.expect("delta path");
        assert_eq!(inc, StateGraph::of_mg(&child, 100).expect("consistent"));
        assert_eq!(map.unaffected_count(), inc.state_count());
        assert_sg_map_contract(&inc, &parent_sg, &map);
    }

    #[test]
    fn sigma_cold_generation_matches_marking_keyed_generation() {
        let (_, mg) = handshake_mg();
        let (parent, child) = chain_and_relaxed();
        for mg in [&mg, &parent, &child] {
            assert_eq!(
                StateGraph::of_mg_sigma(mg, 1000).expect("consistent"),
                StateGraph::of_mg(mg, 1000).expect("consistent")
            );
        }
        // Budget and consistency failures replay at the same point.
        for budget in 1..=10 {
            let scratch = StateGraph::of_mg(&child, budget);
            let sigma = StateGraph::of_mg_sigma(&child, budget);
            assert_eq!(sigma, scratch, "budget {budget}");
        }
    }

    #[test]
    fn explored_rows_equal_the_rows_walked_from_the_graph() {
        // The rows the kernel hands forward must be exactly the rows a
        // walk of the finished graph rebuilds, and index every state.
        let (parent, child) = chain_and_relaxed();
        let parent_sg = StateGraph::of_mg(&parent, 1000).expect("consistent");
        for mg in [&parent, &child] {
            let alive = mg.transitions();
            let explored = explore(mg, &alive, 1000, None).expect("consistent");
            let walked = SigmaRows::of_graph(&explored.sg, &alive);
            assert_eq!(explored.rows, walked);
            for i in 0..walked.len() {
                let row = walked.row(i);
                assert_eq!(explored.rows.find(row, hash_row(row)), Some(i));
            }
        }
        let (sg, map) =
            StateGraph::of_mg_from(&parent, &parent_sg, None, &child, 1000).expect("derives");
        let map = map.expect("delta path");
        assert_eq!(map.rows, SigmaRows::of_graph(&sg, &child.transitions()));
        for i in 0..sg.state_count() {
            let row = map.rows.row(i);
            assert_eq!(map.rows.find(row, hash_row(row)), Some(i));
        }
    }

    #[test]
    fn next_transition_of_follows_paths() {
        let (stg, mg) = handshake_mg();
        let sg = StateGraph::of_mg(&mg, 100).expect("consistent");
        let ack = stg.signal_by_name("ack").expect("declared");
        let next = sg
            .next_transition_of(0, ack, "ack")
            .expect("consistent")
            .expect("fires");
        assert_eq!(sg.label(next).polarity, Polarity::Plus);
    }

    #[test]
    fn concurrency_diamonds_enumerate_all_interleavings() {
        // a+ → (b+ ∥ c+) → a- → (b- ∥ c-) → a+: two diamonds, 8 states.
        let text = "\
.model diamonds
.inputs a
.outputs b c
.graph
a+ b+ c+
b+ a-
c+ a-
a- b- c-
b- a+
c- a+
.marking { <b-,a+> <c-,a+> }
.end
";
        let stg = parse_astg(text).expect("valid");
        let mg = MgStg::from_stg_mg(&stg).expect("marked graph");
        let sg = StateGraph::of_mg(&mg, 1000).expect("consistent");
        assert_eq!(sg.state_count(), 8);
        // Codes are unique per marking here and consistent: b and c are
        // concurrent after a+, so both orders exist.
        let b = stg.signal_by_name("b").expect("declared");
        let c = stg.signal_by_name("c").expect("declared");
        assert_eq!(sg.er_states(b, Polarity::Plus).len(), 2);
        assert_eq!(sg.er_states(c, Polarity::Plus).len(), 2);
    }
}
