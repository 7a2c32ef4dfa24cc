//! Binary-coded state graphs and the region machinery of thesis Sec. 3.4.
//!
//! Two generators build the state graph of a marked-graph STG.
//! [`StateGraph::of_mg`] keys states by their packed markings: it is the
//! independent oracle. [`StateGraph::of_mg_sigma`] keys states of weakly
//! connected marked graphs by their normalized firing-count vectors
//! (σ space) instead, kept in a flat arena with an open-addressing index,
//! so exploring a state allocates nothing beyond the graph's own edge
//! list; its output is bit-identical to the oracle's, failures included.
//! [`StateGraph::of_stg`] generates the graph of a full (possibly
//! free-choice) STG.

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
#[derive(Debug)]
struct SigmaRows {
    width: usize,
    rows: Vec<u32>,
    hashes: Vec<u64>,
    slots: Vec<u32>,
}

impl SigmaRows {
    fn new(width: usize) -> Self {
        Self {
            width,
            rows: Vec::new(),
            hashes: Vec::new(),
            slots: vec![EMPTY; 16],
        }
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.rows[i * self.width..(i + 1) * self.width]
    }

    /// The state whose row is `row` (with hash `hash`), if present.
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

    /// Appends and indexes a row. Growing the table re-indexes every row.
    fn insert(&mut self, row: &[u32], hash: u64) {
        self.rows.extend_from_slice(row);
        self.hashes.push(hash);
        if self.len() * 2 > self.slots.len() {
            let cap = (self.len() * 2).next_power_of_two();
            self.slots.clear();
            self.slots.resize(cap, EMPTY);
            for i in 0..self.len() {
                self.insert_slot(i);
            }
        } else {
            self.insert_slot(self.len() - 1);
        }
    }

    fn insert_slot(&mut self, i: usize) {
        let mask = self.slots.len() - 1;
        let mut s = self.hashes[i] as usize & mask;
        while self.slots[s] != EMPTY {
            s = (s + 1) & mask;
        }
        self.slots[s] = u32::try_from(i).expect("state ids fit in u32");
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

/// The σ-space exploration kernel behind [`StateGraph::of_mg_sigma`]:
/// the graph plus its (fully indexed) rows. `mg` must be weakly connected
/// and `alive` its alive transitions.
///
/// It mirrors [`StateGraph::of_mg`]'s loop exactly — the same LIFO
/// frontier, the same ascending transition order, the same consistency
/// and budget checks at the same points — so it visits the same states in
/// the same order and fails at the same point.
fn explore(
    mg: &MgStg,
    alive: &[usize],
    budget: usize,
) -> Result<(StateGraph, SigmaRows), StgError> {
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
    let mut rows = SigmaRows::new(width);
    let mut buf = vec![0u32; width];
    rows.insert(&buf, hash_row(&buf));
    let mut states = vec![SgState {
        code: mg.initial_code(),
    }];
    let mut edges: Vec<Vec<(usize, usize)>> = vec![Vec::new()];
    let mut frontier = vec![0usize];
    // The enabled columns of the state being expanded, ascending.
    let mut enabled: Vec<usize> = Vec::with_capacity(width);

    while let Some(i) = frontier.pop() {
        let row = rows.row(i);
        enabled.clear();
        enabled.extend((0..width).filter(|&c| {
            preds[pred_start[c]..pred_start[c + 1]]
                .iter()
                .all(|&(a, tok)| tok + i64::from(row[a]) - i64::from(row[c]) > 0)
        }));
        let code = states[i].code;
        edges[i].reserve_exact(enabled.len());
        for &c in &enabled {
            let t = alive[c];
            let (bit, target) = flips[c];
            if (code & bit != 0) == target {
                return Err(inconsistent(mg, t));
            }
            let next_code = code ^ bit;
            buf.copy_from_slice(rows.row(i));
            buf[c] += 1;
            normalize(&mut buf);
            let h = hash_row(&buf);
            let j = match rows.find(&buf, h) {
                Some(j) => {
                    if states[j].code != next_code {
                        return Err(inconsistent(mg, t));
                    }
                    j
                }
                None => {
                    if states.len() >= budget {
                        return Err(StgError::Petri(si_petri::PetriError::StateBudgetExceeded {
                            budget,
                        }));
                    }
                    rows.insert(&buf, h);
                    states.push(SgState { code: next_code });
                    edges.push(Vec::new());
                    frontier.push(states.len() - 1);
                    states.len() - 1
                }
            };
            edges[i].push((t, j));
        }
    }
    let sg = StateGraph {
        states,
        edges,
        labels: label_table(mg, alive),
    };
    Ok((sg, rows))
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

    /// Generates the state graph of a *weakly connected* marked-graph STG
    /// using normalized firing-count vectors (σ-space) as state keys. In a
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
        Ok(explore(mg, &mg.transitions(), budget)?.0)
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

    /// The handshake advanced by one firing of `req+`: the token moves
    /// from `<ack-, req+>` to `<req+, ack+>` and the initial code flips
    /// `req`.
    fn token_moved_handshake() -> MgStg {
        let (_, mut mg) = handshake_mg();
        let reqp = mg.transition_by_label("req+").expect("present");
        let ackp = mg.transition_by_label("ack+").expect("present");
        let ackm = mg.transition_by_label("ack-").expect("present");
        mg.remove_arc(reqp, ackp);
        mg.insert_arc(reqp, ackp, 1, false);
        mg.remove_arc(ackm, reqp);
        mg.insert_arc(ackm, reqp, 0, false);
        mg.set_initial_code(1);
        mg
    }

    /// Two independent handshake rings, and every way of joining them
    /// with one arc of 0–2 tokens. The rings alone are not weakly
    /// connected (σ generation falls back to the oracle); each join is.
    fn rings_and_joins() -> Vec<MgStg> {
        let mut stg = Stg::new("rings");
        let a = stg.add_signal("a", SignalKind::Input);
        let b = stg.add_signal("b", SignalKind::Input);
        let mut rings = MgStg::empty_like(&stg);
        let ap = rings.add_transition(TransitionLabel::new(a, Polarity::Plus, 1));
        let am = rings.add_transition(TransitionLabel::new(a, Polarity::Minus, 1));
        let bp = rings.add_transition(TransitionLabel::new(b, Polarity::Plus, 1));
        let bm = rings.add_transition(TransitionLabel::new(b, Polarity::Minus, 1));
        rings.insert_arc(ap, am, 0, false);
        rings.insert_arc(am, ap, 1, false);
        rings.insert_arc(bp, bm, 0, false);
        rings.insert_arc(bm, bp, 1, false);
        assert!(!rings.arcs_weakly_connected());
        let mut all = vec![rings.clone()];
        for (src, dst) in [(ap, bp), (am, bp), (bm, ap), (bp, am)] {
            for tokens in 0..=2 {
                let mut joined = rings.clone();
                joined.insert_arc(src, dst, tokens, false);
                assert!(joined.arcs_weakly_connected());
                all.push(joined);
            }
        }
        all
    }

    #[test]
    fn sigma_generation_matches_marking_keyed_generation() {
        let (_, mg) = handshake_mg();
        let (parent, child) = chain_and_relaxed();
        // An inconsistent edit: removing y+'s only ordering toward o+
        // leaves o+ racing.
        let mut bad = parent.clone();
        let yp = bad.transition_by_label("y+").expect("present");
        let op = bad.transition_by_label("o+").expect("present");
        let om = bad.transition_by_label("o-").expect("present");
        bad.remove_arc(yp, op);
        bad.insert_arc(om, op, 1, false);
        assert!(
            StateGraph::of_mg(&bad, 1000).is_err(),
            "edit must be inconsistent"
        );

        // The handshake cut down to its ack cycle (a smaller alive set).
        let mut ack_cycle = mg.clone();
        let ackp = ack_cycle.transition_by_label("ack+").expect("present");
        let ackm = ack_cycle.transition_by_label("ack-").expect("present");
        for label in ["req+", "req-"] {
            let t = ack_cycle.transition_by_label(label).expect("present");
            ack_cycle.remove_transition(t);
        }
        ack_cycle.insert_arc(ackp, ackm, 0, false);
        ack_cycle.insert_arc(ackm, ackp, 1, false);

        let mut cases = vec![mg, parent, child, token_moved_handshake(), bad, ack_cycle];
        cases.extend(rings_and_joins());
        // Budget and consistency failures replay at the same point.
        for (k, mg) in cases.iter().enumerate() {
            for budget in (1..=10).chain([1000]) {
                assert_eq!(
                    StateGraph::of_mg_sigma(mg, budget),
                    StateGraph::of_mg(mg, budget),
                    "case {k}, budget {budget}"
                );
            }
        }
    }

    /// The rows of `sg`'s states, rebuilt by walking its edges from the
    /// initial state: each row is its discoverer's row plus one firing,
    /// normalized (in a weakly connected MG every path to a state yields
    /// the same row).
    fn walked_rows(sg: &StateGraph, alive: &[usize]) -> Vec<u32> {
        let width = alive.len();
        let col = columns(alive);
        let mut rows = vec![0; sg.state_count() * width];
        let mut seen = vec![false; sg.state_count()];
        seen[0] = true;
        let mut stack = vec![0usize];
        while let Some(p) = stack.pop() {
            for &(t, j) in &sg.edges[p] {
                if !seen[j] {
                    seen[j] = true;
                    rows.copy_within(p * width..(p + 1) * width, j * width);
                    let row = &mut rows[j * width..(j + 1) * width];
                    row[col[t]] += 1;
                    normalize(row);
                    stack.push(j);
                }
            }
        }
        rows
    }

    #[test]
    fn explored_rows_equal_the_rows_walked_from_the_graph() {
        // The kernel's rows must be exactly the rows a walk of the
        // finished graph rebuilds, and index every state.
        let (parent, child) = chain_and_relaxed();
        for mg in [&parent, &child] {
            let alive = mg.transitions();
            let (sg, rows) = explore(mg, &alive, 1000).expect("consistent");
            assert_eq!(rows.rows, walked_rows(&sg, &alive));
            for i in 0..rows.len() {
                let row = rows.row(i);
                assert_eq!(rows.find(row, hash_row(row)), Some(i));
            }
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
