//! Property tests for the redundant-arc sweep (thesis Algorithm 3) and
//! its callers: projection (Algorithm 1), arc relaxation (Algorithm 2)
//! and the liveness token rule of the OR-causality sub-STG builders.
//!
//! The sweep answers each check with a bounded path query, runs once
//! instead of to a fixpoint, and projection sweeps only the arcs each
//! hiding step touched. The straightforward algorithms are kept here as
//! the reference — a fixpoint of full sweeps over
//! `min_token_path(a, b, true)`, and projection that sweeps every arc
//! after every hiding step — and every result must match them exactly:
//! the same arcs, removed in the same order, and the same errors.

use std::collections::BTreeSet;

use proptest::prelude::*;
use si_corpus::strategies::{random_mg_case, Edit, RandomMg};
use si_stg::{MgStg, SignalId, StgError};

/// Extra arcs `(from, to, tokens, kind)` with 0–2 tokens, wrapping over
/// the transitions; `kind == 0` (one in four) makes a restriction arc.
type Extras = Vec<(usize, usize, u32, u8)>;

/// A random ring MG, a random single-arc edit, random extra arcs and a
/// keep-set bitmask over the signals. Self-loops, redundant arcs,
/// token-free cycles and graphs that are not strongly connected all
/// occur.
fn case() -> impl Strategy<Value = ((RandomMg, Edit), Extras, u32)> {
    (
        random_mg_case(),
        proptest::collection::vec((0usize..12, 0usize..12, 0u32..=2, 0u8..4), 0..6),
        0u32..32,
    )
}

fn build(spec: &RandomMg, edit: &Edit, extras: &Extras) -> MgStg {
    let mut mg = edit.apply_mg(&spec.build());
    let ts = mg.transitions();
    for &(a, b, tokens, kind) in extras {
        mg.insert_arc(ts[a % ts.len()], ts[b % ts.len()], tokens, kind == 0);
    }
    mg
}

/// The reference redundancy check: an unbounded Dijkstra over the graph
/// without the arc itself.
fn reference_redundant(mg: &MgStg, a: usize, b: usize) -> bool {
    let Some(attr) = mg.arc(a, b) else {
        return false;
    };
    if a == b {
        return attr.tokens >= 1;
    }
    mg.min_token_path(a, b, true)
        .is_some_and(|w| w <= attr.tokens)
}

/// The reference sweep: full sweeps in arc-key order until one removes
/// nothing.
fn reference_sweep(mg: &mut MgStg) -> Vec<(usize, usize)> {
    let mut removed = Vec::new();
    loop {
        let candidates: Vec<(usize, usize)> = mg
            .arcs()
            .filter(|(_, attr)| !attr.restriction)
            .map(|(k, _)| k)
            .collect();
        let mut changed = false;
        for (a, b) in candidates {
            if reference_redundant(mg, a, b) {
                mg.remove_arc(a, b);
                removed.push((a, b));
                changed = true;
            }
        }
        if !changed {
            return removed;
        }
    }
}

/// The reference projection: hide, then sweep every arc, per hidden
/// transition.
fn reference_project(mg: &MgStg, keep: &BTreeSet<SignalId>) -> Result<MgStg, StgError> {
    let mut g = mg.clone();
    for t in g.transitions() {
        if keep.contains(&g.label(t).signal) {
            continue;
        }
        for a in g.preds(t) {
            let in_tokens = g.arc(a, t).expect("pred arc").tokens;
            for b in g.succs(t) {
                let tokens = in_tokens + g.arc(t, b).expect("succ arc").tokens;
                if a == b {
                    if tokens == 0 {
                        return Err(StgError::MalformedMarkedGraph {
                            reason: format!(
                                "hiding `{}` exposes a token-free self-loop",
                                mg.label_string(t)
                            ),
                        });
                    }
                    continue;
                }
                g.insert_arc(a, b, tokens, false);
            }
        }
        g.remove_transition(t);
        reference_sweep(&mut g);
    }
    Ok(g)
}

/// The reference relaxation: Algorithm 2's bypass arcs, then the
/// reference sweep. Only the success/failure outcome is compared for
/// errors; the messages are the library's.
fn reference_relax(g: &mut MgStg, x: usize, y: usize) -> Result<(), ()> {
    let xy = g.arc(x, y).filter(|a| !a.restriction).ok_or(())?;
    for b in g.preds(x) {
        let tokens = g.arc(b, x).expect("pred arc").tokens + xy.tokens;
        if b == y {
            if tokens == 0 {
                return Err(());
            }
            continue;
        }
        g.insert_arc(b, y, tokens, false);
    }
    for d in g.succs(y) {
        let tokens = g.arc(y, d).expect("succ arc").tokens + xy.tokens;
        if d == x {
            if tokens == 0 {
                return Err(());
            }
            continue;
        }
        g.insert_arc(x, d, tokens, false);
    }
    g.remove_arc(x, y);
    reference_sweep(g);
    Ok(())
}

fn arcs(mg: &MgStg) -> Vec<((usize, usize), si_stg::ArcAttr)> {
    mg.arcs().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One sweep removes the reference fixpoint's arcs in the same order,
    /// and a second sweep removes nothing.
    #[test]
    fn one_sweep_matches_the_fixpoint(((spec, edit), extras, _keep) in case()) {
        let mg = build(&spec, &edit, &extras);
        let mut expected = mg.clone();
        let expected_removed = reference_sweep(&mut expected);
        let mut swept = mg.clone();
        let removed = swept.eliminate_redundant_arcs();
        prop_assert_eq!(&removed, &expected_removed);
        prop_assert_eq!(arcs(&swept), arcs(&expected));
        prop_assert_eq!(swept.eliminate_redundant_arcs(), Vec::new());
    }

    /// The bounded queries agree with their `min_token_path` forms on
    /// every ordered transition pair, self-pairs included.
    #[test]
    fn bounded_queries_match_min_token_path(((spec, edit), extras, _keep) in case()) {
        let mg = build(&spec, &edit, &extras);
        let ts = mg.transitions();
        for &a in &ts {
            for &b in &ts {
                let zero = mg.min_token_path(a, b, false) == Some(0);
                prop_assert_eq!(mg.token_free_path(a, b), zero);
                prop_assert_eq!(mg.precedes(a, b), a != b && zero);
                prop_assert_eq!(
                    mg.concurrent(a, b),
                    a != b && !zero && mg.min_token_path(b, a, false) != Some(0)
                );
                prop_assert_eq!(mg.is_redundant_arc(a, b), reference_redundant(&mg, a, b));
            }
        }
    }

    /// Projection over a random keep-set equals hide-then-full-sweep,
    /// errors included.
    #[test]
    fn projection_matches_the_full_sweep_reference(((spec, edit), extras, keep) in case()) {
        let mg = build(&spec, &edit, &extras);
        let keep: BTreeSet<SignalId> = (0..mg.signal_count())
            .filter(|&s| keep & (1 << s) != 0)
            .map(SignalId)
            .collect();
        let got = mg.project(&keep).map(|g| arcs(&g));
        let expected = reference_project(&mg, &keep).map(|g| arcs(&g));
        prop_assert_eq!(got, expected);
    }

    /// Relaxing any arc matches Algorithm 2 followed by the reference
    /// fixpoint sweep.
    #[test]
    fn relaxation_matches_the_fixpoint_reference(((spec, edit), extras, _keep) in case()) {
        let mg = build(&spec, &edit, &extras);
        for ((x, y), _) in mg.arcs() {
            let mut got = mg.clone();
            let got_ok = si_core::relax_arc(&mut got, x, y).is_ok();
            let mut expected = mg.clone();
            let expected_ok = reference_relax(&mut expected, x, y).is_ok();
            prop_assert_eq!(got_ok, expected_ok);
            if got_ok {
                prop_assert_eq!(arcs(&got), arcs(&expected));
            }
        }
    }

    /// The OR-causality token rule marks a new arc iff the reverse
    /// direction already has a token-free path.
    #[test]
    fn token_rule_matches_min_token_path(((spec, edit), extras, _keep) in case()) {
        let mg = build(&spec, &edit, &extras);
        let ts = mg.transitions();
        for &src in &ts {
            for &dst in &ts {
                let mut got = mg.clone();
                si_core::insert_arc_with_token_rule(&mut got, src, dst, false);
                let mut expected = mg.clone();
                let tokens = u32::from(mg.min_token_path(dst, src, false) == Some(0));
                expected.insert_arc(src, dst, tokens, false);
                prop_assert_eq!(arcs(&got), arcs(&expected));
            }
        }
    }
}
