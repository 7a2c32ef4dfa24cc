//! Property tests for chains of incremental state-graph derivations, the
//! way the relaxation loop runs them: successive real [`relax_arc`] edits
//! of one local STG, each trial's graph derived ([`StateGraph::of_mg_from`])
//! from the previous derivation's result and σ rows rather than from a
//! scratch graph. Every step must agree with the marking-keyed oracle
//! [`StateGraph::of_mg`] exactly — the same graph, the same error under
//! tight budgets — and its [`SgMap`] must keep the reuse contract.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use si_core::{relax_arc, LocalStg};
use si_corpus::strategies::{random_local_case, RandomLocal};
use si_stg::{MgStg, SgMap, StateGraph};

const BUDGET: usize = 10_000;

/// A random local STG plus a sequence of arc picks, one per relaxation
/// step (indices wrap over the current arc list).
fn chain_case() -> impl Strategy<Value = (RandomLocal, Vec<usize>)> {
    (
        random_local_case(),
        proptest::collection::vec(0usize..64, 3..7),
    )
        .prop_map(|((local, _, _), picks)| (local, picks))
}

/// The [`SgMap`] reuse contract: every unaffected child state has a parent
/// counterpart with the same code and an elementwise-identical edge list
/// under the correspondence, and the correspondence is injective.
fn check_map(child: &StateGraph, parent: &StateGraph, map: &SgMap) -> Result<(), TestCaseError> {
    prop_assert_eq!(map.parent_of.len(), child.state_count());
    prop_assert_eq!(map.affected.len(), child.state_count());
    let mut claimed = vec![false; parent.state_count()];
    for i in 0..child.state_count() {
        if let Some(p) = map.parent_of[i] {
            prop_assert!(!claimed[p], "parent state {} mapped twice", p);
            claimed[p] = true;
        }
        if map.affected[i] {
            continue;
        }
        let p = map.parent_of[i].expect("unaffected implies mapped");
        prop_assert_eq!(child.states[i].code, parent.states[p].code);
        prop_assert_eq!(child.edges[i].len(), parent.edges[p].len());
        for (&(t, j), &(pt, pj)) in child.edges[i].iter().zip(&parent.edges[p]) {
            prop_assert_eq!(t, pt);
            prop_assert_eq!(map.parent_of[j], Some(pj));
            prop_assert_eq!(child.label(t), parent.label(pt));
        }
    }
    Ok(())
}

/// Relaxes the `pick`-th arc (wrapping) of `local`, or `None` when the
/// graph has no arcs or the relaxation is rejected.
fn relax_step(local: &LocalStg, pick: usize) -> Option<MgStg> {
    let arcs: Vec<(usize, usize)> = local.mg.arcs().map(|(k, _)| k).collect();
    let &(x, y) = arcs.get(pick % arcs.len().max(1))?;
    let mut mg = local.mg.clone();
    relax_arc(&mut mg, x, y).ok()?;
    Some(mg)
}

/// Runs one chain; returns how many child states across all steps had no
/// parent counterpart.
fn run_chain(spec: &RandomLocal, picks: &[usize]) -> Result<usize, TestCaseError> {
    let mut local = spec.build();
    let Ok(sg) = StateGraph::of_mg(&local.mg, BUDGET) else {
        return Ok(0); // no first parent graph to derive from
    };
    let mut parent = (sg, None);
    let mut fresh = 0;
    for &pick in picks {
        let Some(child) = relax_step(&local, pick) else {
            break;
        };
        let (parent_sg, parent_rows) = &parent;
        let oracle = StateGraph::of_mg(&child, BUDGET);
        let forwarded =
            StateGraph::of_mg_from(&local.mg, parent_sg, parent_rows.as_ref(), &child, BUDGET);
        let rewalked = StateGraph::of_mg_from(&local.mg, parent_sg, None, &child, BUDGET);
        prop_assert_eq!(forwarded.as_ref().map(|(sg, _)| sg), oracle.as_ref());
        // Forwarded rows and rows rebuilt from the parent graph derive the
        // same graph and the same map, rows included.
        prop_assert_eq!(&forwarded, &rewalked);
        for budget in [1usize, 2, 3, 5, 9, 17, 33] {
            let derived =
                StateGraph::of_mg_from(&local.mg, parent_sg, parent_rows.as_ref(), &child, budget);
            prop_assert_eq!(
                (budget, derived.map(|(sg, _)| sg)),
                (budget, StateGraph::of_mg(&child, budget))
            );
        }
        let Ok((child_sg, map)) = forwarded else {
            break; // the chain ends where the oracle fails too
        };
        let rows = match map {
            Some(map) => {
                check_map(&child_sg, parent_sg, &map)?;
                fresh += map.parent_of.iter().filter(|p| p.is_none()).count();
                Some(map.rows)
            }
            None => None,
        };
        local.mg = child;
        parent = (child_sg, rows);
    }
    Ok(fresh)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn relaxation_chains_match_the_marking_keyed_oracle((spec, picks) in chain_case()) {
        run_chain(&spec, &picks)?;
    }
}

/// A fixed chain on a 3-input C-element whose relaxations grow the
/// interleaving space, so later steps explore states no parent has: the
/// lookup path for states without a parent counterpart is exercised, not
/// only the inherited path.
#[test]
fn relaxation_chain_creates_states_without_parent_counterparts() {
    let spec = RandomLocal {
        inputs: 3,
        extras: Vec::new(),
    };
    let fresh = run_chain(&spec, &[0, 0, 0, 0]).expect("chain agrees with the oracle");
    assert!(fresh > 0, "the chain never left the parent's states");
}
