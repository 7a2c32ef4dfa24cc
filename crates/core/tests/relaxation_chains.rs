//! Property tests for σ-space state-graph generation along chains of
//! relaxation edits, the way the relaxation loop produces its trials:
//! successive real [`relax_arc`] edits of one local STG. Every step's
//! graph from [`StateGraph::of_mg_sigma`] must agree with the
//! marking-keyed oracle [`StateGraph::of_mg`] exactly — the same graph,
//! the same error under tight budgets.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use si_core::{relax_arc, LocalStg};
use si_corpus::strategies::{random_local, RandomLocal};
use si_stg::{MgStg, StateGraph};

const BUDGET: usize = 10_000;

/// A random local STG plus a sequence of arc picks, one per relaxation
/// step (indices wrap over the current arc list).
fn chain_case() -> impl Strategy<Value = (RandomLocal, Vec<usize>)> {
    (random_local(), proptest::collection::vec(0usize..64, 3..7))
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

/// Runs one chain; returns how many states the steps added over their
/// predecessors' graphs. Both generators identify a state by its marking,
/// so every added state is one its predecessor's graph does not have.
fn run_chain(spec: &RandomLocal, picks: &[usize]) -> Result<usize, TestCaseError> {
    let mut local = spec.build();
    let Ok(mut parent_sg) = StateGraph::of_mg(&local.mg, BUDGET) else {
        return Ok(0); // the chain's start is already out of reach
    };
    let mut fresh = 0;
    for &pick in picks {
        let Some(child) = relax_step(&local, pick) else {
            break;
        };
        let oracle = StateGraph::of_mg(&child, BUDGET);
        prop_assert_eq!(&StateGraph::of_mg_sigma(&child, BUDGET), &oracle);
        for budget in [1usize, 2, 3, 5, 9, 17, 33] {
            prop_assert_eq!(
                (budget, StateGraph::of_mg_sigma(&child, budget)),
                (budget, StateGraph::of_mg(&child, budget))
            );
        }
        let Ok(child_sg) = oracle else {
            break; // the chain ends where the oracle fails
        };
        fresh += child_sg
            .state_count()
            .saturating_sub(parent_sg.state_count());
        local.mg = child;
        parent_sg = child_sg;
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
/// interleaving space, so later steps explore states their predecessor's
/// graph does not have: the σ explorer's lookup of new rows is exercised,
/// not only its hits on known ones.
#[test]
fn relaxation_chain_creates_states_without_parent_counterparts() {
    let spec = RandomLocal {
        inputs: 3,
        extras: Vec::new(),
    };
    let fresh = run_chain(&spec, &[0, 0, 0, 0]).expect("chain agrees with the oracle");
    assert!(fresh > 0, "the chain never left the parent's states");
}
