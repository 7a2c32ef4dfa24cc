//! Property tests for σ-space state-graph generation: on a random marked
//! graph and on its image under a random single-arc edit,
//! [`StateGraph::of_mg_sigma`] must agree with the marking-keyed oracle
//! [`StateGraph::of_mg`] *exactly* — identical states, arcs and edge
//! order on success, and the identical error under tight budgets or
//! inconsistent edits. Any divergence here is a soundness bug in the
//! σ-space kernel.

use proptest::prelude::*;
use si_corpus::strategies::random_mg_case;
use si_stg::StateGraph;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn sigma_space_matches_scratch((spec, edit) in random_mg_case()) {
        let parent = spec.build();
        let child = edit.apply_mg(&parent);
        for mg in [&parent, &child] {
            prop_assert_eq!(
                StateGraph::of_mg_sigma(mg, 10_000),
                StateGraph::of_mg(mg, 10_000)
            );
            for budget in [1usize, 2, 3, 5, 9, 17] {
                prop_assert_eq!(
                    StateGraph::of_mg_sigma(mg, budget),
                    StateGraph::of_mg(mg, budget)
                );
            }
        }
    }
}
