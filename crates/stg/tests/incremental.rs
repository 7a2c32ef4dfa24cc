//! Property tests for the incremental state-graph regeneration: on a
//! random marked graph and a random single-arc edit, the delta-guided
//! derivation ([`StateGraph::of_mg_from`]) must agree with a from-scratch
//! regeneration *exactly* — identical states, arcs and edge order on
//! success, and the identical error under tight budgets or inconsistent
//! edits. The scratch generator is the pinned reference; any divergence
//! here is a soundness bug in the delta path.

use proptest::prelude::*;
use si_corpus::strategies::{random_mg_case, Edit, RandomMg};
use si_stg::StateGraph;

/// The shared [`si_corpus::strategies::random_mg_case`] drives these
/// properties: a random consistent ring MG plus a random single-arc
/// [`Edit`] (the same case shape the incremental classification
/// proptests in `si-core` use).
fn random_case() -> impl Strategy<Value = (RandomMg, Edit)> {
    random_mg_case()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn incremental_matches_scratch_under_a_generous_budget((spec, edit) in random_case()) {
        let parent = spec.build();
        let Ok(parent_sg) = StateGraph::of_mg(&parent, 10_000) else {
            return Ok(()); // no predecessor graph to regenerate from
        };
        let child = edit.apply_mg(&parent);
        let scratch = StateGraph::of_mg(&child, 10_000);
        let incremental =
            StateGraph::of_mg_from(&parent, &parent_sg, None, &child, 10_000).map(|(sg, _)| sg);
        prop_assert_eq!(incremental, scratch);
    }

    /// The [`si_stg::SgMap`] reuse contract: every state outside the
    /// affected cone has a parent counterpart with the same code and an
    /// elementwise-identical edge list under the correspondence — the
    /// exact precondition incremental conformance classification rests on.
    #[test]
    fn sg_map_unaffected_states_reproduce_their_parent((spec, edit) in random_case()) {
        let parent = spec.build();
        let Ok(parent_sg) = StateGraph::of_mg(&parent, 10_000) else {
            return Ok(());
        };
        let child = edit.apply_mg(&parent);
        let Ok((child_sg, Some(map))) =
            StateGraph::of_mg_from(&parent, &parent_sg, None, &child, 10_000) else {
            return Ok(()); // error or scratch fallback: no map to check
        };
        prop_assert_eq!(map.parent_of.len(), child_sg.state_count());
        prop_assert_eq!(map.affected.len(), child_sg.state_count());
        for i in 0..child_sg.state_count() {
            if map.affected[i] {
                continue;
            }
            let p = map.parent_of[i].expect("unaffected implies mapped");
            prop_assert_eq!(child_sg.states[i].code, parent_sg.states[p].code);
            prop_assert_eq!(child_sg.edges[i].len(), parent_sg.edges[p].len());
            for (&(t, j), &(pt, pj)) in child_sg.edges[i].iter().zip(&parent_sg.edges[p]) {
                prop_assert_eq!(t, pt);
                prop_assert_eq!(map.parent_of[j], Some(pj));
                prop_assert_eq!(child_sg.label(t), parent_sg.label(pt));
            }
        }
    }

    /// σ-space cold exploration must agree with the marking-keyed scratch
    /// generator exactly — Ok and Err alike, generous and tight budgets.
    #[test]
    fn sigma_cold_matches_scratch((spec, edit) in random_case()) {
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

    #[test]
    fn incremental_replays_tight_budget_failures_exactly((spec, edit) in random_case()) {
        let parent = spec.build();
        let Ok(parent_sg) = StateGraph::of_mg(&parent, 10_000) else {
            return Ok(());
        };
        let child = edit.apply_mg(&parent);
        for budget in [1usize, 2, 3, 5, 9, 17] {
            let scratch = StateGraph::of_mg(&child, budget);
            let incremental =
                StateGraph::of_mg_from(&parent, &parent_sg, None, &child, budget).map(|(sg, _)| sg);
            prop_assert_eq!(incremental, scratch);
        }
    }

    #[test]
    fn arc_delta_reconstructs_the_edited_arc_set((spec, edit) in random_case()) {
        let parent = spec.build();
        let child = edit.apply_mg(&parent);
        let delta = parent.arc_delta(&child);
        // Replaying the delta over the parent's arc set must yield the
        // child's arc set (token counts; restriction flags are out of
        // scope by design, matching `SgKey`).
        let mut arcs: std::collections::BTreeMap<(usize, usize), u32> = parent
            .arcs()
            .map(|((a, b), attr)| ((a, b), attr.tokens))
            .collect();
        for &(a, b, before, after) in &delta.changes {
            prop_assert_eq!(arcs.get(&(a, b)).copied(), before);
            match after {
                Some(tokens) => {
                    arcs.insert((a, b), tokens);
                }
                None => {
                    arcs.remove(&(a, b));
                }
            }
        }
        let child_arcs: std::collections::BTreeMap<(usize, usize), u32> = child
            .arcs()
            .map(|((a, b), attr)| ((a, b), attr.tokens))
            .collect();
        prop_assert_eq!(arcs, child_arcs);
        // Every changed arc's enabling effect lands on its destination.
        let dsts = delta.affected_dsts();
        for &(_, b, _, _) in &delta.changes {
            prop_assert!(dsts.contains(&b));
        }
    }
}
