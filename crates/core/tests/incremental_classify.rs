//! Property tests for incremental conformance classification: on a random
//! local STG and a random single-arc edit, the copy-unaffected-verdicts
//! path ([`classify_states_from`]) must agree with the from-scratch sweep
//! ([`classify_states`]) *exactly* — the same [`RelaxationCase`], the same
//! [`ConformanceReport`] (premature pairs and lagging states in the same
//! order), and the same error — under generous and tight state budgets
//! alike. The scratch sweep is the pinned reference; any divergence here
//! is a soundness bug in the verdict-copying path.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use si_core::{classify_states, classify_states_from, prerequisite_sets};
use si_corpus::strategies::{random_local_case, Edit, RandomLocal};
use si_stg::StateGraph;

/// The shared [`si_corpus::strategies::random_local_case`] drives these
/// properties: a random C-element local STG, a random single-arc
/// [`Edit`], and a wrapped relaxed-transition index (the same generator
/// family the incremental regeneration proptests in `si-stg` use).
fn random_case() -> impl Strategy<Value = (RandomLocal, Edit, usize)> {
    random_local_case()
}

/// Runs one parent → edit → child round at `budget`, asserting the
/// incremental classification reproduces the scratch one bit for bit.
fn check_round(
    spec: &RandomLocal,
    edit: &Edit,
    relaxed_idx: usize,
    budget: usize,
) -> Result<(), TestCaseError> {
    let parent = spec.build();
    let Ok(parent_sg) = StateGraph::of_mg(&parent.mg, budget) else {
        return Ok(()); // no predecessor graph to classify from
    };
    let parent_epre = prerequisite_sets(&parent);
    let Ok((_, parent_report)) = classify_states(&parent, &parent_sg, &parent_epre, None) else {
        return Ok(()); // no parent verdicts to copy
    };
    let child = edit.apply_local(&parent);
    let Ok((child_sg, Some(map))) =
        StateGraph::of_mg_from(&parent.mg, &parent_sg, None, &child.mg, budget)
    else {
        return Ok(()); // error or scratch fallback: no correspondence to reuse
    };
    let epre = prerequisite_sets(&child);
    let ts = child.mg.transitions();
    for relaxed in [None, Some(ts[relaxed_idx % ts.len()])] {
        let scratch = classify_states(&child, &child_sg, &epre, relaxed);
        let incremental =
            classify_states_from(&child, &child_sg, &epre, relaxed, &parent_report, &map);
        prop_assert_eq!(&incremental, &scratch);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn incremental_classification_matches_scratch((spec, edit, relaxed_idx) in random_case()) {
        check_round(&spec, &edit, relaxed_idx, 10_000)?;
    }

    /// Tight budgets shrink or kill the parent graph; whenever a
    /// correspondence still exists, the verdict-copying path must keep
    /// agreeing — including on the error values themselves.
    #[test]
    fn incremental_classification_matches_scratch_under_tight_budgets(
        (spec, edit, relaxed_idx) in random_case()
    ) {
        for budget in [2usize, 3, 5, 9, 17, 33] {
            check_round(&spec, &edit, relaxed_idx, budget)?;
        }
    }
}
