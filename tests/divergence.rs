//! Divergence determinism: the trial scheduler's `Diverged` verdict is a
//! *semantic* output, so it must be bit-identical — same gate, same
//! detector, same iteration, same trailing arc sequence — across every
//! engine configuration, cold and warm, exactly like the constraint sets
//! are. And on circuits that do converge, the scheduler must be
//! invisible: scheduler-on output ≡ scheduler-off output on all bundled
//! benchmarks and corpus golden fixtures.

use proptest::prelude::*;
use si_redress::core::{CoreError, DivergencePolicy, Engine, EngineConfig};
use si_redress::corpus::{generate, strategies, CorpusSpec, MarkingStyle};
use si_redress::synth::synthesize;

/// The canonical diverging specimen: seed 189 (`corpus-000000bd`), whose
/// gate `o2` never converges.
fn seed_189() -> (si_redress::stg::Stg, si_redress::boolean::GateLibrary) {
    let spec = CorpusSpec::from_seed(189, 12);
    let circuit = generate(&spec, 189);
    let library = synthesize(&circuit.stg, EngineConfig::default().global_sg_budget)
        .expect("seed 189 synthesizes");
    (circuit.stg, library)
}

#[test]
fn seed_189_verdict_is_identical_across_the_differential_matrix() {
    let (stg, library) = seed_189();
    // A small watchdog window keeps 64 full derivations affordable in
    // debug builds; the window is held constant across the matrix, so
    // the determinism claim is exercised in full. (The default-window
    // verdict and its sub-second wall clock are pinned by the golden
    // suite.)
    let window = 16;
    let expected = Engine::new(EngineConfig {
        divergence_window: window,
        ..EngineConfig::default()
    })
    .run(&stg, &library)
    .expect_err("seed 189 must diverge");
    assert!(
        matches!(&expected, CoreError::Diverged { gate, .. } if gate == "o2"),
        "got: {expected}"
    );
    for incremental in [false, true] {
        for memo_projection in [false, true] {
            for cache in [false, true] {
                for sigma_cold in [false, true] {
                    for jobs in [1usize, 4] {
                        let config = EngineConfig {
                            incremental,
                            memo_projection,
                            cache,
                            // Exercised through `cache` pairing; holding it
                            // equal to `incremental` keeps the matrix at 32
                            // configs while still covering both values.
                            incremental_classify: incremental,
                            sigma_cold,
                            jobs,
                            divergence_window: window,
                            ..EngineConfig::default()
                        };
                        let engine = Engine::new(config);
                        let cold = engine.run(&stg, &library).expect_err("diverges");
                        assert_eq!(cold, expected, "cold run diverged under {config:?}");
                        let warm = engine.run(&stg, &library).expect_err("diverges");
                        assert_eq!(warm, expected, "warm run diverged under {config:?}");
                    }
                }
            }
        }
    }
}

/// The five corpus golden fixtures of `tests/golden.rs`, by value (the
/// generator promises byte-identical output per `(sanitized spec, seed)`
/// forever, so restating the literals here cannot drift).
fn corpus_fixture_specs() -> Vec<(CorpusSpec, u64)> {
    let base = CorpusSpec {
        signals: 6,
        choices: 0,
        or_density: 0,
        max_fork: 1,
        interleave: false,
        marking: MarkingStyle::ImplicitArcs,
    };
    vec![
        (base, 1),
        (
            CorpusSpec {
                signals: 10,
                max_fork: 3,
                ..base
            },
            7,
        ),
        (
            CorpusSpec {
                signals: 8,
                choices: 1,
                max_fork: 2,
                marking: MarkingStyle::ExplicitPlace,
                ..base
            },
            11,
        ),
        (
            CorpusSpec {
                signals: 9,
                choices: 2,
                or_density: 100,
                marking: MarkingStyle::ExplicitPlace,
                ..base
            },
            5,
        ),
        (
            CorpusSpec {
                signals: 12,
                choices: 2,
                or_density: 60,
                max_fork: 2,
                marking: MarkingStyle::ExplicitPlace,
                ..base
            },
            42,
        ),
    ]
}

#[test]
fn scheduler_on_equals_scheduler_off_on_all_converging_circuits() {
    // On every bundled benchmark and corpus golden fixture the loop
    // converges, so Bail vs Exhaust must be indistinguishable — the
    // scheduler may only ever change the outcome of a diverging gate.
    let bail = Engine::new(EngineConfig::default());
    assert_eq!(
        bail.config().divergence_policy,
        DivergencePolicy::Bail,
        "the engine default must be the bail-out policy"
    );
    let exhaust = Engine::new(EngineConfig {
        divergence_policy: DivergencePolicy::Exhaust,
        ..EngineConfig::default()
    });
    for bench in si_redress::suite::benchmarks() {
        let (stg, library) = bench.circuit().expect("loads");
        let on = bail.run(&stg, &library).expect("derives");
        let off = exhaust.run(&stg, &library).expect("derives");
        assert_eq!(on.report, off.report, "{}", bench.name);
        // The ledger was live (it observed every iteration) even though
        // nothing tripped.
        if on.report.iterations > 0 {
            let relax: usize = on.gates.iter().map(|g| g.sched_fingerprints).sum();
            assert!(relax > 0, "{}: scheduler never observed", bench.name);
        }
        let off_sched: usize = off.gates.iter().map(|g| g.sched_fingerprints).sum();
        assert_eq!(
            off_sched, 0,
            "{}: exhaust policy must not fingerprint",
            bench.name
        );
    }
    for (spec, seed) in corpus_fixture_specs() {
        let circuit = generate(&spec, seed);
        let library = synthesize(&circuit.stg, EngineConfig::default().global_sg_budget)
            .expect("fixture synthesizes");
        let on = bail.run(&circuit.stg, &library).expect("derives");
        let off = exhaust.run(&circuit.stg, &library).expect("derives");
        assert_eq!(on.report, off.report, "corpus fixture seed {seed}");
    }
}

#[test]
fn exhaust_policy_keeps_the_historical_budget_semantics() {
    // `derive_timing_constraints` runs under `EngineConfig::reference()`,
    // whose policy is Exhaust: it must keep the historical
    // burn-the-budget behaviour, erroring with the budget rather than a
    // divergence verdict. Pinned at the old 400-iteration harness cap —
    // the default 20 000 budget is exactly the hours-long tarpit the
    // scheduler exists to avoid.
    let (stg, library) = seed_189();
    let config = EngineConfig {
        expand_budget: 400,
        ..EngineConfig::reference()
    };
    assert_eq!(config.divergence_policy, DivergencePolicy::Exhaust);
    let err = Engine::new(config)
        .run(&stg, &library)
        .expect_err("never converges");
    assert!(
        matches!(err, CoreError::IterationBudgetExceeded { .. }),
        "the exhaust policy must burn the budget, got: {err}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random corpus circuits under an aggressively small watchdog
    /// window (8): trips are common, and whatever the verdict —
    /// convergence, divergence or any other error — it must be
    /// payload-identical across cache/incremental/parallel configs,
    /// cold and warm.
    #[test]
    fn random_circuits_agree_on_the_verdict_under_a_tiny_window(
        (spec, seed) in strategies::corpus_case()
    ) {
        let circuit = generate(&spec, seed);
        let budget = EngineConfig::default().global_sg_budget;
        let Ok(library) = synthesize(&circuit.stg, budget) else {
            // Interleaved specs may lack CSC; generation validity is
            // pinned elsewhere.
            return Ok(());
        };
        let window = 8;
        let configs = [
            EngineConfig { divergence_window: window, ..EngineConfig::default() },
            EngineConfig {
                divergence_window: window,
                divergence_policy: DivergencePolicy::Bail,
                ..EngineConfig::reference()
            },
            EngineConfig { divergence_window: window, ..EngineConfig::parallel(4) },
        ];
        let render = |r: &Result<si_redress::core::EngineReport, CoreError>| match r {
            Ok(out) => format!("ok|{:?}|{:?}", out.report.constraints, out.report.trace),
            Err(e) => format!("err|{e}"),
        };
        let engine = Engine::new(configs[0]);
        let expected = render(&engine.run(&circuit.stg, &library));
        let warm = render(&engine.run(&circuit.stg, &library));
        prop_assert_eq!(&warm, &expected);
        for config in &configs[1..] {
            let cold = render(&Engine::new(*config).run(&circuit.stg, &library));
            prop_assert_eq!(&cold, &expected);
        }
    }
}
