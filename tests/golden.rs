//! Golden conformance suite: one diff-friendly, human-readable snapshot
//! per bundled benchmark (styx-style, `tests/golden/*.txt`), capturing the
//! semantic payload of `check_hazard --format json` — both constraint
//! sets, the per-gate verdicts and the relaxation trace with its hazard
//! classifications.
//!
//! The files are generated from the *pinned sequential reference path*
//! (`derive_timing_constraints`, uncached, non-incremental); the test then
//! runs the full-featured engine (incremental regeneration, delta-tier
//! cache, projection memo) and requires its output to be bit-identical.
//! Any divergence between the fast path and the reference is caught here,
//! suite-wide.
//!
//! To regenerate after an intentional output change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```
//!
//! then review the diff like any other code change.

use std::fs;
use std::path::PathBuf;

use si_redress::core::{derive_timing_constraints, CoreError, Engine, EngineConfig};
use si_redress::corpus::{generate, generate_named, CorpusSpec, MarkingStyle};
use si_redress::synth::synthesize;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

fn header(name: &str) -> String {
    format!(
        "# Golden conformance snapshot for benchmark `{name}`: the semantic\n\
         # payload of `check_hazard --format json` (constraints, per-gate\n\
         # verdicts, hazard classifications), pinned by the sequential\n\
         # reference derivation. Regenerate with:\n\
         #   UPDATE_GOLDEN=1 cargo test --test golden\n"
    )
}

/// Points at the first diverging line of two snapshots.
fn first_diff(actual: &str, expected: &str) -> String {
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        if a != e {
            return format!(
                "first difference at line {}:\n  got:      {a}\n  expected: {e}",
                i + 1
            );
        }
    }
    format!(
        "one snapshot is a prefix of the other ({} vs {} lines)",
        actual.lines().count(),
        expected.lines().count()
    )
}

#[test]
fn golden_snapshots_pin_the_reference_output_for_every_benchmark() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    // One shared engine with every reuse layer on — exactly the
    // configuration whose output must never drift from the reference.
    let engine = Engine::new(EngineConfig::default());
    for bench in si_redress::suite::benchmarks() {
        let (stg, library) = bench.circuit().expect("loads");
        let path = golden_path(bench.name);
        if update {
            // Regenerate from the pinned reference path, not from the
            // engine under test: the files *are* the reference.
            let reference = derive_timing_constraints(&stg, &library).expect("derives");
            let contents = format!("{}{}", header(bench.name), reference.snapshot());
            fs::write(&path, contents)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
        let out = engine.run(&stg, &library).expect("derives");
        let rendered = format!("{}{}", header(bench.name), out.report.snapshot());
        let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden snapshot `{}`: {e}\n\
                 run `UPDATE_GOLDEN=1 cargo test --test golden` to create it",
                path.display()
            )
        });
        assert_eq!(
            rendered,
            expected,
            "golden snapshot mismatch for `{}` ({}).\n{}\n\
             If the output change is intentional, regenerate the snapshots\n\
             with `UPDATE_GOLDEN=1 cargo test --test golden` and review the\n\
             diff; otherwise the incremental/memoized engine has diverged\n\
             from the pinned sequential reference.",
            bench.name,
            path.display(),
            first_diff(&rendered, &expected),
        );
    }
}

/// Five pinned generator fixtures spanning the spec envelope: a plain
/// two-phase ring, a wide fork stage, a binary choice, an OR-causality
/// tail, and a mixed shape. All two-phase (`interleave: false`), so CSC
/// holds by construction and synthesis is guaranteed. Because the
/// generator promises byte-identical `.g` text per `(sanitized spec,
/// seed)` pair forever, these snapshots pin the *generator* as much as
/// the engine: a drifting generator shows up here before it silently
/// reshuffles every fuzz seed.
fn corpus_fixtures() -> Vec<(&'static str, CorpusSpec, u64)> {
    let base = CorpusSpec {
        signals: 6,
        choices: 0,
        or_density: 0,
        max_fork: 1,
        interleave: false,
        marking: MarkingStyle::ImplicitArcs,
    };
    vec![
        ("corpus-two-phase-ring", base, 1),
        (
            "corpus-forked-burst",
            CorpusSpec {
                signals: 10,
                max_fork: 3,
                ..base
            },
            7,
        ),
        (
            "corpus-choice-pair",
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
            "corpus-or-tail",
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
            "corpus-mixed",
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
fn golden_snapshots_pin_the_reference_output_for_corpus_fixtures() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    let engine = Engine::new(EngineConfig::default());
    let budget = engine.config().global_sg_budget;
    for (name, spec, seed) in corpus_fixtures() {
        let circuit = generate_named(&spec, seed, name);
        let library = synthesize(&circuit.stg, budget)
            .unwrap_or_else(|e| panic!("corpus fixture `{name}` must synthesize: {e}"));
        let path = golden_path(name);
        if update {
            let reference = derive_timing_constraints(&circuit.stg, &library).expect("derives");
            let contents = format!("{}{}", header(name), reference.snapshot());
            fs::write(&path, contents)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
        let out = engine.run(&circuit.stg, &library).expect("derives");
        let rendered = format!("{}{}", header(name), out.report.snapshot());
        let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden snapshot `{}`: {e}\n\
                 run `UPDATE_GOLDEN=1 cargo test --test golden` to create it",
                path.display()
            )
        });
        assert_eq!(
            rendered,
            expected,
            "golden snapshot mismatch for corpus fixture `{name}` ({}).\n{}\n\
             Either the engine diverged from the reference, or the corpus\n\
             generator's output drifted for a pinned (spec, seed) pair —\n\
             the latter breaks every recorded fuzz reproducer and needs a\n\
             deliberate decision, not a snapshot refresh.",
            path.display(),
            first_diff(&rendered, &expected),
        );
    }
}

/// Seed 189 (`corpus-000000bd`) is the canonical diverging specimen: one
/// gate's relaxation loop never converges, and before the trial scheduler
/// it burned whatever iteration budget it was given (the old 400-cap
/// still cost ~1 s; the default 20 000 budget meant hours). The regression
/// contract pinned here: at the *default* budget the full derivation
/// terminates deterministically, in well under a second, with a
/// `Diverged` verdict whose rendering — gate, detector, iteration and
/// trailing arc sequence — is golden-pinned.
/// State-graph builds of the seed-189 derivation up to its bail (the
/// pre-checks plus the trials of the 179-iteration loop): the
/// deterministic work ceiling next to the wall-clock bound.
const SEED_189_SG_BUILD_CEILING: usize = 257;

#[test]
fn golden_snapshot_pins_the_seed_189_divergence() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    let name = "corpus-000000bd-diverged";
    let spec = CorpusSpec::from_seed(189, 12);
    let circuit = generate(&spec, 189);
    let library = synthesize(&circuit.stg, EngineConfig::default().global_sg_budget)
        .expect("seed 189 synthesizes");
    let engine = Engine::new(EngineConfig::default());
    let started = std::time::Instant::now();
    let err = engine
        .run(&circuit.stg, &library)
        .expect_err("seed 189 must not converge");
    let elapsed = started.elapsed();
    assert!(
        matches!(err, CoreError::Diverged { .. }),
        "expected a Diverged verdict, got: {err}"
    );
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "seed 189 must bail in under a second at the default budget, took {elapsed:?}"
    );
    // The host-independent half of the same contract: the bail costs at
    // most this many state-graph builds (SG-cache misses), whatever the
    // host's speed.
    let sg_builds = engine.cache_stats().misses;
    assert!(
        sg_builds <= SEED_189_SG_BUILD_CEILING,
        "seed 189 must bail within {SEED_189_SG_BUILD_CEILING} state-graph builds, took {sg_builds}"
    );
    // A second, warm run of the same engine must reach the identical
    // verdict: the scheduler's inputs are cache-independent.
    assert_eq!(err, engine.run(&circuit.stg, &library).expect_err("warm"));

    let path = golden_path(name);
    let rendered = format!("{}{err}\n", header(name));
    if update {
        fs::write(&path, &rendered)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot `{}`: {e}\n\
             run `UPDATE_GOLDEN=1 cargo test --test golden` to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        expected,
        "golden divergence verdict drifted for `{name}` ({}).\n{}",
        path.display(),
        first_diff(&rendered, &expected),
    );
}

#[test]
fn golden_directory_has_no_stale_snapshots() {
    // Every file in tests/golden must correspond to a bundled benchmark:
    // a renamed or removed benchmark must not leave an orphaned snapshot
    // silently pinning nothing.
    let mut names: Vec<&str> = si_redress::suite::benchmarks()
        .iter()
        .map(|b| b.name)
        .collect();
    names.extend(corpus_fixtures().iter().map(|(name, _, _)| *name));
    names.push("corpus-000000bd-diverged");
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for entry in fs::read_dir(&dir).expect("golden directory exists") {
        let path = entry.expect("readable entry").path();
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_string();
        assert!(
            names.contains(&stem.as_str()),
            "stale golden snapshot `{}` matches no bundled benchmark or corpus fixture",
            path.display()
        );
    }
}
