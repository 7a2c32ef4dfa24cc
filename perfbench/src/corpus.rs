//! `corpus-cold`: the canonical 1000-circuit seeded manifest through
//! `si_suite::run_corpus` (2 shards) and `si_suite::run_corpus_entry`,
//! each pass on a fresh engine.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use si_core::{CoreError, Engine, EngineConfig};
use si_corpus::{corpus_name, generate, harness_config, CorpusRng, CorpusSpec};
use si_lint::LintOptions;
use si_suite::{run_corpus, run_corpus_entry, CorpusEntry, CorpusError, CorpusOutcome, CorpusRow};
use si_synth::SynthError;

use crate::bench::{Args, Pass, Quality, Timed, Traced};
use crate::check::{
    bench_dir, corpus_row_ok, load_reference, payload_digest, render_reference, verdict_kind,
    Expected, REFERENCE_FILE,
};
use crate::placement::Placement;
use crate::trace::{Layers, Recorder, TierStats, NO_ROW};

/// Manifest rows per pass.
pub const CIRCUITS: u64 = 1000;
/// Generator signal-count bound of the canonical manifest.
const MAX_SIGNALS: usize = 10;
/// Worker shards of a `run_corpus` pass.
pub const SHARDS: usize = 2;
/// Corpus seeds the committed reference covers: offsets `0..=1000`.
const REFERENCE_SEEDS: u64 = 2000;

fn config() -> EngineConfig {
    harness_config(EngineConfig::default())
}

fn entry(seed: u64) -> CorpusEntry {
    let circuit = generate(&CorpusSpec::from_seed(seed, MAX_SIGNALS), seed);
    CorpusEntry {
        name: corpus_name(seed),
        stg_text: circuit.g_text,
        eqn_text: None,
    }
}

pub struct Corpus {
    manifest: Vec<CorpusEntry>,
    expected: Vec<Expected>,
    /// Draws the row order of each timed round, so that a run averages
    /// over orders (where the heaviest rows land decides how evenly the
    /// shards finish); traced passes keep the first order, so their work
    /// counters repeat exactly.
    rng: CorpusRng,
}

/// Generates the manifest for corpus seeds `offset + 1 ..= offset + 1000`
/// in the row order `args.seed` draws, and aligns the reference digests.
pub fn setup(args: &Args) -> Result<Corpus, String> {
    let reference = load_reference()?;
    let mut seeds: Vec<u64> = (args.offset + 1..=args.offset + CIRCUITS).collect();
    let mut rng = CorpusRng::new(args.seed);
    rng.shuffle(&mut seeds);
    let expected = seeds
        .iter()
        .map(|s| {
            reference.get(s).copied().ok_or_else(|| {
                format!(
                    "{REFERENCE_FILE} has no row for corpus seed {s}; it covers offsets 0..={}",
                    REFERENCE_SEEDS - CIRCUITS
                )
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let manifest = seeds.into_iter().map(entry).collect();
    Ok(Corpus {
        manifest,
        expected,
        rng,
    })
}

impl Corpus {
    #[cfg(test)]
    pub fn new(manifest: Vec<CorpusEntry>, expected: Vec<Expected>) -> Self {
        Corpus {
            manifest,
            expected,
            rng: CorpusRng::new(0),
        }
    }

    fn reorder(&mut self) {
        let mut order: Vec<usize> = (0..self.manifest.len()).collect();
        self.rng.shuffle(&mut order);
        self.manifest = order.iter().map(|&i| self.manifest[i].clone()).collect();
        self.expected = order.iter().map(|&i| self.expected[i]).collect();
    }

    fn failures(&self, outcomes: &[CorpusOutcome]) -> usize {
        outcomes
            .iter()
            .zip(&self.expected)
            .filter(|(o, e)| !corpus_row_ok(o, e))
            .count()
    }

    /// One `run_corpus` pass at `SHARDS` shards. A panic fails every row.
    pub fn sharded_pass(&self) -> Pass {
        let engine = Engine::new(config());
        let started = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            run_corpus(&engine, &self.manifest, SHARDS)
        }));
        let wall = started.elapsed();
        let rows = self.manifest.len();
        let failed = out.map_or(rows, |outcomes| self.failures(&outcomes));
        Pass { rows, failed, wall }
    }

    /// One sequential pass, each `run_corpus_entry` call timed into
    /// `latencies_ms`. A panicking row is a failed row.
    pub fn sequential_pass(&self, latencies_ms: &mut Vec<f64>) -> (Pass, Vec<CorpusOutcome>) {
        let engine = Engine::new(config());
        let mut outcomes = Vec::with_capacity(self.manifest.len());
        let started = Instant::now();
        for e in &self.manifest {
            let t = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| run_corpus_entry(&engine, e)));
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            outcomes.push(out.unwrap_or_else(|_| Err(panic_row(e))));
        }
        let wall = started.elapsed();
        let failed = self.failures(&outcomes);
        let pass = Pass {
            rows: outcomes.len(),
            failed,
            wall,
        };
        (pass, outcomes)
    }

    /// Rounds of one sharded throughput pass and one sequential latency
    /// pass.
    pub fn timed(&mut self, args: &Args) -> Timed {
        let deadline = args.deadline();
        let mut timed = Timed::default();
        let mut placement = Placement::new();
        while timed.pass_cps.is_empty() || Instant::now() < deadline {
            self.reorder();
            placement.release();
            timed.count(self.sharded_pass(), true);
            placement.rotate();
            let (pass, outcomes) = self.sequential_pass(&mut timed.latencies_ms);
            timed.count(pass, false);
            if timed.pass_cps.len() == 1 {
                timed.quality = self.quality(&outcomes);
            }
        }
        placement.release();
        timed
    }

    fn quality(&self, outcomes: &[CorpusOutcome]) -> Quality {
        let mut q = Quality::default();
        for (out, e) in outcomes.iter().zip(&self.manifest) {
            if let (Ok(row), Ok(stg)) = (out, si_stg::parse_astg(&e.stg_text)) {
                q.add(&stg, &row.report.report);
            }
        }
        q
    }

    /// Rounds of: a traced sequential pass calling each layer of
    /// `run_corpus_entry` directly, the same pass untraced, and a sharded
    /// pass for the shard efficiency.
    pub fn traced(&mut self, args: &Args) -> Traced {
        let deadline = args.deadline();
        let mut tr = Traced::new(SHARDS);
        let mut placement = Placement::new();
        while tr.passes.len() < 2 || Instant::now() < deadline {
            placement.rotate();
            let engine = Engine::new(config());
            let before = TierStats::of(&engine);
            let mut layers = Layers::default();
            let pass_span = tr.recorder.open("pass", NO_ROW, None);
            let mut outcomes = Vec::with_capacity(self.manifest.len());
            for (i, e) in self.manifest.iter().enumerate() {
                let rec = &mut tr.recorder;
                let row = rec.open("row", i as u32, Some(pass_span));
                let out = catch_unwind(AssertUnwindSafe(|| {
                    traced_row(&engine, e, i as u32, row, rec, &mut layers)
                }));
                layers.add_row(rec.close(row));
                outcomes.push(out.unwrap_or_else(|_| Err(panic_row(e))));
            }
            let wall = tr.recorder.close(pass_span);
            layers.add_cache_traffic(&engine, &before);
            drop(engine);
            let pass = Pass {
                rows: outcomes.len(),
                failed: self.failures(&outcomes),
                wall,
            };
            tr.count(pass);
            tr.traced_cps.push(pass.circuits_per_s());
            tr.passes.push(layers);

            let (bare, _) = self.sequential_pass(&mut Vec::new());
            tr.count(bare);
            tr.untraced_cps.push(bare.circuits_per_s());
            placement.release();
            let sharded = self.sharded_pass();
            tr.count(sharded);
            tr.sharded_wall_ms.push(sharded.wall.as_secs_f64() * 1e3);
        }
        tr
    }
}

/// The stand-in outcome of a row whose call panicked: no reference row
/// has this payload, so the row counts as failed.
fn panic_row(e: &CorpusEntry) -> CorpusError {
    CorpusError::Load {
        name: e.name.clone(),
        detail: "panicked".into(),
    }
}

/// `run_corpus_entry` taken apart into its layer calls — lint pre-flight,
/// strict parse, synthesis, derivation — each inside a span.
fn traced_row(
    engine: &Engine,
    e: &CorpusEntry,
    row: u32,
    parent: usize,
    rec: &mut Recorder,
    layers: &mut Layers,
) -> CorpusOutcome {
    let budget = engine.config().global_sg_budget;
    let parent = Some(parent);
    let load = |detail: String| CorpusError::Load {
        name: e.name.clone(),
        detail,
    };
    let opts = LintOptions {
        state_budget: Some(budget),
    };
    let (lint, d) = rec.time("lint", row, parent, || {
        si_lint::lint_text_with(&e.stg_text, &opts)
    });
    layers.add_lint(d);
    let (parsed, d) = rec.time("parse", row, parent, || si_stg::parse_astg(&e.stg_text));
    layers.add_parse(d, e.stg_text.len());
    let stg = parsed.map_err(|err| load(err.to_string()))?;
    let (synth, d) = rec.time("synth", row, parent, || si_synth::synthesize(&stg, budget));
    layers.add_synth(d, matches!(synth, Err(SynthError::Csc(_))));
    let library = synth.map_err(|err| load(err.to_string()))?;
    let (run, d) = rec.time("engine", row, parent, || engine.run(&stg, &library));
    match run {
        Ok(report) => {
            layers.add_engine(&report);
            Ok(CorpusRow {
                name: e.name.clone(),
                report,
                lint,
            })
        }
        Err(source) => {
            if matches!(source, CoreError::Diverged { .. }) {
                layers.add_diverged(d);
            }
            Err(CorpusError::Derive {
                name: e.name.clone(),
                source,
            })
        }
    }
}

/// Regenerates the committed reference from the independent oracle
/// configuration, `harness_config(EngineConfig::reference())`: uncached,
/// non-incremental, no projection memo, no lint pre-flight.
pub fn write_reference() -> Result<String, String> {
    let manifest: Vec<CorpusEntry> = (1..=REFERENCE_SEEDS).map(entry).collect();
    let engine = Engine::new(harness_config(EngineConfig::reference()));
    let started = Instant::now();
    let outcomes = run_corpus(&engine, &manifest, SHARDS);
    let rows: Vec<(u64, Expected)> = (1..=REFERENCE_SEEDS)
        .zip(&outcomes)
        .map(|(seed, out)| {
            let expected = Expected {
                kind: verdict_kind(out),
                digest: payload_digest(out),
            };
            (seed, expected)
        })
        .collect();
    let header = format!(
        "# Reference verdicts of corpus seeds 1..={REFERENCE_SEEDS} (CorpusSpec::from_seed, max\n\
         # {MAX_SIGNALS} signals), derived by harness_config(EngineConfig::reference()).\n\
         # Columns: corpus seed, verdict kind, FNV-1a 64 of the payload (the\n\
         # constraint report snapshot, or the error value).\n\
         # Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --write-reference\n"
    );
    let path = bench_dir().join(REFERENCE_FILE);
    std::fs::write(&path, render_reference(&header, &rows))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(format!(
        "wrote {} rows to {} in {:.1} s",
        rows.len(),
        path.display(),
        started.elapsed().as_secs_f64()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A benchmark self-test: a payload that differs from the reference
    /// is a failed row in every pass kind, and so raises `failed_ratio`.
    #[test]
    fn an_altered_reference_payload_is_a_failed_row() {
        let reference = load_reference().expect("committed reference");
        let seeds: Vec<u64> = (1..=12).collect();
        let manifest: Vec<CorpusEntry> = seeds.iter().copied().map(entry).collect();
        let mut expected: Vec<Expected> = seeds.iter().map(|s| reference[s]).collect();
        let clean = Corpus::new(manifest.clone(), expected.clone());
        assert_eq!(clean.sharded_pass().failed, 0);
        assert_eq!(clean.sequential_pass(&mut Vec::new()).0.failed, 0);

        expected[3].digest ^= 1;
        let altered = Corpus::new(manifest, expected);
        let sharded = altered.sharded_pass();
        let (sequential, _) = altered.sequential_pass(&mut Vec::new());
        assert_eq!((sharded.failed, sequential.failed), (1, 1));
        let failed_ratio = sharded.failed as f64 / sharded.rows as f64;
        assert!((failed_ratio - 1.0 / 12.0).abs() < 1e-12);
    }
}
