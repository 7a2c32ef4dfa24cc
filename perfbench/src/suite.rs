//! `suite-cold` and `suite-warm`: the thirteen Table 7.2 circuits through
//! `si_suite::run_benchmark`, one client.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use si_core::{Engine, EngineConfig};
use si_corpus::CorpusRng;
use si_lint::LintOptions;
use si_suite::{run_benchmark, BatchEntry, Benchmark};
use si_synth::SynthError;

use crate::bench::{Args, Pass, Quality, Timed, Traced};
use crate::check::{golden, suite_row_ok};
use crate::placement::Placement;
use crate::trace::{Layers, TierStats, NO_ROW};

pub struct Suite {
    benches: Vec<Benchmark>,
    goldens: Vec<String>,
    /// Row order of the next pass: timed passes each draw a fresh one, so
    /// a run averages over orders; traced passes keep the first draw, so
    /// their work counters repeat exactly.
    order: Vec<usize>,
    rng: CorpusRng,
    /// The primed engine every `suite-warm` pass reuses; `suite-cold`
    /// builds a fresh engine per pass.
    warm: Option<Engine>,
}

fn config() -> EngineConfig {
    EngineConfig::default()
}

/// Loads the circuits (filling the process-wide parse/synthesis memo),
/// then runs one untimed pass, which fills the lint memo. For
/// `suite-warm` that pass primes the engine the timed passes reuse.
pub fn setup(args: &Args, warm: bool) -> Result<Suite, String> {
    let benches = si_suite::benchmarks();
    let mut rng = CorpusRng::new(args.seed);
    let mut order: Vec<usize> = (0..benches.len()).collect();
    rng.shuffle(&mut order);
    let goldens = benches
        .iter()
        .map(|b| golden(b.name))
        .collect::<Result<Vec<_>, _>>()?;
    let budget = config().global_sg_budget;
    for b in &benches {
        b.circuit_with_budget(budget).map_err(|e| e.to_string())?;
    }
    let mut suite = Suite {
        benches,
        goldens,
        order,
        rng,
        warm: None,
    };
    let engine = Engine::new(config());
    let (first, _) = suite.pass(&engine, &mut Vec::new(), None);
    if first.failed > 0 {
        return Err(format!(
            "{} of {} circuits failed the output check in the first pass",
            first.failed, first.rows
        ));
    }
    suite.warm = warm.then_some(engine);
    Ok(suite)
}

type Row = std::thread::Result<Result<BatchEntry, si_suite::BatchError>>;

impl Suite {
    fn with_engine<T>(&self, f: impl FnOnce(&Engine) -> T) -> T {
        match &self.warm {
            Some(engine) => f(engine),
            None => f(&Engine::new(config())),
        }
    }

    /// One pass: every circuit through `run_benchmark`, each call timed
    /// into `latencies_ms` and, when traced, wrapped in a `row` span whose
    /// engine metrics fold into `layers`. Outputs are checked after the
    /// clock stops.
    fn pass(
        &self,
        engine: &Engine,
        latencies_ms: &mut Vec<f64>,
        mut traced: Option<(&mut Traced, &mut Layers)>,
    ) -> (Pass, Vec<Row>) {
        let mut rows: Vec<Row> = Vec::with_capacity(self.order.len());
        let pass_span = traced
            .as_mut()
            .map(|(t, _)| t.recorder.open("pass", NO_ROW, None));
        let started = Instant::now();
        for &i in &self.order {
            let bench = &self.benches[i];
            let call = || catch_unwind(AssertUnwindSafe(|| run_benchmark(engine, bench)));
            let t = Instant::now();
            let row = match traced.as_mut() {
                Some((tr, layers)) => {
                    let (row, d) = tr.recorder.time("row", i as u32, pass_span, call);
                    layers.add_row(d);
                    row
                }
                None => call(),
            };
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            rows.push(row);
        }
        let wall = started.elapsed();
        let mut failed = 0;
        for (row, &i) in rows.iter().zip(&self.order) {
            match row {
                Ok(Ok(entry))
                    if suite_row_ok(
                        self.benches[i].name,
                        &entry.report.report,
                        &self.goldens[i],
                    ) =>
                {
                    if let Some((_, layers)) = traced.as_mut() {
                        layers.add_engine(&entry.report);
                    }
                }
                _ => failed += 1,
            }
        }
        if let (Some((tr, _)), Some(id)) = (traced, pass_span) {
            tr.recorder.close(id);
        }
        let pass = Pass {
            rows: rows.len(),
            failed,
            wall,
        };
        (pass, rows)
    }

    pub fn timed(&mut self, args: &Args) -> Timed {
        let deadline = args.deadline();
        let mut timed = Timed::default();
        let mut placement = Placement::new();
        while timed.pass_cps.is_empty() || Instant::now() < deadline {
            placement.tick();
            self.rng.shuffle(&mut self.order);
            let (pass, rows) = self.with_engine(|e| self.pass(e, &mut timed.latencies_ms, None));
            timed.count(pass, true);
            if timed.pass_cps.len() == 1 {
                timed.quality = self.quality(&rows);
            }
        }
        placement.release();
        timed
    }

    fn quality(&self, rows: &[Row]) -> Quality {
        let mut q = Quality::default();
        let budget = config().global_sg_budget;
        for (row, &i) in rows.iter().zip(&self.order) {
            let bench = &self.benches[i];
            if let (Ok(Ok(entry)), Ok((stg, _))) = (row, bench.circuit_with_budget(budget)) {
                q.add(&stg, &entry.report.report);
            }
        }
        q
    }

    /// Rounds of: a traced pass, a traced front-end sweep (the parse,
    /// lint and synthesis calls set-up makes for these circuits), and an
    /// untraced pass making the same calls as the traced one.
    pub fn traced(&mut self, args: &Args) -> Traced {
        let deadline = args.deadline();
        let mut tr = Traced::new(1);
        let mut placement = Placement::new();
        while tr.passes.len() < 2 || Instant::now() < deadline {
            placement.tick();
            let mut layers = Layers::default();
            let (pass, _) = self.with_engine(|engine| {
                let before = TierStats::of(engine);
                let out = self.pass(engine, &mut Vec::new(), Some((&mut tr, &mut layers)));
                layers.add_cache_traffic(engine, &before);
                out
            });
            tr.count(pass);
            tr.traced_cps.push(pass.circuits_per_s());
            self.front_end_sweep(&mut tr, &mut layers);
            tr.passes.push(layers);

            let (bare, _) = self.with_engine(|e| self.pass(e, &mut Vec::new(), None));
            tr.count(bare);
            tr.untraced_cps.push(bare.circuits_per_s());
            tr.sharded_wall_ms.push(bare.wall.as_secs_f64() * 1e3);
        }
        placement.release();
        tr
    }

    fn front_end_sweep(&self, tr: &mut Traced, layers: &mut Layers) {
        let budget = config().global_sg_budget;
        let opts = LintOptions {
            state_budget: Some(budget),
        };
        let rec = &mut tr.recorder;
        let sweep = rec.open("frontend", NO_ROW, None);
        for (i, bench) in self.benches.iter().enumerate() {
            let row = i as u32;
            let (parsed, d) = rec.time("parse", row, Some(sweep), || {
                si_stg::parse_astg(bench.stg_text)
            });
            layers.add_parse(d, bench.stg_text.len());
            let (_, d) = rec.time("lint", row, Some(sweep), || {
                si_lint::lint_text_with(bench.stg_text, &opts)
            });
            layers.add_lint(d);
            if let (Ok(stg), None) = (&parsed, bench.eqn_text) {
                let (synth, d) = rec.time("synth", row, Some(sweep), || {
                    si_synth::synthesize(stg, budget)
                });
                layers.add_synth(d, matches!(synth, Err(SynthError::Csc(_))));
            }
        }
        rec.close(sweep);
    }
}
