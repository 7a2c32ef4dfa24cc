//! What every workload shares: arguments, the timed-run and traced-run
//! results, and their reduction to the named metrics.

use std::time::{Duration, Instant};

use si_core::{AdversaryOracle, ConstraintReport};
use si_stg::Stg;

use crate::json::Json;
use crate::stats::{median, quantile, ratio};
use crate::trace::{Layers, Recorder};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SuiteCold,
    SuiteWarm,
    CorpusCold,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SuiteCold,
        Workload::SuiteWarm,
        Workload::CorpusCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteCold => "suite-cold",
            Workload::SuiteWarm => "suite-warm",
            Workload::CorpusCold => "corpus-cold",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    /// Drives the row order of every pass (and nothing else).
    pub seed: u64,
    /// Measured time of one run.
    pub seconds: f64,
    pub trace: bool,
    /// First corpus seed minus one: `corpus-cold` runs corpus seeds
    /// `offset + 1 ..= offset + 1000`.
    pub offset: u64,
    /// Run only the set-up, print its duration and exit.
    pub setup_probe: bool,
}

impl Args {
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// Constraint counts for the quality ratios.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    pub baseline: usize,
    pub derived: usize,
    pub lvl3_baseline: usize,
    pub lvl3_derived: usize,
}

/// Adversary-path level bound of the short, most violation-prone
/// constraints.
const SHORT_PATH_LEVELS: u32 = 3;

impl Quality {
    pub fn add(&mut self, stg: &Stg, report: &ConstraintReport) {
        let oracle = AdversaryOracle::new(stg);
        let within = |set| {
            report
                .constraints_within_level(set, &oracle, stg, SHORT_PATH_LEVELS)
                .len()
        };
        self.baseline += report.baseline.len();
        self.derived += report.constraints.len();
        self.lvl3_baseline += within(&report.baseline);
        self.lvl3_derived += within(&report.constraints);
    }
}

/// One pass over a workload's rows.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub rows: usize,
    pub failed: usize,
    pub wall: Duration,
}

impl Pass {
    pub fn circuits_per_s(&self) -> f64 {
        self.rows as f64 / self.wall.as_secs_f64()
    }
}

/// A timed (untraced) run.
#[derive(Debug, Default)]
pub struct Timed {
    /// Verdicts per second of each throughput pass.
    pub pass_cps: Vec<f64>,
    /// Verdicts and wall time summed over the throughput passes.
    pub throughput_rows: usize,
    pub throughput_wall: Duration,
    /// Per-circuit time to verdict, milliseconds.
    pub latencies_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub quality: Quality,
}

impl Timed {
    /// Counts a pass's rows; `throughput` passes also add a throughput
    /// sample.
    pub fn count(&mut self, pass: Pass, throughput: bool) {
        self.attempted += pass.rows;
        self.failed += pass.failed;
        if throughput {
            self.pass_cps.push(pass.circuits_per_s());
            self.throughput_rows += pass.rows;
            self.throughput_wall += pass.wall;
        }
    }

    pub fn end_to_end(&self, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
        let q = &self.quality;
        vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new(
                "throughput_cps",
                ratio(
                    self.throughput_rows as f64,
                    self.throughput_wall.as_secs_f64(),
                ),
                "1/s",
            ),
            Metric::new("verdict_p50_ms", median(&self.latencies_ms), "ms"),
            Metric::new("verdict_p99_ms", quantile(&self.latencies_ms, 0.99), "ms"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
            Metric::new(
                "after_before_pct",
                100.0 * ratio(q.derived as f64, q.baseline as f64),
                "%",
            ),
            Metric::new(
                "lvl3_after_before_pct",
                100.0 * ratio(q.lvl3_derived as f64, q.lvl3_baseline as f64),
                "%",
            ),
        ]
    }
}

/// A traced run: per-pass layer totals plus the untraced comparison
/// passes that give the tracing overhead and the shard efficiency.
#[derive(Debug)]
pub struct Traced {
    pub passes: Vec<Layers>,
    /// Throughput of each traced pass.
    pub traced_cps: Vec<f64>,
    /// Throughput of each untraced pass making the same calls.
    pub untraced_cps: Vec<f64>,
    /// Wall time of each untraced pass at the workload's shard count.
    pub sharded_wall_ms: Vec<f64>,
    pub shards: usize,
    pub attempted: usize,
    pub failed: usize,
    pub recorder: Recorder,
}

impl Traced {
    pub fn new(shards: usize) -> Self {
        Traced {
            passes: Vec::new(),
            traced_cps: Vec::new(),
            untraced_cps: Vec::new(),
            sharded_wall_ms: Vec::new(),
            shards,
            attempted: 0,
            failed: 0,
            recorder: Recorder::new(),
        }
    }

    pub fn count(&mut self, pass: Pass) {
        self.attempted += pass.rows;
        self.failed += pass.failed;
    }

    /// Whether every traced pass did exactly the same work.
    pub fn counters_repeat(&self) -> bool {
        self.passes.windows(2).all(|w| w[0].counts == w[1].counts)
    }

    /// Tracing overhead: how much slower a traced pass ran than an
    /// untraced pass making the same calls, in percent.
    pub fn overhead_pct(&self) -> f64 {
        100.0 * (ratio(median(&self.untraced_cps), median(&self.traced_cps)) - 1.0)
    }

    pub fn per_layer(&self) -> Vec<Metric> {
        let ms = |f: fn(&Layers) -> u64| {
            median(
                &self
                    .passes
                    .iter()
                    .map(|l| f(l) as f64 / 1e6)
                    .collect::<Vec<_>>(),
            )
        };
        let c = self.passes.first().map(|l| l.counts).unwrap_or_default();
        let parse_mb_s = median(
            &self
                .passes
                .iter()
                .map(|l| ratio(l.parse_bytes as f64, l.parse_ns as f64) * 1e3)
                .collect::<Vec<_>>(),
        );
        let relax_ms = ms(|l| l.relax_ns);
        let busy_ms = ms(|l| l.rows_busy_ns);
        let sharded_ms = median(&self.sharded_wall_ms);
        let hit = |h: u64, m: u64| ratio(h as f64, (h + m) as f64);
        let n = |v: u64| v as f64;
        vec![
            Metric::new("parse.busy_ms", ms(|l| l.parse_ns), "ms"),
            Metric::new("parse.mb_per_s", parse_mb_s, "MB/s"),
            Metric::new("lint.busy_ms", ms(|l| l.lint_ns), "ms"),
            Metric::new("synth.busy_ms", ms(|l| l.synth_ns), "ms"),
            Metric::new("synth.csc_rejects", n(c.csc_rejects), "count"),
            Metric::new("decompose.busy_ms", ms(|l| l.decompose_ns), "ms"),
            Metric::new("decompose.states_explored", n(c.decompose_states), "count"),
            Metric::new("project.busy_ms", ms(|l| l.project_ns), "ms"),
            Metric::new("project.states_explored", n(c.project_states), "count"),
            Metric::new(
                "project.memo_hit_ratio",
                hit(c.proj_memo_hits, c.proj_memo_misses),
                "ratio",
            ),
            Metric::new("relax.busy_ms", relax_ms, "ms"),
            Metric::new("relax.trials", n(c.trials), "count"),
            Metric::new(
                "relax.us_per_trial",
                ratio(relax_ms * 1e3, n(c.trials)),
                "us",
            ),
            Metric::new("relax.states_explored", n(c.relax_states), "count"),
            Metric::new("relax.sg_builds", n(c.sg_builds), "count"),
            Metric::new(
                "relax.inc_derived_ratio",
                ratio(n(c.sg_inc_derived), n(c.sg_builds)),
                "ratio",
            ),
            Metric::new("relax.classify_computed", n(c.classify_computed), "count"),
            Metric::new(
                "relax.inc_classified_ratio",
                ratio(n(c.inc_classified), n(c.classify_computed)),
                "ratio",
            ),
            Metric::new("sched.fingerprints", n(c.fingerprints), "count"),
            Metric::new("sched.bails", n(c.bails), "count"),
            Metric::new("relax.diverged_ms", ms(|l| l.diverged_ns), "ms"),
            Metric::new("merge.busy_ms", ms(|l| l.merge_ns), "ms"),
            Metric::new("engine.other_ms", ms(|l| l.engine_other_ns), "ms"),
            Metric::new("sg_cache.hit_ratio", hit(c.sg_hits, c.sg_misses), "ratio"),
            Metric::new(
                "proj_cache.hit_ratio",
                hit(c.proj_hits, c.proj_misses),
                "ratio",
            ),
            Metric::new(
                "conf_cache.hit_ratio",
                hit(c.conf_hits, c.conf_misses),
                "ratio",
            ),
            Metric::new("sg_cache.entries", n(c.sg_entries), "count"),
            Metric::new("conf_cache.entries", n(c.conf_entries), "count"),
            Metric::new(
                "shard.efficiency",
                ratio(busy_ms, self.shards as f64 * sharded_ms),
                "ratio",
            ),
        ]
    }

    /// The deterministic counters of the first traced pass, by name.
    pub fn counters_json(&self) -> Json {
        let c = self.passes.first().map(|l| l.counts).unwrap_or_default();
        Json::obj(c.fields().map(|(k, v)| (k, Json::Int(v))))
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}
