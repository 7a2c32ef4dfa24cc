//! The traced run's instruments: an in-memory span recorder around the
//! calls into each layer, and per-pass layer totals read from the
//! per-stage fields `EngineReport` already returns.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use si_core::{CacheStats, Engine, EngineReport, Stage};

use crate::json::Json;

/// One recorded span. `row` identifies the circuit the span worked on
/// (`u32::MAX` for spans that cover a whole pass).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub row: u32,
}

pub const NO_ROW: u32 = u32::MAX;

/// Spans kept in memory and written out when the benchmark ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    pub fn open(&mut self, name: &'static str, row: u32, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            row,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration.
    pub fn close(&mut self, id: usize) -> Duration {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        Duration::from_nanos(end - span.start_ns)
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        row: u32,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, row, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Busy and self time in milliseconds per span name. A span's self
    /// time is its duration minus the durations of its children.
    pub fn busy_and_self_ms(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += dur as f64 / 1e6;
            e.1 += dur.saturating_sub(child) as f64 / 1e6;
        }
        out
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let index = |i: Option<u64>| i.map_or(Json::Null, Json::Int);
        for (id, s) in self.spans.iter().enumerate() {
            let span = Json::obj([
                ("id", Json::Int(id as u64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Int(s.start_ns)),
                ("end_ns", Json::Int(s.end_ns)),
                ("parent", index(s.parent.map(|p| p as u64))),
                ("row", index((s.row != NO_ROW).then_some(u64::from(s.row)))),
            ]);
            writeln!(out, "{}", span.render())?;
        }
        out.flush()
    }
}

/// Per-pass totals of one traced pass. Times are nanoseconds; every other
/// field is a deterministic work counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Layers {
    pub parse_ns: u64,
    pub parse_bytes: u64,
    pub lint_ns: u64,
    pub synth_ns: u64,
    pub decompose_ns: u64,
    pub project_ns: u64,
    pub relax_ns: u64,
    pub merge_ns: u64,
    pub engine_other_ns: u64,
    pub diverged_ns: u64,
    /// Σ of the per-row spans: the pass's sequential busy time.
    pub rows_busy_ns: u64,
    pub counts: Counters,
}

/// Deterministic work counters of one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub rows: u64,
    pub csc_rejects: u64,
    pub decompose_states: u64,
    pub project_states: u64,
    pub proj_memo_hits: u64,
    pub proj_memo_misses: u64,
    pub relax_states: u64,
    pub trials: u64,
    pub sg_builds: u64,
    pub sg_inc_derived: u64,
    pub classify_computed: u64,
    pub inc_classified: u64,
    pub fingerprints: u64,
    pub bails: u64,
    pub sg_hits: u64,
    pub sg_misses: u64,
    pub sg_entries: u64,
    pub proj_hits: u64,
    pub proj_misses: u64,
    pub conf_hits: u64,
    pub conf_misses: u64,
    pub conf_entries: u64,
}

impl Counters {
    /// Name/value pairs, in a fixed order.
    pub fn fields(&self) -> [(&'static str, u64); 22] {
        [
            ("rows", self.rows),
            ("csc_rejects", self.csc_rejects),
            ("decompose_states", self.decompose_states),
            ("project_states", self.project_states),
            ("proj_memo_hits", self.proj_memo_hits),
            ("proj_memo_misses", self.proj_memo_misses),
            ("relax_states", self.relax_states),
            ("trials", self.trials),
            ("sg_builds", self.sg_builds),
            ("sg_inc_derived", self.sg_inc_derived),
            ("classify_computed", self.classify_computed),
            ("inc_classified", self.inc_classified),
            ("fingerprints", self.fingerprints),
            ("bails", self.bails),
            ("sg_hits", self.sg_hits),
            ("sg_misses", self.sg_misses),
            ("sg_entries", self.sg_entries),
            ("proj_hits", self.proj_hits),
            ("proj_misses", self.proj_misses),
            ("conf_hits", self.conf_hits),
            ("conf_misses", self.conf_misses),
            ("conf_entries", self.conf_entries),
        ]
    }
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("duration fits in u64 nanoseconds")
}

fn count(n: usize) -> u64 {
    n as u64
}

impl Layers {
    pub fn add_parse(&mut self, d: Duration, bytes: usize) {
        self.parse_ns += ns(d);
        self.parse_bytes += count(bytes);
    }

    pub fn add_lint(&mut self, d: Duration) {
        self.lint_ns += ns(d);
    }

    pub fn add_synth(&mut self, d: Duration, csc_reject: bool) {
        self.synth_ns += ns(d);
        self.counts.csc_rejects += u64::from(csc_reject);
    }

    pub fn add_row(&mut self, d: Duration) {
        self.rows_busy_ns += ns(d);
        self.counts.rows += 1;
    }

    /// A derivation that ended in `CoreError::Diverged` after `d`: its
    /// stage metrics are lost with the report, so the whole call counts
    /// as diverged relax time and as one scheduler bail.
    pub fn add_diverged(&mut self, d: Duration) {
        self.diverged_ns += ns(d);
        self.counts.bails += 1;
    }

    /// Folds one successful derivation's stage and gate metrics in.
    pub fn add_engine(&mut self, report: &EngineReport) {
        let mut stage_sum = Duration::ZERO;
        for s in &report.stages {
            stage_sum += s.wall;
            let c = &mut self.counts;
            match s.stage {
                Stage::Decompose => {
                    self.decompose_ns += ns(s.wall);
                    c.decompose_states += count(s.states_explored);
                }
                Stage::Project => {
                    self.project_ns += ns(s.wall);
                    c.project_states += count(s.states_explored);
                    c.proj_memo_hits += count(s.proj_memo_hits);
                    c.proj_memo_misses += count(s.proj_memo_misses);
                }
                Stage::Relax => {
                    self.relax_ns += ns(s.wall);
                    c.relax_states += count(s.states_explored);
                    c.sg_builds += count(s.sg_cache_misses);
                    c.sg_inc_derived += count(s.sg_inc_derived);
                    c.classify_computed += count(s.conf_cache_misses);
                    c.inc_classified += count(s.conf_inc_classified);
                    c.fingerprints += count(s.sched_fingerprints);
                    c.bails += count(s.sched_cycle_bails + s.sched_watchdog_bails);
                }
                Stage::Merge => self.merge_ns += ns(s.wall),
                Stage::Lint | Stage::Parse | Stage::Validate => {}
            }
        }
        self.counts.trials += report
            .gates
            .iter()
            .map(|g| count(g.iterations))
            .sum::<u64>();
        self.engine_other_ns += ns(report.total_wall.saturating_sub(stage_sum));
    }

    /// Records the cache-tier traffic of a pass: the lookups since
    /// `before` and the entries held afterwards.
    pub fn add_cache_traffic(&mut self, engine: &Engine, before: &TierStats) {
        let after = TierStats::of(engine);
        let c = &mut self.counts;
        c.sg_hits += count(after.sg.hits - before.sg.hits);
        c.sg_misses += count(after.sg.misses - before.sg.misses);
        c.sg_entries = count(after.sg.entries);
        c.proj_hits += count(after.proj.hits - before.proj.hits);
        c.proj_misses += count(after.proj.misses - before.proj.misses);
        c.conf_hits += count(after.conf.hits - before.conf.hits);
        c.conf_misses += count(after.conf.misses - before.conf.misses);
        c.conf_entries = count(after.conf.entries);
    }
}

/// A snapshot of the engine's three cache tiers.
pub struct TierStats {
    sg: CacheStats,
    proj: CacheStats,
    conf: CacheStats,
}

impl TierStats {
    pub fn of(engine: &Engine) -> Self {
        TierStats {
            sg: engine.cache_stats(),
            proj: engine.projection_stats(),
            conf: engine.conformance_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_spans() {
        let mut rec = Recorder::new();
        let root = rec.open("row", 0, None);
        let ((), child) = rec.time("parse", 0, Some(root), || {
            std::thread::sleep(Duration::from_millis(2));
        });
        let total = rec.close(root);
        let times = rec.busy_and_self_ms();
        let (busy, own) = times["row"];
        assert!((busy - total.as_secs_f64() * 1e3).abs() < 1e-6);
        assert!((own - (total - child).as_secs_f64() * 1e3).abs() < 1e-6);
        assert_eq!(times["parse"].0, times["parse"].1);
    }
}
