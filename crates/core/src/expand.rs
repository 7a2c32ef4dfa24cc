//! The per-gate relaxation loop — Algorithm 4 (`Expand`) of the thesis.
//!
//! While the local STG still contains unguaranteed type-4 arcs, pick the
//! tightest (shortest adversary path), relax it, classify the result:
//!
//! - case 1 — accept;
//! - case 2 — additionally relax `x ⇒ o`; if that restores conformance,
//!   accept, otherwise decompose the OR-causality and recurse;
//! - case 3 — decompose the OR-causality and recurse;
//! - case 4 — reject the relaxation, emit the relative timing constraint
//!   `gate: x* < y*` and mark the arc guaranteed.
//!
//! Decomposition dead-ends (no candidate clauses, empty solution groups or
//! non-conformant sub-STGs) fall back to the sound case-4 treatment: the
//! ordering is pinned by a constraint instead of being relaxed. This keeps
//! the derived constraint set sufficient in every code path.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use si_stg::{SgMap, SigmaRows, StateGraph, TransitionLabel};

use crate::cache::{ConfLookup, ConformanceCache, SgCache, SgSource};
use crate::check::{
    classify_states, classify_states_from, conformance, prerequisite_sets, ConformanceReport,
    RelaxationCase,
};
use crate::constraint::{Constraint, ConstraintAtom};
use crate::error::CoreError;
use crate::local::LocalStg;
use crate::orcausality::{
    build_sub_stgs_case2, build_sub_stgs_case3, find_candidate_clauses, find_candidate_transitions,
    initial_restrictions, or_causality_decomposition,
};
use crate::paths::AdversaryOracle;
use crate::relax::relax_arc;
use crate::sched::{DivergencePolicy, TrialScheduler, DEFAULT_DIVERGENCE_WINDOW};

/// Default state-graph generation budget for local STGs
/// ([`crate::EngineConfig::local_sg_budget`]).
pub(crate) const DEFAULT_LOCAL_SG_BUDGET: usize = 200_000;
/// Default maximum OR-causality recursion depth
/// ([`crate::EngineConfig::max_depth`]).
pub(crate) const DEFAULT_MAX_DEPTH: usize = 32;

/// Everything one relaxation run needs besides the local STG itself: the
/// oracle, the engine limits and the shared state-graph cache. One
/// instance is built per gate by the engine (or by the [`expand`] /
/// [`expand_with_order`] compatibility wrappers) and threaded through the
/// whole recursion.
pub(crate) struct ExpandCtx<'a> {
    /// Adversary-path oracle of the implementation STG.
    pub oracle: &'a AdversaryOracle,
    /// Arc-picking policy.
    pub order: RelaxationOrder,
    /// Relaxation-iteration budget for the gate.
    pub iteration_budget: usize,
    /// State budget per local state graph.
    pub sg_budget: usize,
    /// Maximum OR-causality recursion depth.
    pub max_depth: usize,
    /// Shared memoization cache for local state graphs.
    pub cache: &'a SgCache,
    /// Shared memoization cache for classification verdicts.
    pub conformance: &'a ConformanceCache,
    /// Whether each trial's state graph is derived incrementally from its
    /// predecessor's (the delta path) instead of regenerated from scratch.
    pub incremental: bool,
    /// Whether each trial's conformance sweep copies verdicts of states
    /// outside the affected cone from the predecessor's report
    /// ([`classify_states_from`]) instead of sweeping from scratch.
    pub incremental_classify: bool,
    /// Sliding-window length of the trial scheduler's contraction
    /// watchdog (0 disables the watchdog; the progress ledger still runs).
    pub divergence_window: usize,
    /// Whether the trial scheduler bails on detected divergence or lets
    /// the loop exhaust its iteration budget.
    pub divergence_policy: DivergencePolicy,
}

impl<'a> ExpandCtx<'a> {
    /// A context with the engine-default limits and private caches.
    pub fn with_defaults(
        oracle: &'a AdversaryOracle,
        order: RelaxationOrder,
        iteration_budget: usize,
        cache: &'a SgCache,
        conformance: &'a ConformanceCache,
    ) -> Self {
        Self {
            oracle,
            order,
            iteration_budget,
            sg_budget: DEFAULT_LOCAL_SG_BUDGET,
            max_depth: DEFAULT_MAX_DEPTH,
            cache,
            conformance,
            incremental: false,
            incremental_classify: false,
            divergence_window: DEFAULT_DIVERGENCE_WINDOW,
            // The compatibility wrappers (and through them the monolithic
            // `derive_timing_constraints`) keep the historical
            // exhaust-the-budget semantics: they are the differential
            // oracle the scheduler is measured against.
            divergence_policy: DivergencePolicy::Exhaust,
        }
    }

    /// Memoized local state-graph generation, recording cache traffic and
    /// exploration work into `out`.
    fn sg(
        &self,
        mg: &si_stg::MgStg,
        out: &mut ExpandOutcome,
    ) -> Result<Arc<StateGraph>, CoreError> {
        let (sg, hit) = self.cache.of_mg(mg, self.sg_budget)?;
        if hit {
            out.sg_cache_hits += 1;
        } else {
            out.sg_cache_misses += 1;
            out.states_explored += sg.state_count();
        }
        Ok(sg)
    }

    /// State graph of one relaxation trial: derived incrementally from the
    /// predecessor's graph when the engine enables it (and a predecessor
    /// is at hand), plain memoized generation otherwise. Output and errors
    /// are identical either way. The [`SgMap`] is `Some` exactly when the
    /// graph was freshly derived through the delta path — the
    /// correspondence incremental classification consumes, and the rows
    /// the next derivation from this graph starts from.
    fn sg_step(
        &self,
        parent: &si_stg::MgStg,
        parent_sg: Option<&Arc<StateGraph>>,
        parent_rows: Option<&SigmaRows>,
        mg: &si_stg::MgStg,
        out: &mut ExpandOutcome,
    ) -> Result<(Arc<StateGraph>, Option<SgMap>), CoreError> {
        let Some(psg) = parent_sg.filter(|_| self.incremental) else {
            return Ok((self.sg(mg, out)?, None));
        };
        let (sg, source, map) =
            self.cache
                .of_mg_from(parent, psg, parent_rows, mg, self.sg_budget)?;
        match source {
            SgSource::Structural => out.sg_cache_hits += 1,
            SgSource::Delta => {
                out.sg_cache_hits += 1;
                out.sg_delta_hits += 1;
            }
            SgSource::Incremental => {
                out.sg_cache_misses += 1;
                out.sg_inc_derived += 1;
                out.states_explored += sg.state_count();
            }
            SgSource::Scratch => {
                out.sg_cache_misses += 1;
                out.states_explored += sg.state_count();
            }
        }
        Ok((sg, map))
    }

    /// Classification of one trial, answered in preference order: the
    /// conformance cache (a repeated trial — skip the sweep entirely),
    /// verdict-copying from the predecessor's report when the incremental
    /// path is on and a fresh delta derivation supplied the correspondence
    /// ([`classify_states_from`]), or the scratch sweep. Output and errors
    /// are identical in all three. Fresh verdicts are stored back; errors
    /// never are.
    fn classify(
        &self,
        trial: &LocalStg,
        sg: &StateGraph,
        epre: &BTreeMap<usize, BTreeSet<TransitionLabel>>,
        relaxed: Option<usize>,
        prev: Option<(&ConformanceReport, &SgMap)>,
        out: &mut ExpandOutcome,
    ) -> Result<(RelaxationCase, ConformanceReport), CoreError> {
        let miss = match self.conformance.lookup(trial, epre, relaxed) {
            ConfLookup::Hit(case, report) => {
                out.conf_cache_hits += 1;
                return Ok((case, report));
            }
            ConfLookup::Miss(miss) => miss,
        };
        out.conf_cache_misses += 1;
        let (case, report) = match prev.filter(|_| self.incremental_classify) {
            Some((parent_report, map)) => {
                out.conf_inc_classified += 1;
                classify_states_from(trial, sg, epre, relaxed, parent_report, map)?
            }
            None => classify_states(trial, sg, epre, relaxed)?,
        };
        self.conformance.store(miss, case, &report);
        Ok((case, report))
    }
}

/// The policy picking which type-4 arc to relax next (thesis Sec. 5.5:
/// different orders can yield different constraint sets, Fig. 5.23).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RelaxationOrder {
    /// Tightest arc first: shortest adversary path, the thesis's policy
    /// for the weakest constraint set.
    #[default]
    TightestFirst,
    /// Naive textual order of arc labels — the ablation baseline.
    Lexicographic,
    /// Contraction first: prefer the arc whose relaxation inserts the
    /// fewest new bypass arcs into the MG (the best proxy for "does not
    /// grow the state graph" that needs no trial), tightness as the
    /// tie-break. Pairs with the trial scheduler: picking low-growth arcs
    /// first keeps converging gates converging and exposes true
    /// non-contraction sooner.
    ContractionFirst,
}

/// One step of the relaxation trace (the thesis Fig. 7.3 narrative).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// An arc was picked and relaxed, with the resulting case.
    Relaxed {
        /// The gate being expanded.
        gate: String,
        /// Rendered arc `x* => y*`.
        arc: String,
        /// The classification outcome (`1`–`4`, or `lagging`). A static
        /// tag: the hot loop pushes one of these per iteration and must
        /// not allocate for it.
        case: &'static str,
    },
    /// Case 2 accepted after additionally relaxing `x ⇒ o`.
    MadeConcurrentWithOutput {
        /// The gate being expanded.
        gate: String,
        /// The transition made concurrent with the output.
        transition: String,
    },
    /// An OR-causality decomposition produced sub-STGs.
    Decomposed {
        /// The gate being expanded.
        gate: String,
        /// Number of sub-STGs.
        parts: usize,
    },
    /// A case-4 constraint was emitted.
    ConstraintEmitted {
        /// The constraint, rendered.
        constraint: String,
    },
    /// A decomposition dead-end forced the conservative case-4 fallback.
    Fallback {
        /// The gate being expanded.
        gate: String,
        /// Why the fallback fired.
        reason: String,
    },
    /// The trial scheduler classified the relaxation loop as diverging
    /// and the gate bailed out.
    Diverged {
        /// The gate being expanded.
        gate: String,
        /// The rendered [`crate::DivergenceWitness`].
        witness: String,
    },
}

impl std::fmt::Display for TraceEvent {
    /// Stable one-line rendering, used by the golden conformance
    /// snapshots: changing it invalidates every checked-in golden file.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceEvent::Relaxed { gate, arc, case } => {
                write!(f, "relax [{gate}] {arc}: case {case}")
            }
            TraceEvent::MadeConcurrentWithOutput { gate, transition } => {
                write!(f, "concurrent-with-output [{gate}] {transition}")
            }
            TraceEvent::Decomposed { gate, parts } => {
                write!(f, "decompose [{gate}] into {parts} sub-STGs")
            }
            TraceEvent::ConstraintEmitted { constraint } => {
                write!(f, "constraint {constraint}")
            }
            TraceEvent::Fallback { gate, reason } => {
                write!(f, "fallback [{gate}] {reason}")
            }
            TraceEvent::Diverged { gate, witness } => {
                write!(f, "diverge [{gate}] {witness}")
            }
        }
    }
}

/// Accumulated result of expanding one or more local STGs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExpandOutcome {
    /// The derived relative timing constraints (`Rt` of Algorithm 4).
    pub constraints: BTreeSet<Constraint>,
    /// Relaxation trace for reporting.
    pub trace: Vec<TraceEvent>,
    /// Total relaxation iterations across all (sub-)STGs.
    pub iterations: usize,
    /// States actually generated (cache misses only) by local state-graph
    /// construction.
    pub states_explored: usize,
    /// Local state graphs answered from the shared cache.
    pub sg_cache_hits: usize,
    /// Local state graphs generated from scratch.
    pub sg_cache_misses: usize,
    /// Cache hits answered by the delta tier specifically (a subset of
    /// [`ExpandOutcome::sg_cache_hits`]).
    pub sg_delta_hits: usize,
    /// Cache misses answered by the incremental derivation instead of a
    /// scratch exploration (a subset of
    /// [`ExpandOutcome::sg_cache_misses`]).
    pub sg_inc_derived: usize,
    /// Classification verdicts answered from the conformance cache.
    pub conf_cache_hits: usize,
    /// Classification verdicts computed fresh (a sweep ran).
    pub conf_cache_misses: usize,
    /// Fresh verdicts computed by verdict-copying incremental
    /// classification instead of a scratch sweep (a subset of
    /// [`ExpandOutcome::conf_cache_misses`]).
    pub conf_inc_classified: usize,
    /// Distinct local-STG fingerprints the trial scheduler's progress
    /// ledger recorded (0 under [`DivergencePolicy::Exhaust`]).
    pub sched_fingerprints: usize,
    /// Gates aborted by the ledger's cycle detector (repeated σ-key with
    /// an unchanged guaranteed set).
    pub sched_cycle_bails: usize,
    /// Gates aborted by the contraction watchdog (a full window without a
    /// new strict minimum of the relaxable-arc count).
    pub sched_watchdog_bails: usize,
}

/// The state graph of the loop's current local STG, with what the next
/// trial derives from it: the graph's conformance report and, when the
/// graph came from a fresh delta derivation, its σ rows.
struct Prev {
    sg: Arc<StateGraph>,
    report: ConformanceReport,
    rows: Option<SigmaRows>,
}

impl Prev {
    /// A predecessor whose σ rows are unknown (the next derivation
    /// rebuilds them from the graph).
    fn without_rows((sg, report): (Arc<StateGraph>, ConformanceReport)) -> Self {
        Self {
            sg,
            report,
            rows: None,
        }
    }
}

fn atom(local: &LocalStg, label: TransitionLabel) -> ConstraintAtom {
    ConstraintAtom::from_label(label, &local.mg.signal_names())
}

fn gate_name(local: &LocalStg) -> String {
    local.mg.signal_name(local.ctx.output).to_string()
}

fn emit_constraint(local: &mut LocalStg, x: usize, y: usize, out: &mut ExpandOutcome) {
    let c = Constraint {
        gate: gate_name(local),
        before: atom(local, local.mg.label(x)),
        after: atom(local, local.mg.label(y)),
    };
    out.trace.push(TraceEvent::ConstraintEmitted {
        constraint: c.to_string(),
    });
    out.constraints.insert(c);
    local.mark_guaranteed(x, y);
}

/// Net bypass-arc count `relax_arc` would insert when relaxing `x ⇒ y`:
/// the preds(x) ⇒ y and x ⇒ succs(y) arcs not already present, minus the
/// removed arc itself. A cheap static proxy for how much the trial grows
/// the MG (and with it the local state graph) — computed without cloning
/// or relaxing anything.
fn relaxation_growth(mg: &si_stg::MgStg, x: usize, y: usize) -> i64 {
    let mut inserted = -1i64;
    for b in mg.preds(x) {
        if b != y && mg.arc(b, y).is_none() {
            inserted += 1;
        }
    }
    for d in mg.succs(y) {
        if d != x && mg.arc(x, d).is_none() {
            inserted += 1;
        }
    }
    inserted
}

/// The ordering key of a candidate arc: the policy's primary weight, then
/// the oracle's tightness key.
type ArcWeight = (i64, (bool, u32));

/// Picks the next arc to relax under the chosen policy (Sec. 5.5) from
/// the caller-supplied relaxable set; weight ties break by label text for
/// determinism.
fn find_next_arc(
    local: &LocalStg,
    arcs: &[(usize, usize)],
    oracle: &AdversaryOracle,
    order: RelaxationOrder,
) -> Option<(usize, usize)> {
    // Equivalent to `min_by_key` over `(weight, label_string(a),
    // label_string(b))`, but renders label text only on weight ties and
    // into reused buffers — this runs once per relaxation iteration over
    // every relaxable arc, so per-arc `String`s dominate otherwise.
    let mut best: Option<(ArcWeight, (usize, usize))> = None;
    let (mut best_a, mut best_b) = (String::new(), String::new());
    let (mut cand_a, mut cand_b) = (String::new(), String::new());
    for &(a, b) in arcs {
        let weight = match order {
            RelaxationOrder::TightestFirst => {
                (0, oracle.weight_key(local.mg.label(a), local.mg.label(b)))
            }
            RelaxationOrder::Lexicographic => (0, (false, 0)),
            RelaxationOrder::ContractionFirst => (
                relaxation_growth(&local.mg, a, b),
                oracle.weight_key(local.mg.label(a), local.mg.label(b)),
            ),
        };
        let better = match best {
            None => true,
            Some((best_weight, _)) => {
                if weight != best_weight {
                    weight < best_weight
                } else {
                    cand_a.clear();
                    cand_b.clear();
                    local.mg.write_label(a, &mut cand_a);
                    local.mg.write_label(b, &mut cand_b);
                    (cand_a.as_str(), cand_b.as_str()) < (best_a.as_str(), best_b.as_str())
                }
            }
        };
        if better {
            best_a.clear();
            best_b.clear();
            local.mg.write_label(a, &mut best_a);
            local.mg.write_label(b, &mut best_b);
            best = Some((weight, (a, b)));
        }
    }
    best.map(|(_, arc)| arc)
}

/// Expands one local STG to a fixpoint, accumulating constraints into
/// `out` (Algorithm 4). Sub-STGs from OR-causality decompositions are
/// processed recursively.
///
/// # Errors
///
/// [`CoreError::IterationBudgetExceeded`] when `budget` relaxation steps
/// are exhausted, plus any STG-level error.
pub fn expand(
    local: LocalStg,
    oracle: &AdversaryOracle,
    budget: usize,
    out: &mut ExpandOutcome,
) -> Result<(), CoreError> {
    expand_with_order(local, oracle, budget, RelaxationOrder::TightestFirst, out)
}

/// [`expand`] with an explicit relaxation-order policy (for the Sec. 5.5
/// ablation).
///
/// # Errors
///
/// Same as [`expand`].
pub fn expand_with_order(
    local: LocalStg,
    oracle: &AdversaryOracle,
    budget: usize,
    order: RelaxationOrder,
    out: &mut ExpandOutcome,
) -> Result<(), CoreError> {
    let cache = SgCache::disabled();
    let conf = ConformanceCache::disabled();
    let ctx = ExpandCtx::with_defaults(oracle, order, budget, &cache, &conf);
    expand_ctx(local, None, &ctx, out)
}

/// Expands one local STG under an explicit engine context — the entry
/// point the staged [`crate::Engine`] uses, sharing one cache across all
/// gates. `prev` is the state graph of `local.mg` plus its conformance
/// report if the caller already computed them (the conformance pre-check
/// does); the incremental paths seed their first delta derivation and
/// verdict copy from them.
pub(crate) fn expand_ctx(
    mut local: LocalStg,
    prev: Option<(Arc<StateGraph>, ConformanceReport)>,
    ctx: &ExpandCtx<'_>,
    out: &mut ExpandOutcome,
) -> Result<(), CoreError> {
    expand_at(&mut local, ctx, out, 0, prev.map(Prev::without_rows))
}

fn expand_at(
    local: &mut LocalStg,
    ctx: &ExpandCtx<'_>,
    out: &mut ExpandOutcome,
    depth: usize,
    prev: Option<Prev>,
) -> Result<(), CoreError> {
    let gate = gate_name(local);
    // One scheduler per loop instance: every decomposition sub-STG and
    // every fallback resume (each constraint emitted is progress) starts
    // with a fresh ledger and watchdog window.
    let mut sched = TrialScheduler::new(ctx.divergence_policy, ctx.divergence_window);
    // The arc label is rendered into this buffer, reused across
    // iterations; the trace clones it once, exact-size.
    let mut arc_text = String::new();
    // The state graph of the current `local.mg`, its conformance report
    // and σ rows, threaded through the loop so every trial regenerates —
    // and reclassifies — incrementally from its predecessor.
    let mut prev = prev;
    loop {
        out.iterations += 1;
        if out.iterations > ctx.iteration_budget {
            return Err(CoreError::IterationBudgetExceeded {
                gate,
                budget: ctx.iteration_budget,
            });
        }
        let arcs = local.relaxable_arcs();
        let Some((x, y)) = find_next_arc(local, &arcs, ctx.oracle, ctx.order) else {
            return Ok(());
        };
        arc_text.clear();
        local.mg.write_label(x, &mut arc_text);
        arc_text.push_str(" => ");
        local.mg.write_label(y, &mut arc_text);

        // The scheduler observes the *pre-trial* loop state; captured
        // here, consumed after classification so the trace still records
        // the iteration that tripped it. All inputs are cache- and
        // parallelism-independent, so a divergence verdict is identical
        // across the whole engine configuration matrix.
        let observed = (ctx.divergence_policy == DivergencePolicy::Bail).then(|| {
            (
                local.mg.sg_fingerprint(),
                local.guaranteed.len(),
                arcs.len(),
            )
        });

        // Epre is computed on the STG *before* this relaxation.
        let epre = prerequisite_sets(local);
        let mut trial = local.clone();
        relax_arc(&mut trial.mg, x, y)?;
        let (sg, map) = ctx.sg_step(
            &local.mg,
            prev.as_ref().map(|p| &p.sg),
            prev.as_ref().and_then(|p| p.rows.as_ref()),
            &trial.mg,
            out,
        )?;
        let prev_verdicts = prev.as_ref().map(|p| &p.report).zip(map.as_ref());
        let (case, report) = ctx.classify(&trial, &sg, &epre, Some(x), prev_verdicts, out)?;
        out.trace.push(TraceEvent::Relaxed {
            gate: gate.clone(),
            arc: arc_text.clone(),
            case: match case {
                RelaxationCase::Case1 => "1",
                RelaxationCase::Case2 => "2",
                RelaxationCase::Case3 => "3",
                RelaxationCase::Case4 => "4",
                RelaxationCase::LaggingOnly => "lagging",
            },
        });
        if let Some((fingerprint, guaranteed, relaxable)) = observed {
            if let Some(witness) = sched.observe(
                fingerprint,
                guaranteed,
                relaxable,
                &arc_text,
                sg.state_count(),
                out,
            ) {
                out.trace.push(TraceEvent::Diverged {
                    gate: gate.clone(),
                    witness: witness.to_string(),
                });
                return Err(CoreError::Diverged { gate, witness });
            }
        }

        match case {
            RelaxationCase::Case1 => {
                *local = trial;
                prev = Some(Prev {
                    sg,
                    report,
                    rows: map.map(|m| m.rows),
                });
            }
            RelaxationCase::Case4 => {
                emit_constraint(local, x, y, out);
            }
            RelaxationCase::Case2 => {
                let t_out = report.premature[0].1;
                // Try the plain arc modification first: make x concurrent
                // with the output transition.
                if trial.mg.arc(x, t_out).is_some_and(|a| !a.restriction) {
                    let mut modified = trial.clone();
                    relax_arc(&mut modified.mg, x, t_out)?;
                    let (sg2, map2) = ctx.sg_step(
                        &trial.mg,
                        Some(&sg),
                        map.as_ref().map(|m| &m.rows),
                        &modified.mg,
                        out,
                    )?;
                    let (case2, report2) = ctx.classify(
                        &modified,
                        &sg2,
                        &epre,
                        Some(x),
                        Some(&report).zip(map2.as_ref()),
                        out,
                    )?;
                    if case2 == RelaxationCase::Case1 {
                        out.trace.push(TraceEvent::MadeConcurrentWithOutput {
                            gate: gate.clone(),
                            transition: modified.mg.label_string(x),
                        });
                        *local = modified;
                        prev = Some(Prev {
                            sg: sg2,
                            report: report2,
                            rows: map2.map(|m| m.rows),
                        });
                        continue;
                    }
                    // OR-causality in case 2: decompose from the modified
                    // STG, with candidates judged on the SG before the
                    // modification (thesis Sec. 6.1.1).
                    match decompose(&trial, &sg, &modified, t_out, x, &epre)? {
                        Some(subs) => {
                            out.trace.push(TraceEvent::Decomposed {
                                gate: gate.clone(),
                                parts: subs.len(),
                            });
                            return recurse(subs, local, x, y, ctx, out, depth, prev);
                        }
                        None => {
                            out.trace.push(TraceEvent::Fallback {
                                gate: gate.clone(),
                                reason: "case-2 decomposition dead end".to_string(),
                            });
                            emit_constraint(local, x, y, out);
                        }
                    }
                } else {
                    // No x ⇒ o arc to relax: conservative fallback.
                    out.trace.push(TraceEvent::Fallback {
                        gate: gate.clone(),
                        reason: "case 2 without an x => o arc".to_string(),
                    });
                    emit_constraint(local, x, y, out);
                }
            }
            RelaxationCase::Case3 | RelaxationCase::LaggingOnly => {
                let t_out = match report.premature.first() {
                    Some(&(_, t)) => t,
                    None => match first_lagging_output(&trial, &sg, &report.lagging) {
                        Some(t) => t,
                        None => {
                            out.trace.push(TraceEvent::Fallback {
                                gate: gate.clone(),
                                reason: "lagging state without output transition".to_string(),
                            });
                            emit_constraint(local, x, y, out);
                            continue;
                        }
                    },
                };
                match decompose_case3(&trial, &sg, t_out, x, &epre)? {
                    Some(subs) => {
                        out.trace.push(TraceEvent::Decomposed {
                            gate: gate.clone(),
                            parts: subs.len(),
                        });
                        return recurse(subs, local, x, y, ctx, out, depth, prev);
                    }
                    None => {
                        out.trace.push(TraceEvent::Fallback {
                            gate: gate.clone(),
                            reason: "case-3 decomposition dead end".to_string(),
                        });
                        emit_constraint(local, x, y, out);
                    }
                }
            }
        }
    }
}

/// Recurses into sub-STGs; if any sub-STG is itself non-conformant the
/// whole decomposition is abandoned in favour of the case-4 constraint.
/// `prev` is the state graph of `local.mg` (with its conformance report
/// and σ rows), handed back to the loop when a fallback resumes it.
#[allow(clippy::too_many_arguments)]
fn recurse(
    subs: Vec<LocalStg>,
    local: &mut LocalStg,
    x: usize,
    y: usize,
    ctx: &ExpandCtx<'_>,
    out: &mut ExpandOutcome,
    depth: usize,
    prev: Option<Prev>,
) -> Result<(), CoreError> {
    if depth + 1 >= ctx.max_depth {
        out.trace.push(TraceEvent::Fallback {
            gate: gate_name(local),
            reason: "decomposition depth limit".to_string(),
        });
        emit_constraint(local, x, y, out);
        return expand_at(local, ctx, out, depth, prev);
    }
    // Verify conformance of each sub-STG before committing to them; keep
    // the graphs (and their reports) so each sub-expansion starts with its
    // predecessor known.
    let mut sub_sgs = Vec::with_capacity(subs.len());
    for sub in &subs {
        let sg = ctx.sg(&sub.mg, out)?;
        let rep = conformance(sub, &sg)?;
        if !rep.is_conformant() {
            out.trace.push(TraceEvent::Fallback {
                gate: gate_name(local),
                reason: "non-conformant sub-STG".to_string(),
            });
            emit_constraint(local, x, y, out);
            return expand_at(local, ctx, out, depth, prev);
        }
        sub_sgs.push((sg, rep));
    }
    for (mut sub, sub_prev) in subs.into_iter().zip(sub_sgs) {
        expand_at(
            &mut sub,
            ctx,
            out,
            depth + 1,
            Some(Prev::without_rows(sub_prev)),
        )?;
    }
    Ok(())
}

fn first_lagging_output(local: &LocalStg, sg: &StateGraph, lagging: &[usize]) -> Option<usize> {
    let o = local.ctx.output;
    for &s in lagging {
        for &(t, _) in &sg.edges[s] {
            if sg.label(t).signal == o {
                return Some(t);
            }
        }
    }
    None
}

/// Case-2 OR-causality decomposition: candidates from `sg_before` (the SG
/// before the `x ⇒ o` modification), sub-STGs built on `base` (after it).
fn decompose(
    before: &LocalStg,
    sg_before: &StateGraph,
    base: &LocalStg,
    t_out: usize,
    x: usize,
    epre: &BTreeMap<usize, BTreeSet<TransitionLabel>>,
) -> Result<Option<Vec<LocalStg>>, CoreError> {
    let empty = BTreeSet::new();
    let e = epre.get(&t_out).unwrap_or(&empty);
    let clauses = find_candidate_clauses(before, sg_before, t_out, e);
    if clauses.len() < 2 {
        return Ok(None);
    }
    let direction = before.mg.label(t_out).polarity;
    let mut cands = BTreeMap::new();
    for c in clauses {
        let set = find_candidate_transitions(before, c, t_out, x, direction);
        cands.insert(c, set);
    }
    let all: BTreeSet<usize> = cands.values().flatten().copied().collect();
    let init = initial_restrictions(base, &all);
    let solution = or_causality_decomposition(&cands, &init);
    if solution.is_empty() {
        return Ok(None);
    }
    Ok(Some(build_sub_stgs_case2(base, t_out, &solution, &cands)))
}

/// Case-3 OR-causality decomposition: candidates and sub-STGs both on the
/// current (relaxed) STG.
fn decompose_case3(
    local: &LocalStg,
    sg: &StateGraph,
    t_out: usize,
    x: usize,
    epre: &BTreeMap<usize, BTreeSet<TransitionLabel>>,
) -> Result<Option<Vec<LocalStg>>, CoreError> {
    let empty = BTreeSet::new();
    let e = epre.get(&t_out).unwrap_or(&empty);
    let clauses = find_candidate_clauses(local, sg, t_out, e);
    if clauses.len() < 2 {
        return Ok(None);
    }
    let direction = local.mg.label(t_out).polarity;
    let mut cands = BTreeMap::new();
    for c in clauses {
        let set = find_candidate_transitions(local, c, t_out, x, direction);
        cands.insert(c, set);
    }
    let all: BTreeSet<usize> = cands.values().flatten().copied().collect();
    let init = initial_restrictions(local, &all);
    let solution = or_causality_decomposition(&cands, &init);
    if solution.is_empty() {
        return Ok(None);
    }
    Ok(Some(build_sub_stgs_case3(local, t_out, &solution, &cands)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::GateContext;
    use si_boolean::{parse_eqn, GateLibrary};
    use si_stg::{parse_astg, MgStg};

    fn build(stg_text: &str, eqn: &str, gate: &str) -> (LocalStg, AdversaryOracle) {
        let stg = parse_astg(stg_text).expect("valid STG");
        let lib = GateLibrary::from_netlist(&parse_eqn(eqn).expect("valid EQN"));
        let ctx = GateContext::bind(lib.gate(gate).expect("gate exists"), &stg).expect("binds");
        let mg = MgStg::from_stg_mg(&stg).expect("marked graph");
        let local = crate::local::LocalStg::project_from(&mg, &ctx).expect("projects");
        (local, AdversaryOracle::new(&stg))
    }

    #[test]
    fn and_gate_relaxes_rising_order_keeps_cycle_boundary() {
        // o = x·y with x- triggering the fall. The rising-side ordering
        // x+ ⇒ y+ can be relaxed (an AND gate waits for both inputs), but
        // the cross-cycle ordering y- ⇒ x+ is load-bearing: if the next
        // cycle's x+ overtakes the previous cycle's y-, the gate sees
        // x·y = 1 and pulses early. Exactly one constraint must survive.
        let text = "\
.model and2
.inputs x y
.outputs o
.graph
x+ y+
y+ o+
o+ x-
x- o-
o- y-
y- x+
.marking { <y-,x+> }
.end
";
        let (local, oracle) = build(text, "o = x*y;", "o");
        let mut out = ExpandOutcome::default();
        expand(local, &oracle, 1000, &mut out).expect("expands");
        let rendered: Vec<String> = out.constraints.iter().map(|c| c.to_string()).collect();
        assert_eq!(rendered, vec!["o: y- < x+"]);
    }

    #[test]
    fn hazardous_handover_keeps_one_constraint() {
        // o = y + z holding 1 across the z+ ⇒ y- handover: the ordering is
        // load-bearing, expansion must emit exactly that constraint.
        let text = "\
.model handover
.inputs y z
.outputs o
.graph
z+ y-
y- z-
z- o-
o- y+
y+ o+
o+ z+
.marking { <o+,z+> }
.end
";
        let (local, oracle) = build(text, "o = y + z;", "o");
        let mut out = ExpandOutcome::default();
        expand(local, &oracle, 1000, &mut out).expect("expands");
        let rendered: Vec<String> = out.constraints.iter().map(|c| c.to_string()).collect();
        assert_eq!(rendered, vec!["o: z+ < y-"]);
    }

    #[test]
    fn or_causality_case3_decomposes_without_constraints() {
        // o = x + y with o+ triggered by x+; y+ overtaking is legitimate
        // OR-causality: the decomposition resolves it with no constraint.
        let text = "\
.model case3
.inputs x y
.outputs o
.graph
x+ o+
x+ y+
o+ x-
y+ x-
x- y-
y- o-
o- x+
.marking { <o-,x+> }
.end
";
        let (local, oracle) = build(text, "o = x + y;", "o");
        let mut out = ExpandOutcome::default();
        expand(local, &oracle, 1000, &mut out).expect("expands");
        assert!(
            out.trace
                .iter()
                .any(|e| matches!(e, TraceEvent::Decomposed { .. })),
            "expected a decomposition, trace: {:?}",
            out.trace
        );
        // x+ ⇒ y+ itself must not survive as a constraint; the sub-STG
        // processing may pin other orderings, but the OR race is free.
        assert!(
            !out.constraints
                .iter()
                .any(|c| c.to_string() == "o: x+ < y+"),
            "got {:?}",
            out.constraints
        );
    }

    #[test]
    fn iteration_budget_is_enforced() {
        let text = "\
.model and2
.inputs x y
.outputs o
.graph
x+ y+
y+ o+
o+ x-
x- o-
o- y-
y- x+
.marking { <y-,x+> }
.end
";
        let (local, oracle) = build(text, "o = x*y;", "o");
        let mut out = ExpandOutcome::default();
        let err = expand(local, &oracle, 1, &mut out);
        assert!(matches!(
            err,
            Err(CoreError::IterationBudgetExceeded { .. })
        ));
    }

    #[test]
    fn cached_expansion_matches_uncached_bit_for_bit() {
        let text = "\
.model and2
.inputs x y
.outputs o
.graph
x+ y+
y+ o+
o+ x-
x- o-
o- y-
y- x+
.marking { <y-,x+> }
.end
";
        let (local, oracle) = build(text, "o = x*y;", "o");
        let mut plain = ExpandOutcome::default();
        expand(local.clone(), &oracle, 1000, &mut plain).expect("expands");

        let cache = SgCache::new();
        let conf = ConformanceCache::disabled();
        let ctx =
            ExpandCtx::with_defaults(&oracle, RelaxationOrder::TightestFirst, 1000, &cache, &conf);
        let mut cached = ExpandOutcome::default();
        expand_ctx(local.clone(), None, &ctx, &mut cached).expect("expands");
        assert_eq!(plain.constraints, cached.constraints);
        assert_eq!(plain.trace, cached.trace);
        assert_eq!(plain.iterations, cached.iterations);

        // A second run over the same local STG is answered from the cache.
        let mut warm = ExpandOutcome::default();
        expand_ctx(local, None, &ctx, &mut warm).expect("expands");
        assert_eq!(plain.constraints, warm.constraints);
        assert!(warm.sg_cache_hits > 0, "warm run should hit: {warm:?}");
        assert_eq!(warm.sg_cache_misses, 0);
        assert_eq!(warm.states_explored, 0);
    }

    #[test]
    fn incremental_expansion_matches_plain_bit_for_bit() {
        let text = "\
.model and2
.inputs x y
.outputs o
.graph
x+ y+
y+ o+
o+ x-
x- o-
o- y-
y- x+
.marking { <y-,x+> }
.end
";
        let (local, oracle) = build(text, "o = x*y;", "o");
        let mut plain = ExpandOutcome::default();
        expand(local.clone(), &oracle, 1000, &mut plain).expect("expands");

        let cache = SgCache::new();
        let conf = ConformanceCache::disabled();
        let mut ctx =
            ExpandCtx::with_defaults(&oracle, RelaxationOrder::TightestFirst, 1000, &cache, &conf);
        ctx.incremental = true;
        let (prev, _) = cache.of_mg(&local.mg, ctx.sg_budget).expect("consistent");
        let rep = conformance(&local, &prev).expect("checks");
        let mut cold = ExpandOutcome::default();
        expand_ctx(
            local.clone(),
            Some((Arc::clone(&prev), rep.clone())),
            &ctx,
            &mut cold,
        )
        .expect("expands");
        assert_eq!(plain.constraints, cold.constraints);
        assert_eq!(plain.trace, cold.trace);
        assert_eq!(plain.iterations, cold.iterations);
        assert!(
            cold.sg_inc_derived > 0,
            "a cold incremental run must derive deltas: {cold:?}"
        );

        // A warm re-run of the same gate answers the edits from the delta
        // tier.
        let mut warm = ExpandOutcome::default();
        expand_ctx(local, Some((prev, rep)), &ctx, &mut warm).expect("expands");
        assert_eq!(plain.constraints, warm.constraints);
        assert_eq!(warm.sg_cache_misses, 0);
        assert!(
            warm.sg_delta_hits > 0,
            "a warm incremental run must hit the delta tier: {warm:?}"
        );
    }

    #[test]
    fn incremental_classification_matches_plain_bit_for_bit() {
        let text = "\
.model and2
.inputs x y
.outputs o
.graph
x+ y+
y+ o+
o+ x-
x- o-
o- y-
y- x+
.marking { <y-,x+> }
.end
";
        let (local, oracle) = build(text, "o = x*y;", "o");
        let mut plain = ExpandOutcome::default();
        expand(local.clone(), &oracle, 1000, &mut plain).expect("expands");

        let cache = SgCache::new();
        let conf = ConformanceCache::new();
        let mut ctx =
            ExpandCtx::with_defaults(&oracle, RelaxationOrder::TightestFirst, 1000, &cache, &conf);
        ctx.incremental = true;
        ctx.incremental_classify = true;
        let (prev, _) = cache.of_mg(&local.mg, ctx.sg_budget).expect("consistent");
        let rep = conformance(&local, &prev).expect("checks");
        let mut cold = ExpandOutcome::default();
        expand_ctx(
            local.clone(),
            Some((Arc::clone(&prev), rep.clone())),
            &ctx,
            &mut cold,
        )
        .expect("expands");
        assert_eq!(plain.constraints, cold.constraints);
        assert_eq!(plain.trace, cold.trace);
        assert_eq!(plain.iterations, cold.iterations);
        assert!(
            cold.conf_inc_classified > 0,
            "a cold run must reclassify through verdict copying: {cold:?}"
        );

        // A warm re-run answers every verdict from the conformance cache —
        // no sweep at all.
        let mut warm = ExpandOutcome::default();
        expand_ctx(local, Some((prev, rep)), &ctx, &mut warm).expect("expands");
        assert_eq!(plain.constraints, warm.constraints);
        assert_eq!(plain.trace, warm.trace);
        assert!(
            warm.conf_cache_hits > 0,
            "a warm run must hit the conformance cache: {warm:?}"
        );
        assert_eq!(warm.conf_cache_misses, 0);
        assert_eq!(warm.conf_inc_classified, 0);
    }

    #[test]
    fn c_element_needs_no_constraints() {
        let text = "\
.model celem
.inputs a b
.outputs c
.graph
a+ c+
b+ c+
c+ a- b-
a- c-
b- c-
c- a+ b+
.marking { <c-,a+> <c-,b+> }
.end
";
        let (local, oracle) = build(text, "c = a*b + a*c + b*c;", "c");
        let mut out = ExpandOutcome::default();
        expand(local, &oracle, 1000, &mut out).expect("expands");
        assert!(out.constraints.is_empty());
    }
}
