//! Criterion benches for the substrates: state-graph generation, MG
//! decomposition, projection and arc relaxation (each ending in the
//! redundant-arc sweep), two-level minimization and the event simulator.

use criterion::{criterion_group, criterion_main, Criterion};
use si_sim::{simulate, DelayModel};
use si_stg::{MgStg, StateGraph};

fn bench_state_graph(c: &mut Criterion) {
    let stg = si_stg::parse_astg(si_stg::IMEC_RAM_READ_SBUF_G).expect("valid");
    c.bench_function("state_graph/imec-ram-read-sbuf", |b| {
        b.iter(|| {
            StateGraph::of_stg(&stg, 1_000_000)
                .expect("consistent")
                .state_count()
        })
    });
}

fn bench_projection(c: &mut Criterion) {
    let stg = si_stg::parse_astg(si_stg::IMEC_RAM_READ_SBUF_G).expect("valid");
    let mg = MgStg::from_stg_mg(&stg).expect("marked graph");
    let i0 = stg.signal_by_name("i0").expect("declared");
    let pre = stg.signal_by_name("precharged").expect("declared");
    let wenin = stg.signal_by_name("wenin").expect("declared");
    c.bench_function("projection/imec-gate-i0", |b| {
        b.iter(|| mg.project_on_gate(i0, &[pre, wenin]).expect("projects"))
    });
}

/// Algorithm 2 on its own: one iteration clones the graph and relaxes one
/// arc, cycling through every relaxable arc, so the redundant-arc sweep
/// that ends each relaxation dominates. Measured on the gate-i0 local STG
/// (what the relaxation loop sees) and on the whole imec marked graph
/// (a larger sweep).
fn bench_relax_arc(c: &mut Criterion) {
    let stg = si_stg::parse_astg(si_stg::IMEC_RAM_READ_SBUF_G).expect("valid");
    let mg = MgStg::from_stg_mg(&stg).expect("marked graph");
    let i0 = stg.signal_by_name("i0").expect("declared");
    let pre = stg.signal_by_name("precharged").expect("declared");
    let wenin = stg.signal_by_name("wenin").expect("declared");
    let local = mg.project_on_gate(i0, &[pre, wenin]).expect("projects");
    let mut group = c.benchmark_group("relax_arc");
    for (name, g) in [("imec-gate-i0", &local), ("imec-ram-read-sbuf", &mg)] {
        let arcs: Vec<(usize, usize)> = g
            .arcs()
            .filter(|&((a, b), attr)| !attr.restriction && !g.label(a).same_signal(&g.label(b)))
            .map(|(k, _)| k)
            .collect();
        let mut next = 0usize;
        group.bench_function(name, |b| {
            b.iter(|| {
                let (x, y) = arcs[next % arcs.len()];
                next += 1;
                let mut trial = g.clone();
                si_core::relax_arc(&mut trial, x, y).is_ok()
            })
        });
    }
    group.finish();
}

fn bench_decomposition(c: &mut Criterion) {
    let stg = si_suite::benchmark("nowick")
        .expect("bundled")
        .stg()
        .unwrap_or_else(|e| panic!("benchmark `nowick` failed to load: {e}"));
    c.bench_function("hack_decomposition/nowick", |b| {
        b.iter(|| stg.mg_components(4096).expect("free choice").len())
    });
}

fn bench_minimization(c: &mut Criterion) {
    // Exact QM on a 6-variable majority-of-three-pairs function.
    let n = 6usize;
    let f = |s: u64| {
        let pairs = [(0, 1), (2, 3), (4, 5)];
        pairs
            .iter()
            .filter(|&&(a, b)| (s >> a) & 1 == 1 && (s >> b) & 1 == 1)
            .count()
            >= 2
    };
    let on: Vec<u64> = (0..(1u64 << n)).filter(|&s| f(s)).collect();
    c.bench_function("qm_irredundant_cover/6var", |b| {
        b.iter(|| si_boolean::irredundant_cover(&on, &[], n))
    });
}

fn bench_simulation(c: &mut Criterion) {
    let (stg, library) = si_suite::benchmark("fifo")
        .expect("bundled")
        .circuit()
        .unwrap_or_else(|e| panic!("benchmark `fifo` failed to load: {e}"));
    let delays = DelayModel::uniform(40.0, 2.0, 80.0);
    c.bench_function("event_sim/fifo-200-transitions", |b| {
        b.iter(|| {
            simulate(&stg, &library, &delays, 200)
                .expect("simulates")
                .fired
        })
    });
}

fn bench_synthesis(c: &mut Criterion) {
    let stg = si_stg::parse_astg(si_stg::IMEC_RAM_READ_SBUF_G).expect("valid");
    let mut group = c.benchmark_group("synthesis");
    group.sample_size(10);
    group.bench_function("imec-ram-read-sbuf", |b| {
        b.iter(|| {
            si_synth::synthesize(&stg, 1_000_000)
                .expect("CSC")
                .gates
                .len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_state_graph,
    bench_projection,
    bench_relax_arc,
    bench_decomposition,
    bench_minimization,
    bench_simulation,
    bench_synthesis
);
criterion_main!(benches);
