//! `perfbench` — the repository benchmark: Table 7.2 suite cold and warm
//! and a seeded 1000-circuit corpus, measured end to end (`--trace 0`)
//! and per layer (`--trace 1`). See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <suite-cold|suite-warm|corpus-cold> --seed <n>
//!           --seconds <s> --trace <0|1> [--offset <k>]
//! perfbench --write-reference
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! carries the run context. Exit codes: 0 every output matched its
//! reference, 1 some output did not, 2 usage or set-up error.

mod bench;
mod check;
mod corpus;
mod json;
mod placement;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use bench::{Args, Metric, Timed, Traced, Workload};
use json::Json;

const USAGE: &str = "\
usage: perfbench --workload <suite-cold|suite-warm|corpus-cold> --seed <n>
                 --seconds <s> --trace <0|1> [--offset <k>]
       perfbench --write-reference
";

/// Set-up repetitions in child processes, on top of the run's own.
const SETUP_PROBES: usize = 16;

enum Mode {
    Run(Args),
    WriteReference,
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut offset = 0;
    let mut setup_probe = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} expects a value"))
                .cloned()
        };
        let bad = |v: &str| format!("bad {arg} value `{v}`");
        match arg.as_str() {
            "--write-reference" => return Ok(Mode::WriteReference),
            "--setup-probe" => setup_probe = true,
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or_else(|| bad(&v))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--offset" => {
                let v = value()?;
                offset = v.parse().map_err(|_| bad(&v))?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Mode::Run(Args {
        workload,
        seed,
        seconds,
        trace,
        offset,
        setup_probe,
    }))
}

enum Prepared {
    Suite(Box<suite::Suite>),
    Corpus(corpus::Corpus),
}

impl Prepared {
    fn setup(args: &Args) -> Result<Self, String> {
        Ok(match args.workload {
            Workload::SuiteCold => Prepared::Suite(Box::new(suite::setup(args, false)?)),
            Workload::SuiteWarm => Prepared::Suite(Box::new(suite::setup(args, true)?)),
            Workload::CorpusCold => Prepared::Corpus(corpus::setup(args)?),
        })
    }

    fn timed(&mut self, args: &Args) -> Timed {
        match self {
            Prepared::Suite(s) => s.timed(args),
            Prepared::Corpus(c) => c.timed(args),
        }
    }

    fn traced(&mut self, args: &Args) -> Traced {
        match self {
            Prepared::Suite(s) => s.traced(args),
            Prepared::Corpus(c) => c.traced(args),
        }
    }

    fn shards(&self) -> usize {
        match self {
            Prepared::Suite(_) => 1,
            Prepared::Corpus(_) => corpus::SHARDS,
        }
    }
}

/// Re-runs the set-up in `SETUP_PROBES` fresh processes, one after the
/// other, and returns their set-up times in seconds.
fn setup_probes(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    (0..SETUP_PROBES)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--workload", args.workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--offset", &args.offset.to_string()])
                .arg("--setup-probe")
                .output()
                .map_err(|e| format!("cannot run set-up probe: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            match text.trim().parse::<f64>() {
                Ok(s) if out.status.success() => Ok(s),
                _ => Err(format!(
                    "set-up probe failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                )),
            }
        })
        .collect()
}

fn out_dir() -> PathBuf {
    check::bench_dir().join("out")
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

fn run(args: &Args, started: Instant) -> Result<ExitCode, String> {
    let mut prepared = Prepared::setup(args)?;
    let setup_s = started.elapsed().as_secs_f64();
    if args.setup_probe {
        println!("{setup_s}");
        return Ok(ExitCode::SUCCESS);
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut context = vec![
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Int(args.seed)),
        ("offset", Json::Int(args.offset)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Int(nproc as u64)),
        ("shards", Json::Int(prepared.shards() as u64)),
        ("profile", Json::str(profile)),
    ];
    let (attempted, failed, metrics, counters_ok) = if args.trace {
        let tr = prepared.traced(args);
        let layers = tr.recorder.busy_and_self_ms();
        let passes = tr.passes.len() as f64;
        context.extend([
            ("traced_passes", Json::Int(tr.passes.len() as u64)),
            ("traced_cps", Json::Num(stats::median(&tr.traced_cps))),
            ("untraced_cps", Json::Num(stats::median(&tr.untraced_cps))),
            ("trace_overhead_pct", Json::Num(tr.overhead_pct())),
            ("counters_repeat", Json::Bool(tr.counters_repeat())),
            ("counters", tr.counters_json()),
            (
                "span_ms_per_pass",
                Json::obj(layers.into_iter().map(|(name, (busy, own))| {
                    (
                        name,
                        Json::obj([
                            ("busy", Json::Num(busy / passes)),
                            ("self", Json::Num(own / passes)),
                        ]),
                    )
                })),
            ),
        ]);
        let spans = out_dir().join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        tr.recorder
            .write_jsonl(&spans)
            .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
        (
            tr.attempted,
            tr.failed,
            tr.per_layer(),
            tr.counters_repeat(),
        )
    } else {
        let timed = prepared.timed(args);
        let peak_rss_mb = stats::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
        drop(prepared);
        let mut setups = setup_probes(args)?;
        setups.push(setup_s);
        context.extend([
            ("throughput_passes", Json::Int(timed.pass_cps.len() as u64)),
            (
                "throughput_cps_min_max",
                Json::obj([
                    ("min", Json::Num(stats::quantile(&timed.pass_cps, 0.0))),
                    ("max", Json::Num(stats::quantile(&timed.pass_cps, 1.0))),
                ]),
            ),
            (
                "verdict_samples",
                Json::Int(timed.latencies_ms.len() as u64),
            ),
            ("setup_samples", Json::Int(setups.len() as u64)),
            (
                "failed_ratio",
                Json::Num(stats::ratio(timed.failed as f64, timed.attempted as f64)),
            ),
        ]);
        let metrics = timed.end_to_end(stats::median(&setups), peak_rss_mb);
        (timed.attempted, timed.failed, metrics, true)
    };
    let correct = failed == 0 && counters_ok;
    let context = Json::obj([("context", Json::obj(context))]).render();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as u64)),
        ("failed", Json::Int(failed as u64)),
        ("metrics", metrics_json(&metrics)),
    ])
    .render();
    let row = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&row, format!("{context}\n{result}\n")))
        .map_err(|e| format!("cannot write {}: {e}", row.display()))?;
    println!("{context}");
    println!("{result}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&argv) {
        Ok(Mode::Run(args)) => run(&args, started),
        Ok(Mode::WriteReference) => corpus::write_reference().map(|msg| {
            println!("{msg}");
            ExitCode::SUCCESS
        }),
        Err(e) => {
            eprint!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}
