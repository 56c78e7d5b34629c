//! The repository's benchmark. `benchmark/README.md` is the manual;
//! `BENCHMARK.json` at the repository root is the contract.
//!
//! ```text
//! effpi-benchmark --workload W --seed N --seconds S --trace 0|1
//!         the driver's form: one run of one workload; the result object is
//!         the last line of output
//! effpi-benchmark run     [--seed N] [--out FILE]
//!         every workload untraced, three times each, checked; writes a record
//! effpi-benchmark trace   [--seed N] [--out FILE]
//!         the traced run: per-layer metrics, spans, self-time table
//! effpi-benchmark compare BASE.json NEW.json
//!         applies the bounds to two `run` records
//! ```

mod check;
mod compare;
mod contract;
mod layers;
mod proc;
mod replay;
mod specs;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use wire::flags::{parse_flag, string_flag};
use wire::Json;

use contract::Contract;
use layers::Traced;
use workloads::{Ctx, Tally};

/// Runs of each workload in a `run`, on consecutive seeds: enough for
/// `compare` to see each side's own spread.
const REPEAT: u64 = 3;

const USAGE: &str = "\
usage: effpi-benchmark --workload W --seed N --seconds S --trace 0|1
       effpi-benchmark run     [--seed N] [--out FILE]
       effpi-benchmark trace   [--seed N] [--out FILE]
       effpi-benchmark compare BASE.json NEW.json";

/// The repository root: this package lives in `benchmark/` beside `crates/`.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
        .to_path_buf()
}

/// Builds the product and gathers what every run needs. The process moves
/// to the repository root so that every path it hands out — spec files, the
/// daemon's socket (whose length the kernel bounds) — is short and relative.
fn context() -> Result<(Ctx, Contract), String> {
    // Cargo resolves a relative CARGO_TARGET_DIR against the directory it
    // was started from; do the same before leaving that directory.
    let target_dir = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(dir),
        None => root().join("target"),
    };
    std::env::set_current_dir(root()).map_err(|e| format!("{}: {e}", root().display()))?;
    let contract = Contract::load(Path::new("BENCHMARK.json"))?;
    let out = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let ctx = Ctx {
        product: proc::Product::build(Path::new("."), &target_dir).map_err(|e| e.to_string())?,
        out,
        expected: check::Expected::load(Path::new("benchmark/expected.json"))?,
        par_jobs: std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(4),
    };
    Ok((ctx, contract))
}

/// Refuses a flag a subcommand does not take: a mistyped or retired one must
/// not be dropped in silence and the run go on without it. (The driver's form
/// needs no such check: all four of its flags are required.)
fn only_flags(args: &[String], allowed: &[&str]) -> Result<(), String> {
    match args
        .iter()
        .find(|arg| arg.starts_with("--") && !allowed.contains(&arg.as_str()))
    {
        Some(unknown) => Err(format!("unexpected {unknown}\n{USAGE}")),
        None => Ok(()),
    }
}

/// The result object the contract asks for as the last line of output.
fn result_line(contract: &Contract, tally: &Tally, metrics: &BTreeMap<&'static str, f64>) -> Json {
    let metrics = metrics.iter().map(|(name, value)| {
        let unit = contract.metric(name).map_or("", |m| m.unit.as_str());
        (
            name.to_string(),
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn print_failures(tally: &Tally) {
    for reason in &tally.reasons {
        println!("FAILED: {reason}");
    }
    println!(
        "attempted {}, failed {} (failed_share {:.6})",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
}

/// One metric by name, with its unit, what is behind it, and its bound.
fn print_metric(contract: &Contract, label: &str, name: &str, value: f64, detail: &str) {
    let def = contract.metric(name);
    let unit = def.map_or("", |m| m.unit.as_str());
    let bound = match def.and_then(|m| m.bound) {
        Some(bound) => format!("may worsen {:.0}%", bound * 100.0),
        None => String::new(),
    };
    println!("{label:<34} {value:>16.4} {unit:<6} {detail:<22} {bound}");
}

/// One untraced run, printed: the metrics defined on the workload, then the
/// stand-ins the result object carries for the driver (see
/// [`workloads::END_TO_END`]).
fn untraced(
    ctx: &Ctx,
    contract: &Contract,
    workload: &str,
    seed: u64,
    seconds: u64,
) -> Result<(Tally, BTreeMap<&'static str, f64>), String> {
    println!("== {workload} (seed {seed}, {seconds} s, tracing off)");
    let outcome = workloads::run(ctx, workload, seed, seconds).map_err(|e| e.to_string())?;
    for note in &outcome.notes {
        println!("{note}");
    }
    let (defined, stand_ins): (Vec<_>, Vec<_>) = outcome
        .metrics
        .iter()
        .partition(|(name, _)| workloads::defined_on(name, workload));
    for (name, measured) in defined {
        let samples = format!("({} samples)", measured.samples);
        print_metric(contract, name, name, measured.value, &samples);
    }
    for (name, measured) in stand_ins {
        println!(
            "{name:<34} {:>16.4} stand-in: not defined on {workload}",
            measured.value
        );
    }
    print_failures(&outcome.tally);
    let values = outcome
        .metrics
        .iter()
        .map(|(name, m)| (*name, m.value))
        .collect();
    Ok((outcome.tally, values))
}

/// The parts of a traced run, in order: what is common to every workload,
/// then the pass of each serve workload among `workloads`.
fn traced_parts(
    ctx: &Ctx,
    workloads: &[String],
    seed: u64,
) -> Result<Vec<(String, Traced)>, String> {
    let (common, cli_lines) = layers::common(ctx, seed).map_err(|e| e.to_string())?;
    let mut parts = vec![("common".to_string(), common)];
    for workload in workloads.iter().filter(|w| w.starts_with("serve_")) {
        let pass =
            layers::serve_pass(ctx, workload, seed, &cli_lines).map_err(|e| e.to_string())?;
        parts.push((workload.clone(), pass));
    }
    Ok(parts)
}

/// One part of a traced run, printed; its spans go to
/// `benchmark/out/trace.jsonl`.
fn print_traced(
    contract: &Contract,
    label: &str,
    traced: &Traced,
    spans: &mut impl std::io::Write,
) -> Result<(), String> {
    println!("== {label} (tracing on)");
    traced
        .recorder
        .write_jsonl(spans, label)
        .map_err(|e| e.to_string())?;
    for line in layers::self_time_table(&traced.recorder) {
        println!("{line}");
    }
    for note in &traced.notes {
        println!("{note}");
    }
    for (name, value) in &traced.metrics {
        print_metric(contract, name, name, *value, "");
    }
    print_failures(&traced.tally);
    Ok(())
}

fn spans_file(ctx: &Ctx) -> Result<std::io::BufWriter<std::fs::File>, String> {
    let path = ctx.out.join("trace.jsonl");
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(std::io::BufWriter::new(file))
}

/// The driver's entry point: one workload, one seed, the result object as
/// the last line. It holds every end-to-end metric (`--trace 0`) or every
/// per-layer metric (`--trace 1`), as the driver's contract wants.
fn driver(args: &[String]) -> Result<ExitCode, String> {
    let workload = string_flag(args, "--workload")?.ok_or("missing --workload")?;
    let seed = parse_flag(args, "--seed")?.ok_or("missing --seed")? as u64;
    let seconds = parse_flag(args, "--seconds")?.ok_or("missing --seconds")? as u64;
    let trace = parse_flag(args, "--trace")?.ok_or("missing --trace")?;
    let (ctx, contract) = context()?;
    if !contract.workloads.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let (tally, metrics) = if trace == 0 {
        untraced(&ctx, &contract, &workload, seed, seconds)?
    } else {
        let mut spans = spans_file(&ctx)?;
        let mut tally = Tally::default();
        // No daemon runs in a CLI workload: its cache saw no traffic.
        let mut metrics: BTreeMap<&'static str, f64> =
            layers::PER_PASS.iter().map(|name| (*name, 0.0)).collect();
        for (label, part) in traced_parts(&ctx, std::slice::from_ref(&workload), seed)? {
            print_traced(&contract, &label, &part, &mut spans)?;
            metrics.extend(part.metrics);
            tally.merge(part.tally);
        }
        spans.flush().map_err(|e| e.to_string())?;
        (tally, metrics)
    };
    println!("{}", result_line(&contract, &tally, &metrics));
    Ok(ExitCode::SUCCESS)
}

/// Where and on what a record was taken.
fn machine() -> Json {
    let first_line = |command: &mut Command| {
        command
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .and_then(|text| text.lines().next().map(String::from))
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("cpu", Json::str(cpu)),
        (
            "rustc",
            Json::str(first_line(Command::new("rustc").arg("--version"))),
        ),
        (
            "commit",
            Json::str(first_line(Command::new("git").args(["rev-parse", "HEAD"]))),
        ),
    ])
}

/// Values of one workload across the runs of a `run`, or of one part of a
/// `trace`.
#[derive(Default)]
struct Gathered {
    attempted: u64,
    failed: u64,
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl Gathered {
    fn add(&mut self, tally: &Tally, metrics: BTreeMap<&'static str, f64>) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        for (name, value) in metrics {
            self.values.entry(name).or_default().push(value);
        }
    }

    fn json(&self, contract: &Contract) -> Json {
        let metrics = self.values.iter().map(|(name, values)| {
            let unit = contract.metric(name).map_or("", |m| m.unit.as_str());
            (
                name.to_string(),
                Json::obj([
                    ("unit", Json::str(unit)),
                    ("median", Json::Num(stats::median(values))),
                    (
                        "values",
                        Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                    ),
                ]),
            )
        });
        Json::obj([
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Writes a record: of a `run`, the values by workload; of a `trace`, by
/// part (`common`, then each serve workload's pass).
fn write_record(
    path: &Path,
    kind: &str,
    seed: u64,
    fields: Vec<(&str, Json)>,
    (grouped_by, groups): (&str, &BTreeMap<String, Gathered>),
    contract: &Contract,
) -> Result<(), String> {
    let mut all = vec![
        ("kind", Json::str(kind)),
        ("seed", Json::Num(seed as f64)),
        ("machine", machine()),
        (
            grouped_by,
            Json::obj(
                groups
                    .iter()
                    .map(|(name, gathered)| (name.clone(), gathered.json(contract))),
            ),
        ),
    ];
    all.extend(fields);
    std::fs::write(path, format!("{}\n", Json::obj(all)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("record written to {}", path.display());
    Ok(())
}

/// `run`: every workload, untraced, [`REPEAT`] times on consecutive seeds,
/// for as long as `BENCHMARK.json` says a run measures.
fn run(args: &[String]) -> Result<ExitCode, String> {
    only_flags(args, &["--seed", "--out"])?;
    let seed = parse_flag(args, "--seed")?.unwrap_or(1) as u64;
    let (ctx, contract) = context()?;
    let seconds = contract.run_seconds;
    let out = string_flag(args, "--out")?
        .map_or_else(|| ctx.out.join(format!("run-{seed}.json")), PathBuf::from);
    let mut gathered: BTreeMap<String, Gathered> = BTreeMap::new();
    for workload in &contract.workloads {
        for round in 0..REPEAT {
            let (tally, mut metrics) = untraced(&ctx, &contract, workload, seed + round, seconds)?;
            metrics.retain(|name, _| workloads::defined_on(name, workload));
            gathered
                .entry(workload.clone())
                .or_default()
                .add(&tally, metrics);
        }
    }
    println!("== medians of {REPEAT} runs per workload");
    for (workload, gathered) in &gathered {
        for (name, values) in &gathered.values {
            let (label, runs) = (
                format!("{workload} {name}"),
                format!("({} runs)", values.len()),
            );
            print_metric(&contract, &label, name, stats::median(values), &runs);
        }
        println!(
            "{:<34} {:>16.6} ratio  ({} of {} operations)",
            format!("{workload} failed_share"),
            gathered.failed as f64 / gathered.attempted as f64,
            gathered.failed,
            gathered.attempted
        );
    }
    let fields = vec![
        ("seconds", Json::Num(seconds as f64)),
        ("repeat", Json::Num(REPEAT as f64)),
    ];
    write_record(
        &out,
        "run",
        seed,
        fields,
        ("workloads", &gathered),
        &contract,
    )?;
    let failed: u64 = gathered.values().map(|g| g.failed).sum();
    println!("failed operations: {failed}");
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `trace`: the traced run — the common part once, then each serve
/// workload's pass.
fn trace(args: &[String]) -> Result<ExitCode, String> {
    only_flags(args, &["--seed", "--out"])?;
    let seed = parse_flag(args, "--seed")?.unwrap_or(1) as u64;
    let (ctx, contract) = context()?;
    let out = string_flag(args, "--out")?
        .map_or_else(|| ctx.out.join(format!("trace-{seed}.json")), PathBuf::from);
    let mut spans = spans_file(&ctx)?;
    let mut gathered: BTreeMap<String, Gathered> = BTreeMap::new();
    for (label, part) in traced_parts(&ctx, &contract.workloads, seed)? {
        print_traced(&contract, &label, &part, &mut spans)?;
        gathered
            .entry(label)
            .or_default()
            .add(&part.tally, part.metrics);
    }
    spans.flush().map_err(|e| e.to_string())?;
    write_record(
        &out,
        "trace",
        seed,
        Vec::new(),
        ("parts", &gathered),
        &contract,
    )?;
    let failed: u64 = gathered.values().map(|g| g.failed).sum();
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let (Some(base), Some(new)) = (args.get(1), args.get(2)) else {
        return Err(USAGE.to_string());
    };
    let contract = Contract::load(&root().join("BENCHMARK.json"))?;
    Ok(if compare::run(&contract, base, new)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args),
        Some("trace") => trace(&args),
        Some("compare") => compare(&args),
        Some("replay-one") => return replay::main(&args),
        Some(flag) if flag.starts_with("--") => driver(&args),
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("effpi-benchmark: {e}");
        ExitCode::from(2)
    })
}
