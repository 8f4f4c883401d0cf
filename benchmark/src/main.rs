//! The repo benchmark. From the repo root:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 7
//! ```
//!
//! runs every workload (each in its own process), checks every output and
//! prints every metric by name with its unit. `--workload <name>` runs one
//! workload in this process and ends its output with the one-line JSON
//! result `../BENCHMARK.json` describes. See `README.md`.

mod compare;
mod exec_trace;
mod layers;
mod metrics;
mod plan;
mod record;
mod spans;
mod stats;
mod train;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use record::{Header, RunRecord, SetRecord, WorkloadRecord};
use spans::SpanLog;
use stats::{summarize, Summary};
use train::{Scratch, TrainSpec, SPECS};

/// `run_seconds` of `../BENCHMARK.json`: how long one run measures when
/// `--seconds` is not given.
const RUN_SECONDS: u64 = 20;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Environment variables that silently change what is measured.
const FORBIDDEN_ENV: [&str; 4] = [
    "PIPEBD_POOL",
    "PIPEBD_KERNEL_POLICY",
    "PIPEBD_SIMD",
    "PIPEBD_TRACE",
];

const USAGE: &str = "\
usage: pipebd_benchmark [--seed N] [--seconds S] [--quick]
           [--workload NAME --trace 0|1]      one workload, in this process
           [--runs N] [--out FILE]            every workload, N untraced runs each
       pipebd_benchmark --compare A.json B.json
workloads: tr_compress split_nas thin_wide ckpt_recover plan_sweep";

#[derive(Debug)]
struct Args {
    seed: u64,
    seconds: u64,
    quick: bool,
    workload: Option<String>,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 7,
        seconds: RUN_SECONDS,
        quick: false,
        workload: None,
        trace: false,
        runs: 1,
        out: None,
        compare: None,
    };
    let mut it = argv.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => {
                args.seed = value(flag, &mut it)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value(flag, &mut it)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            "--runs" => {
                args.runs = value(flag, &mut it)?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&args.runs) {
                    return Err("--runs must be between 1 and 100".into());
                }
            }
            "--trace" => {
                args.trace = match value(flag, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                };
            }
            "--workload" => {
                let name = value(flag, &mut it)?;
                if !WORKLOADS.iter().any(|(w, _)| *w == name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                args.workload = Some(name);
            }
            "--out" => args.out = Some(PathBuf::from(value(flag, &mut it)?)),
            "--quick" => args.quick = true,
            "--compare" => {
                let a = PathBuf::from(value(flag, &mut it)?);
                let b = PathBuf::from(value(flag, &mut it)?);
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

fn header(args: &Args) -> Header {
    let git = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(bench_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".into());
    Header {
        seed: args.seed,
        run_seconds: args.seconds,
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
        simd_tier: pipebd_tensor::simd_tier().to_string(),
        kernel_policy: pipebd_tensor::kernel_policy().to_string(),
        git_revision: git,
        comparable: !args.quick,
    }
}

fn print_header(h: &Header) {
    println!(
        "pipebd benchmark: seed {}  run_seconds {}  nproc {}  simd tier {}  kernel policy {}  git {}",
        h.seed, h.run_seconds, h.nproc, h.simd_tier, h.kernel_policy, h.git_revision
    );
    if !h.comparable {
        println!("QUICK MODE: a smoke run of the harness; its numbers are not comparable");
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload, in this process: set-up, timed reps (or the traced run),
/// checks, and the files under `out/`.
fn run_workload(
    name: &str,
    args: &Args,
    header: Header,
    started: Instant,
) -> Result<RunRecord, String> {
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let scratch = Scratch::new(&out).map_err(|e| format!("scratch directory: {e}"))?;
    let mut log = SpanLog::new();
    // A smoke run: 2 steps, one rep, one set-up, the minimum of samples,
    // and no time beyond that.
    let (budget, shrink, reps, setups, trace_reps, min_samples) = if args.quick {
        (Duration::ZERO, Some(2), (1, 1), 1, 1, 2)
    } else {
        (
            Duration::from_secs(args.seconds),
            None,
            (3, usize::MAX),
            SETUPS,
            2,
            5,
        )
    };
    let sized = |spec: &TrainSpec| shrink.map_or(*spec, |steps| spec.with_steps(steps));
    let spec = SPECS.iter().find(|s| s.name == name).map(sized);
    let first_rep = |started: Instant| {
        println!(
            "first timed rep starts {:.3} s after process start",
            started.elapsed().as_secs_f64()
        );
    };

    let (tally, metrics, final_losses, spans_file) = if args.trace {
        // `plan_sweep` has no tensors of its own: its tensor-side probes
        // run at `tr_compress`'s shapes.
        let spec = spec.unwrap_or_else(|| sized(&SPECS[0]));
        let per_layer = layers::measure(
            &spec,
            args.seed,
            budget,
            trace_reps,
            min_samples,
            &scratch,
            &mut log,
        )
        .map_err(|e| format!("{name}: {e}"))?;
        let metrics = PER_LAYER
            .iter()
            .map(|d| {
                let value = per_layer.metrics.iter().find(|(n, _)| *n == d.name);
                value
                    .map(|(_, v)| (d.name.to_string(), Summary::single(*v)))
                    .ok_or_else(|| format!("per-layer metric `{}` was not measured", d.name))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let chrome = pipebd_trace::chrome::executor_trace(&per_layer.report);
        write_file(
            &out.join(format!("{name}.chrome.json")),
            &pipebd_json::render::compact(&chrome),
        )?;
        (
            per_layer.tally,
            metrics,
            Vec::new(),
            format!("{name}.spans.json"),
        )
    } else {
        let mut setup_s = Vec::new();
        let (tally, measured, final_losses) = if let Some(spec) = spec {
            let mut inputs = None;
            for _ in 0..setups {
                let (built, s) = train::setup(&spec, args.seed, &scratch, &mut log)
                    .map_err(|e| format!("{name}: set-up failed: {e}"))?;
                setup_s.push(s);
                inputs = Some(built);
            }
            let mut inputs = inputs.expect("at least one set-up ran");
            train::learn_reference(&spec, &mut inputs)
                .map_err(|e| format!("{name}: untrained reference run failed: {e}"))?;
            first_rep(started);
            let m = train::measure(&spec, &inputs, &scratch, budget, reps, &mut log);
            println!("{} reps of {:?}", m.reps, train::kinds(&spec));
            (m.tally, m.metrics, m.final_losses)
        } else {
            let mut built = None;
            for _ in 0..setups {
                let (sweep, warm, s) = plan::setup(&mut log);
                setup_s.push(s);
                built = Some((sweep, warm));
            }
            let (sweep, warm) = built.expect("at least one set-up ran");
            first_rep(started);
            let m = plan::measure(&sweep, &warm, budget, reps, &mut log);
            println!(
                "{} pairs of sweeps, {} evals per sweep",
                m.pairs, warm.evals
            );
            (m.tally, m.metrics, Vec::new())
        };
        let measured = measured.ok_or_else(|| {
            format!(
                "{name}: no rep passed its checks, nothing was measured: {}",
                tally.failures.join("; ")
            )
        })?;
        let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        let values = measured
            .into_iter()
            .chain([summarize(&setup_s).fast_low(), Summary::single(rss)]);
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(d, value)| (d.name.to_string(), value))
            .collect();
        (
            tally,
            metrics,
            final_losses,
            format!("{name}.untraced.spans.json"),
        )
    };

    let record = RunRecord {
        workload: name.to_string(),
        header,
        trace: args.trace,
        tally,
        metrics,
        final_losses,
    };
    if let Some((metric, _)) = record.metrics.iter().find(|(_, v)| !v.value.is_finite()) {
        return Err(format!("{name}: metric `{metric}` is not a finite number"));
    }
    write_file(
        &out.join(spans_file),
        &pipebd_json::render::compact(&log.to_json()),
    )?;
    write_file(&run_file(name, args.trace), &to_json(&record)?)?;
    Ok(record)
}

/// Where the last run of a workload is recorded.
fn run_file(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!("{workload}.trace{}.json", u8::from(trace)))
}

fn to_json<T: serde::Serialize>(record: &T) -> Result<String, String> {
    pipebd_json::to_string_pretty(record).map_err(|e| format!("cannot serialize a record: {e}"))
}

fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn print_run(record: &RunRecord) {
    let t = &record.tally;
    println!(
        "{}: attempted {} failed {} (failed_share {})",
        record.workload,
        t.attempted,
        t.failed,
        t.failed_share()
    );
    for why in &t.failures {
        println!("  FAILED {why}");
    }
    if !record.final_losses.is_empty() {
        println!("  final losses {:?}", record.final_losses);
    }
    for (name, v) in &record.metrics {
        let unit = metrics::find(defs(record.trace), name).map_or("", |d| d.unit);
        if v.n > 1 {
            println!(
                "  {name:<34} {:>16.6} {unit:<10} median {:.6} q1 {:.6} q3 {:.6} n {}",
                v.value, v.median, v.q1, v.q3, v.n
            );
        } else {
            println!("  {name:<34} {:>16.6} {unit}", v.value);
        }
    }
}

/// Every workload, each run in a process of its own (so `peak_rss_mb` is
/// the workload's): `--runs` untraced runs on consecutive seeds, then one
/// traced run.
fn run_all(args: &Args, header: Header) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let child = |workload: &str, seed: u64, trace: bool| -> Result<RunRecord, String> {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        // `output` waits for the child to end.
        let output = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {workload}: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "{workload} (seed {seed}, trace {}) exited with {}",
                u8::from(trace),
                output.status
            ));
        }
        let path = run_file(workload, trace);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        pipebd_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    };

    let mut set = SetRecord {
        header,
        runs: args.runs,
        workloads: Vec::new(),
    };
    for (workload, why) in WORKLOADS {
        println!("\n== {workload}: {why}");
        let mut untraced = Vec::new();
        for r in 0..args.runs {
            let record = child(workload, args.seed + r as u64, false)?;
            print_run(&record);
            untraced.push(record);
        }
        let traced = child(workload, args.seed, true)?;
        print_run(&traced);
        set.workloads.push(WorkloadRecord { untraced, traced });
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("results.json"));
    write_file(&path, &to_json(&set)?)?;
    println!("\nresults: {}", path.display());
    Ok(set.workloads.iter().all(|w| {
        w.untraced
            .iter()
            .chain([&w.traced])
            .all(|r| r.tally.failed == 0)
    }))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare::compare_files(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(why) => {
                eprintln!("error: {why}");
                ExitCode::from(2)
            }
        };
    }
    // Each of these silently changes what is measured.
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("error: {var} is set; unset it, the benchmark pins pool, kernel, SIMD and trace settings itself");
        return ExitCode::from(2);
    }

    let header = header(&args);
    print_header(&header);
    let outcome = match &args.workload {
        Some(name) => {
            run_workload(name, &args, header, started).map(|record| {
                print_run(&record);
                // The last line of standard output: the result.
                println!(
                    "{}",
                    pipebd_json::render::compact(&record.result_line(defs(args.trace)))
                );
                true
            })
        }
        None => run_all(&args, header),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A full run with failed checks: reported above, and in the exit code.
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipebd_json::Value;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    /// The names, units, directions and bounds the program emits are the
    /// ones `BENCHMARK.json` declares to the driver.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = bench_dir().join("../BENCHMARK.json");
        let doc = pipebd_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Value::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Value::as_str).unwrap().to_string(),
                        m.get("better").and_then(Value::as_str).unwrap().to_string(),
                        m.get("bound").and_then(Value::as_f64),
                    )
                })
                .collect()
        };
        let emitted =
            |defs: &[MetricDef], bounded: bool| -> Vec<(String, String, String, Option<f64>)> {
                defs.iter()
                    .map(|d| {
                        (
                            d.name.to_string(),
                            d.unit.to_string(),
                            match d.better {
                                metrics::Better::Higher => "higher".to_string(),
                                metrics::Better::Lower => "lower".to_string(),
                            },
                            bounded.then_some(d.bound),
                        )
                    })
                    .collect()
            };
        assert_eq!(declared("end_to_end"), emitted(&END_TO_END, true));
        assert_eq!(declared("per_layer"), emitted(&PER_LAYER, false));

        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|(name, _)| name));
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_u64),
            Some(RUN_SECONDS)
        );

        for d in END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .chain([&metrics::FAILED_SHARE])
        {
            assert!(well_formed(d.name), "metric name `{}`", d.name);
            assert!(d.bound <= 0.25);
        }
        assert!(workloads.iter().all(|w| well_formed(w)));
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        names.push(metrics::FAILED_SHARE.name);
        names.extend(workloads);
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used once");
    }

    /// The result line carries exactly the declared metrics, and the
    /// training workloads' spec table names the workloads the catalogue does.
    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let record = RunRecord {
            workload: "tr_compress".into(),
            header: Header {
                seed: 7,
                run_seconds: 20,
                nproc: 2,
                simd_tier: "scalar".into(),
                kernel_policy: "blocked".into(),
                git_revision: "unknown".into(),
                comparable: true,
            },
            trace: false,
            tally: record::Tally {
                attempted: 14,
                ..Default::default()
            },
            metrics: END_TO_END
                .iter()
                .map(|d| (d.name.to_string(), Summary::single(1.5)))
                .collect(),
            final_losses: vec![0.25],
        };
        let line = record.result_line(&END_TO_END);
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
        let metrics = line.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, m), d) in metrics.iter().zip(&END_TO_END) {
            assert_eq!(name, d.name);
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit));
            assert_eq!(m.get("value").and_then(Value::as_f64), Some(1.5));
        }
        let stored: RunRecord = pipebd_json::from_str(&to_json(&record).unwrap()).unwrap();
        assert_eq!(stored, record);

        let spec_names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        assert_eq!(spec_names, WORKLOADS.map(|(name, _)| name)[..4]);
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload thin_wide --seed 11 --seconds 5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("thin_wide"), 11, 5, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
