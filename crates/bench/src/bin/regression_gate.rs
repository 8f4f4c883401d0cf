//! CI gate for the conformance plane and the perf baselines: runs the full
//! differential scenario sweep and compares current bench artifacts
//! against the baselines committed at the repository root.
//!
//! Modes:
//!
//! * **default** — enumerate every conformance scenario, run the executor
//!   and simulator/estimator differentials, persist the sweep
//!   (`CONFORMANCE_scenarios`, `CONFORMANCE_report`), then compare the
//!   current `BENCH_e2e`/`BENCH_kernels` artifacts (written by the micro
//!   bench and `kernel_smoke`) against the committed `BENCH_e2e.json` /
//!   `BENCH_kernels.json`. Exit 1 on any conformance drift, and on perf
//!   regressions beyond tolerance **when the machine fingerprint matches
//!   the baseline's** — on foreign machines the nanosecond comparison is
//!   reported but informational (the escape hatch; speedup *ratios* are
//!   still enforced).
//! * **`--self-test`** — prove every gate half actually fires. Perf: an
//!   injected fixture baseline makes the current run look 2× slower (same
//!   fingerprint) and must fail the comparison, while the run compared
//!   against itself must pass. Thread-scaling: an injected kernel
//!   baseline makes every scaling point look 8× slower and the curve
//!   gate must flag it (and stay silent comparing curves to themselves).
//!   Fault budgets: a replanned slowdown scenario must pass the declared
//!   `ToleranceBook` and must *fail* once its fault-class budget is
//!   sabotaged to an unsatisfiable window. Recovery: a host-loss script
//!   must kill and restore the threaded run bitwise under the declared
//!   policy, fire a structured `RecoveryExhausted` under a sabotaged
//!   zero-restore budget, and a torn checkpoint file must error loudly.
//!   Rejoin: an elastic host-join script must complete end to end
//!   bitwise through the device-thread registry (no restore budget
//!   spent), and a planted stale-plan checkpoint must fail the rejoin
//!   loudly with the structured plan-fingerprint mismatch.
//!   Exit 0 iff every probe behaved correctly both ways.
//!
//! Flags / environment:
//!
//! * `--require-bench` — missing current bench artifacts become fatal
//!   (CI sets this so a lane misconfiguration cannot silently skip the
//!   perf half).
//! * `--json` — persist the sweep verdict as a machine-readable
//!   `pipebd.gate_report` artifact (`GATE_report`) and run the trace
//!   hook: one instrumented scenario whose whole-run bubble ratio is
//!   recorded and diffed against the previously persisted report's —
//!   non-fatally, so the bubble trend is tracked across commits without
//!   letting shared-runner noise fail the gate.
//! * `PIPEBD_CONFORMANCE_STRIDE=N` — run every Nth scenario (quick local
//!   iteration; printed loudly, never set in CI).
//!
//! Run with: `cargo run --release -p pipebd_bench --bin regression_gate`

use std::path::{Path, PathBuf};

use pipebd_artifact::{
    pooled_fingerprint, ArtifactError, ArtifactStore, BenchKernels, BenchSuite, BenchTolerance,
    GateCheck, GateReport,
};
use pipebd_tensor::{kernel_policy, set_kernel_policy};
use pipebd_testkit::{
    enumerate, run_scenario, run_trace_scenario, trace_scenarios, ConformanceReport, FaultClass,
    RatioBudget, ScenarioSet, SimWorkload, ToleranceBook,
};

/// Minimum fraction of the baseline's kernel speedup the current run must
/// retain (ratios transfer across machines, so this is enforced even when
/// fingerprints differ).
const MIN_SPEEDUP_RETAINED: f64 = 0.4;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate sits two levels under the workspace root")
        .to_path_buf()
}

/// Runs the conformance sweep; returns the number of failing scenarios.
fn conformance_sweep(store: &ArtifactStore) -> usize {
    let stride: usize = std::env::var("PIPEBD_CONFORMANCE_STRIDE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1);
    let all = enumerate();
    let scenarios: Vec<_> = all.iter().step_by(stride).cloned().collect();
    if stride > 1 {
        println!(
            "!! PIPEBD_CONFORMANCE_STRIDE={stride}: running {} of {} scenarios (never do this in CI)",
            scenarios.len(),
            all.len()
        );
    }
    let book = ToleranceBook::gate_default();
    let ambient = kernel_policy();
    let mut outcomes = Vec::with_capacity(scenarios.len());
    let mut failures = 0usize;
    for s in &scenarios {
        set_kernel_policy(s.kernel_policy());
        let outcome = run_scenario(s, &book);
        let verdict = if outcome.pass { "ok  " } else { "FAIL" };
        println!(
            "  {verdict} {id:<28} param {param:>9.2e}  loss {loss:>9.2e}  sim/est {ratio:>6.3} in [{lo:.2},{hi:.2}]{bn}{fault}{detail}",
            id = outcome.id,
            fault = if outcome.fault_class.is_empty() {
                String::new()
            } else {
                format!(
                    "  fault:{}:{}",
                    outcome.fault_class,
                    if outcome.replan { "replan" } else { "static" }
                )
            },
            param = outcome.max_param_diff,
            loss = outcome.max_loss_diff,
            ratio = outcome.sim_ratio,
            lo = outcome.ratio_lo,
            hi = outcome.ratio_hi,
            bn = if outcome.bottleneck_checked {
                if outcome.bottleneck_ok { "  bn:ok" } else { "  bn:FAIL" }
            } else {
                ""
            },
            detail = if outcome.detail.is_empty() {
                String::new()
            } else {
                format!("  [{}]", outcome.detail)
            },
        );
        if !outcome.pass {
            failures += 1;
        }
        outcomes.push(outcome);
    }
    set_kernel_policy(ambient);

    let persist = |name: &str, res: Result<PathBuf, ArtifactError>| match res {
        Ok(path) => println!("artifact: {}", path.display()),
        Err(e) => panic!("failed to persist `{name}`: {e}"),
    };
    persist(
        "CONFORMANCE_scenarios",
        store.save(
            "CONFORMANCE_scenarios",
            &ScenarioSet {
                description: format!(
                    "conformance sweep, stride {stride}: {} scenarios",
                    scenarios.len()
                ),
                scenarios,
            },
        ),
    );
    persist(
        "CONFORMANCE_report",
        store.save(
            "CONFORMANCE_report",
            &ConformanceReport {
                scenarios: outcomes.len(),
                failures,
                outcomes,
            },
        ),
    );
    failures
}

/// Compares current bench artifacts against the committed baselines.
/// Returns the number of *fatal* regressions.
fn perf_gate(
    current_store: &ArtifactStore,
    baseline_store: &ArtifactStore,
    require: bool,
) -> usize {
    let mut fatal = 0usize;
    let fingerprint = pooled_fingerprint(pipebd_tensor::parallel::default_pool_size());
    println!("machine fingerprint: {fingerprint}");

    match (
        current_store.load::<BenchSuite>("BENCH_e2e"),
        baseline_store.load::<BenchSuite>("BENCH_e2e"),
    ) {
        (Ok(current), Ok(baseline)) => {
            let enforced = current.fingerprint == baseline.fingerprint;
            println!(
                "BENCH_e2e: baseline fingerprint `{}` — nanosecond tolerances {}",
                baseline.fingerprint,
                if enforced {
                    "ENFORCED (same machine)"
                } else {
                    "informational (different machine)"
                }
            );
            let deltas = current.compare_with(&baseline, &BenchTolerance::gate_default());
            for d in &deltas {
                println!(
                    "  {} {:<44} base {:>12} ns  now {:>12} ns  ratio {:>6.2} (limit {:.2})",
                    if d.regressed { "SLOW" } else { "ok  " },
                    d.id,
                    d.baseline_ns,
                    d.current_ns,
                    d.ratio,
                    d.max_ratio,
                );
                if d.regressed && enforced {
                    fatal += 1;
                }
            }
            if deltas.is_empty() {
                println!("  (no overlapping benchmark ids)");
            }
        }
        (Err(e), _) => {
            println!("BENCH_e2e: no current artifact ({e})");
            if require {
                fatal += 1;
            }
        }
        (_, Err(e)) => {
            println!("BENCH_e2e: no committed baseline ({e})");
            if require {
                fatal += 1;
            }
        }
    }

    match (
        current_store.load::<BenchKernels>("BENCH_kernels"),
        baseline_store.load::<BenchKernels>("BENCH_kernels"),
    ) {
        (Ok(current), Ok(baseline)) => {
            // Speedups are ratios: enforced regardless of fingerprint.
            println!(
                "BENCH_kernels: current speedup must retain >= {MIN_SPEEDUP_RETAINED}x of baseline (ENFORCED on every machine)"
            );
            let deltas = current.compare_speedups(&baseline, MIN_SPEEDUP_RETAINED);
            if deltas.is_empty() {
                println!("  (no overlapping kernel names)");
            }
            for d in deltas {
                println!(
                    "  {} {:<44} base {:>6.2}x  now {:>6.2}x",
                    if d.regressed { "SLOW" } else { "ok  " },
                    d.kernel,
                    d.baseline,
                    d.current,
                );
                if d.regressed {
                    fatal += 1;
                }
            }

            // Thread-scaling curves: raw nanoseconds at specific pool
            // widths, so only a matching pool-aware fingerprint makes
            // regressions fatal (a different host or budget legitimately
            // reshapes the curve).
            let enforced = current.fingerprint == baseline.fingerprint;
            println!(
                "BENCH_kernels scaling: baseline fingerprint `{}` — curves {}",
                baseline.fingerprint,
                if enforced {
                    "ENFORCED (same machine + pool budget)"
                } else {
                    "informational (different machine or pool budget)"
                }
            );
            let scaling = current.compare_scaling(&baseline, &BenchTolerance::scaling_default());
            if scaling.is_empty() {
                println!("  (no overlapping scaling points)");
            }
            for d in scaling {
                println!(
                    "  {} {:<38} p{} base {:>10} ns  now {:>10} ns  ratio {:>6.2} (limit {:.2})",
                    if d.regressed { "SLOW" } else { "ok  " },
                    d.kernel,
                    d.pool,
                    d.baseline_ns,
                    d.current_ns,
                    d.ratio,
                    d.max_ratio,
                );
                if d.regressed && enforced {
                    fatal += 1;
                }
            }
        }
        (Err(e), _) => {
            println!("BENCH_kernels: no current artifact ({e})");
            if require {
                fatal += 1;
            }
        }
        (_, Err(e)) => {
            println!("BENCH_kernels: no committed baseline ({e})");
            if require {
                fatal += 1;
            }
        }
    }
    fatal
}

/// Proves the conformance gate's fault budgets fire: one replanned
/// slowdown scenario must pass under the declared tolerance book and fail
/// — with the fault class named in the detail — under a sabotaged book
/// whose slowdown budget no real run can satisfy.
fn fault_self_test() -> bool {
    let all = enumerate();
    let Some(s) = all.iter().find(|s| {
        s.sim_workload == SimWorkload::Synthetic
            && s.ranks == 4
            && s.fault
                .as_ref()
                .is_some_and(|f| f.class == FaultClass::Slowdown && f.replan)
    }) else {
        eprintln!("fault self-test FAILED: no replanned slowdown scenario in the matrix");
        return false;
    };
    let book = ToleranceBook::gate_default();
    let honest = run_scenario(s, &book);
    if !honest.pass {
        eprintln!(
            "fault self-test FAILED: `{}` does not pass the declared book ({})",
            honest.id, honest.detail
        );
        return false;
    }
    let mut sabotaged = book.clone();
    sabotaged.fault_slowdown = RatioBudget { lo: 0.0, hi: 1e-3 };
    let fired = run_scenario(s, &sabotaged);
    if fired.pass {
        eprintln!(
            "fault self-test FAILED: `{}` passed a budget no real period can meet — the fault gate never fires",
            fired.id
        );
        return false;
    }
    if !fired.detail.contains("slowdown") {
        eprintln!(
            "fault self-test FAILED: `{}` failure detail does not name the fault class: {}",
            fired.id, fired.detail
        );
        return false;
    }
    println!(
        "fault self-test: `{}` ratio {:.3} passes [{:.2},{:.2}], fails the sabotaged budget with: {}",
        honest.id, honest.sim_ratio, honest.ratio_lo, honest.ratio_hi, fired.detail
    );
    true
}

/// Proves the recovery gate fires, both ways:
///
/// * a host-loss script under the *declared* recovery policy must kill
///   and restore the threaded run and finish with a bitwise-identical
///   model (the honest half);
/// * the same script under a **sabotaged budget** (`max_restores = 0`,
///   no fallback) must surface a structured
///   [`ExecError::RecoveryExhausted`](pipebd_core::exec::ExecError) —
///   never a hang or a silent pass;
/// * a **torn checkpoint file** must make the durable sink's `latest()`
///   return a hard error, never a silent "no checkpoint".
fn recovery_self_test() -> bool {
    use pipebd_core::exec::recovery::{RecoveryPolicy, RecoveryRunner};
    use pipebd_core::exec::{ExecError, FuncConfig};
    use pipebd_core::{CheckpointSink, MemorySink};
    use pipebd_data::SyntheticImageDataset;
    use pipebd_models::{mini_student_dsconv, mini_teacher, MiniConfig, Workload};
    use pipebd_sim::{FaultEvent, FaultScript};
    use pipebd_tensor::Rng64;
    use std::sync::Arc;

    let cfg = MiniConfig {
        blocks: 4,
        channels: 6,
        batch_norm: false,
    };
    let mut rng = Rng64::seed_from_u64(23);
    let teacher = mini_teacher(cfg, &mut rng);
    let student = mini_student_dsconv(cfg, &mut rng);
    let data = SyntheticImageDataset::mini(64, 8, 4, 29);
    let workload = Workload::synthetic(4, false);
    let script = FaultScript {
        events: vec![FaultEvent::HostLoss {
            rank: 1,
            at_step: 4,
        }],
    };
    let func = FuncConfig {
        devices: 2,
        steps: 8,
        batch: 8,
        lr: 0.05,
        momentum: 0.9,
        plan: None,
        decoupled_updates: true,
        pool_size: Some(1),
    };

    // Honest half: declared policy → kill, restore, bitwise replay.
    let honest = RecoveryRunner {
        workload: &workload,
        script: &script,
        policy: RecoveryPolicy::default(),
        sink: Arc::new(MemorySink::default()),
        trace: None,
    };
    let report = match honest.run(&teacher, &student, &data, &func) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("recovery self-test FAILED: honest recovery run errored: {e}");
            return false;
        }
    };
    if report.restores == 0 && !report.fell_back {
        eprintln!("recovery self-test FAILED: the host loss never exercised the protocol");
        return false;
    }
    let golden = match pipebd_core::exec::reference::run(&teacher, &student, &data, &func) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("recovery self-test FAILED: reference run errored: {e}");
            return false;
        }
    };
    let diff = report.outcome.max_param_diff(&golden);
    if diff != 0.0 {
        eprintln!(
            "recovery self-test FAILED: recovered width-1 run drifted {diff:e} from the uninterrupted reference"
        );
        return false;
    }

    // Sabotaged half: a zero restore budget with no fallback must fire
    // the structured exhaustion error.
    let sabotaged = RecoveryRunner {
        workload: &workload,
        script: &script,
        policy: RecoveryPolicy {
            max_restores: 0,
            reference_fallback: false,
            ..RecoveryPolicy::default()
        },
        sink: Arc::new(MemorySink::default()),
        trace: None,
    };
    match sabotaged.run(&teacher, &student, &data, &func) {
        Err(ExecError::RecoveryExhausted { attempts: 0 }) => {}
        Err(e) => {
            eprintln!("recovery self-test FAILED: sabotaged budget produced the wrong error: {e}");
            return false;
        }
        Ok(_) => {
            eprintln!(
                "recovery self-test FAILED: a zero restore budget passed — the recovery gate never fires"
            );
            return false;
        }
    }

    // Torn-checkpoint half: truncate a persisted checkpoint mid-file; the
    // durable sink must error loudly instead of reporting "no checkpoint".
    let root = std::env::temp_dir().join(format!("pipebd_gate_torn_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let ckpt_sink = pipebd_artifact::CheckpointStore::at(&root, "SELFTEST_ckpt");
    let hooks = pipebd_core::exec::threaded::RunHooks {
        driver: None,
        resume: None,
        checkpoint: Some((
            pipebd_core::CheckpointPolicy::every(2),
            Arc::new(ckpt_sink.clone()) as Arc<dyn CheckpointSink>,
        )),
        trace: None,
    };
    if let Err(e) =
        pipebd_core::exec::threaded::run_hooked(&teacher, &student, &data, &func, &hooks)
    {
        eprintln!("recovery self-test FAILED: checkpointed healthy run errored: {e}");
        return false;
    }
    let path = ckpt_sink.path();
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!(
                "recovery self-test FAILED: no checkpoint landed at {}: {e}",
                path.display()
            );
            return false;
        }
    };
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("torn fixture persists");
    let torn_fired = ckpt_sink.latest().is_err();
    let _ = std::fs::remove_dir_all(&root);
    if !torn_fired {
        eprintln!(
            "recovery self-test FAILED: a torn checkpoint loaded silently — restores could lose paid-for training"
        );
        return false;
    }

    println!(
        "recovery self-test: host loss killed and restored ({} restore(s), resumed rounds {:?}), replay bitwise; zero budget fired RecoveryExhausted; torn checkpoint errored loudly",
        report.restores, report.resumed_rounds
    );
    true
}

/// Proves the elastic-rejoin gate fires, both ways:
///
/// * a host-join script — the exact shape the executor used to reject
///   with a structured `Config` error ("fixed thread set") — must now
///   complete end to end under the declared policy: the device-thread
///   registry grows the worker set at the join's round boundary, the
///   growth spends no restore budget, and the recovered width-1 run
///   replays the uninterrupted reference *bitwise*;
/// * a **stale-plan checkpoint** planted in the sink (a foreign
///   fingerprint at a winning round) must make the rejoin fail loudly
///   with the structured plan-fingerprint mismatch — never a silent
///   resume of another run's trajectory.
fn rejoin_self_test() -> bool {
    use pipebd_core::exec::recovery::{RecoveryPolicy, RecoveryRunner};
    use pipebd_core::exec::{ExecError, FuncConfig};
    use pipebd_core::{Checkpoint, CheckpointSink, MemorySink};
    use pipebd_data::SyntheticImageDataset;
    use pipebd_models::{mini_student_dsconv, mini_teacher, MiniConfig, Workload};
    use pipebd_sim::{FaultEvent, FaultScript};
    use pipebd_tensor::Rng64;
    use std::sync::Arc;

    let cfg = MiniConfig {
        blocks: 4,
        channels: 6,
        batch_norm: false,
    };
    let mut rng = Rng64::seed_from_u64(31);
    let teacher = mini_teacher(cfg, &mut rng);
    let student = mini_student_dsconv(cfg, &mut rng);
    let data = SyntheticImageDataset::mini(64, 8, 4, 37);
    let workload = Workload::synthetic(4, false);
    // Rank 1 of the 2-rank set is absent at step 0 and joins at step 3:
    // the first epoch runs short-handed, the registry admits the host at
    // the round-3 boundary.
    let script = FaultScript {
        events: vec![FaultEvent::HostJoin {
            rank: 1,
            at_step: 3,
        }],
    };
    let func = FuncConfig {
        devices: 2,
        steps: 6,
        batch: 8,
        lr: 0.05,
        momentum: 0.9,
        plan: None,
        decoupled_updates: true,
        pool_size: Some(1),
    };

    // Honest half: the join grows the member set and replays bitwise.
    let honest = RecoveryRunner {
        workload: &workload,
        script: &script,
        policy: RecoveryPolicy::default(),
        sink: Arc::new(MemorySink::default()),
        trace: None,
    };
    let report = match honest.run(&teacher, &student, &data, &func) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rejoin self-test FAILED: honest join run errored: {e}");
            return false;
        }
    };
    if report.grows == 0 {
        eprintln!("rejoin self-test FAILED: the join never grew the member set");
        return false;
    }
    if report.restores != 0 || report.fell_back {
        eprintln!(
            "rejoin self-test FAILED: growth spent restore budget ({} restore(s), fell_back {})",
            report.restores, report.fell_back
        );
        return false;
    }
    let golden = match pipebd_core::exec::reference::run(&teacher, &student, &data, &func) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("rejoin self-test FAILED: reference run errored: {e}");
            return false;
        }
    };
    let diff = report.outcome.max_param_diff(&golden);
    if diff != 0.0 {
        eprintln!(
            "rejoin self-test FAILED: grown width-1 run drifted {diff:e} from the uninterrupted reference"
        );
        return false;
    }

    // Sabotaged half: plant a checkpoint from a foreign plan at a round
    // that wins the sink's round-max race. The rejoin's restore must
    // refuse it with the structured mismatch, not resume it.
    let sink = Arc::new(MemorySink::default());
    let stale = Checkpoint {
        round: 99,
        data_cursor: 99 * 8,
        batch: 8,
        lr: 0.05,
        momentum: 0.9,
        plan_fingerprint: "9x9:0000000000000bad".to_string(),
        blocks: vec![],
    };
    if let Err(e) = sink.store(&stale) {
        eprintln!("rejoin self-test FAILED: could not plant the stale checkpoint: {e}");
        return false;
    }
    let sabotaged = RecoveryRunner {
        workload: &workload,
        script: &script,
        policy: RecoveryPolicy::default(),
        sink: Arc::clone(&sink) as Arc<dyn CheckpointSink>,
        trace: None,
    };
    match sabotaged.run(&teacher, &student, &data, &func) {
        Err(ExecError::Checkpoint(msg)) if msg.contains("plan fingerprint mismatch") => {}
        Err(e) => {
            eprintln!("rejoin self-test FAILED: stale checkpoint produced the wrong error: {e}");
            return false;
        }
        Ok(_) => {
            eprintln!(
                "rejoin self-test FAILED: a stale-plan checkpoint resumed silently — the lineage gate never fires"
            );
            return false;
        }
    }

    println!(
        "rejoin self-test: join grew the member set ({} grow(s), resumed rounds {:?}), replay bitwise; stale-plan checkpoint refused with the structured mismatch",
        report.grows, report.resumed_rounds
    );
    true
}

/// Proves the perf gate fires: an injected baseline that makes the current
/// run look 2× slower must produce regressions; the current run against
/// itself must not.
fn self_test(current_store: &ArtifactStore, baseline_store: &ArtifactStore) -> bool {
    // Use the current suite if a bench ran, else fall back to the
    // committed baseline as the "current" run (pure fixture arithmetic —
    // no timing happens here).
    let current: BenchSuite = match current_store.load("BENCH_e2e") {
        Ok(s) => s,
        Err(_) => match baseline_store.load("BENCH_e2e") {
            Ok(s) => s,
            Err(e) => {
                eprintln!(
                    "self-test FAILED: no BENCH_e2e anywhere to build the fixture from ({e})"
                );
                return false;
            }
        },
    };
    // The fixture keeps the current run's fingerprint (it is a clone), so
    // a same-machine comparison is what the self-test exercises.
    let mut injected = current.clone();
    for r in &mut injected.records {
        // Halving the baseline makes the current run a 2× slowdown.
        r.mean_ns = (r.mean_ns / 2).max(1);
    }
    // Round-trip the fixture through the store: the gate must fail on what
    // is actually on disk, not only on in-memory values.
    current_store
        .save("SELFTEST_injected_baseline", &injected)
        .expect("fixture persists");
    let injected: BenchSuite = current_store
        .load("SELFTEST_injected_baseline")
        .expect("fixture reloads");

    let tol = BenchTolerance::gate_default();
    let against_injected = current.compare_with(&injected, &tol);
    // A 2x slowdown must flag exactly the benches the policy promises to
    // catch: ratio limit below 2.0 and a delta above the noise floor.
    let mut fired = 0usize;
    let mut expected = 0usize;
    let mut mismatch = false;
    for d in &against_injected {
        let should_fire = d.max_ratio < 2.0 && d.current_ns > d.baseline_ns + tol.floor_ns;
        expected += usize::from(should_fire);
        fired += usize::from(d.regressed);
        if d.regressed != should_fire {
            eprintln!(
                "self-test mismatch on `{}`: regressed={} but policy says {} (ratio {:.2}, limit {:.2})",
                d.id, d.regressed, should_fire, d.ratio, d.max_ratio
            );
            mismatch = true;
        }
    }
    let against_self = current.compare_with(&current, &tol);
    let false_alarms = against_self.iter().filter(|d| d.regressed).count();

    println!(
        "self-test: {fired} of {} benches flagged vs the injected 2x-slowdown fixture ({expected} expected); {false_alarms} false alarms vs self",
        against_injected.len(),
    );
    if mismatch {
        eprintln!("self-test FAILED: flagged set diverges from the declared policy");
        return false;
    }
    if expected == 0 || fired == 0 {
        eprintln!("self-test FAILED: the fixture must make the gate fire at least once");
        return false;
    }
    if false_alarms > 0 {
        eprintln!(
            "self-test FAILED: comparing a run against itself flagged {false_alarms} benches"
        );
        return false;
    }
    true
}

/// Proves the thread-scaling gate fires: an injected kernel baseline whose
/// scaling points are 8× faster than the current run's must flag every
/// point the policy promises to catch; the current curves against
/// themselves must not flag at all.
fn scaling_self_test(current_store: &ArtifactStore, baseline_store: &ArtifactStore) -> bool {
    let current: BenchKernels = match current_store.load("BENCH_kernels") {
        Ok(k) => k,
        Err(_) => match baseline_store.load("BENCH_kernels") {
            Ok(k) => k,
            Err(e) => {
                eprintln!(
                    "scaling self-test FAILED: no BENCH_kernels anywhere to build the fixture from ({e})"
                );
                return false;
            }
        },
    };
    if current.scaling.iter().all(|c| c.points.is_empty()) {
        eprintln!(
            "scaling self-test FAILED: the kernel baseline carries no scaling curves (rerun kernel_smoke)"
        );
        return false;
    }
    // An 8×-faster injected baseline makes every current point look like
    // an 8× slowdown; the clone keeps the pool-aware fingerprint, so this
    // is the enforced same-machine comparison.
    let mut injected = current.clone();
    for curve in &mut injected.scaling {
        for p in &mut curve.points {
            p.mean_ns = (p.mean_ns / 8).max(1);
        }
    }
    current_store
        .save("SELFTEST_injected_scaling", &injected)
        .expect("fixture persists");
    let injected: BenchKernels = current_store
        .load("SELFTEST_injected_scaling")
        .expect("fixture reloads");

    let tol = BenchTolerance::scaling_default();
    let against_injected = current.compare_scaling(&injected, &tol);
    let mut fired = 0usize;
    let mut expected = 0usize;
    let mut mismatch = false;
    for d in &against_injected {
        let should_fire = d.max_ratio < 8.0 && d.current_ns > d.baseline_ns + tol.floor_ns;
        expected += usize::from(should_fire);
        fired += usize::from(d.regressed);
        if d.regressed != should_fire {
            eprintln!(
                "scaling self-test mismatch on `{}` p{}: regressed={} but policy says {} (ratio {:.2}, limit {:.2})",
                d.kernel, d.pool, d.regressed, should_fire, d.ratio, d.max_ratio
            );
            mismatch = true;
        }
    }
    let false_alarms = current
        .compare_scaling(&current, &tol)
        .iter()
        .filter(|d| d.regressed)
        .count();

    println!(
        "scaling self-test: {fired} of {} points flagged vs the injected 8x-slowdown fixture ({expected} expected); {false_alarms} false alarms vs self",
        against_injected.len(),
    );
    if mismatch {
        eprintln!("scaling self-test FAILED: flagged set diverges from the declared policy");
        return false;
    }
    if expected == 0 || fired == 0 {
        eprintln!(
            "scaling self-test FAILED: the fixture must make the scaling gate fire at least once"
        );
        return false;
    }
    if false_alarms > 0 {
        eprintln!(
            "scaling self-test FAILED: comparing curves against themselves flagged {false_alarms} points"
        );
        return false;
    }
    true
}

/// The gate's trace hook, run under `--json`: one instrumented scenario,
/// recorded for its bubble-ratio trend against the previously persisted
/// `GateReport`. Non-fatal by design — wall-clock bubble ratios on shared
/// runners drift for reasons no commit caused, so the trend lives in the
/// artifact for CI archaeology while hard enforcement stays with the
/// testkit's trace differential.
fn trace_bubble_hook(store: &ArtifactStore) -> (GateCheck, Option<f64>) {
    let scenarios = trace_scenarios();
    let s = &scenarios[0];
    let previous = store
        .load::<GateReport>("GATE_report")
        .ok()
        .and_then(|r| r.bubble_ratio);
    match run_trace_scenario(s, &ToleranceBook::gate_default()) {
        Ok(run) => {
            let now = run.summary.bubble_ratio;
            let trend = match previous {
                Some(prev) => format!("; previous {prev:.3}, delta {:+.3}", now - prev),
                None => "; no previous gate report".to_string(),
            };
            println!(
                "  `{}` bubble ratio {now:.3}{trend}; differential {}",
                run.scenario_id,
                if run.differential.pass {
                    "pass"
                } else {
                    "FAIL (informational in this hook)"
                },
            );
            let check = GateCheck {
                name: "trace_bubble".into(),
                pass: run.differential.pass,
                detail: format!("bubble ratio {now:.3}{trend}"),
            };
            (check, Some(now))
        }
        Err(e) => {
            println!("  trace scenario failed to run: {e}");
            let check = GateCheck {
                name: "trace_bubble".into(),
                pass: false,
                detail: format!("trace scenario failed: {e}"),
            };
            (check, None)
        }
    }
}

/// Persists the machine-readable sweep verdict as a `pipebd.gate_report`
/// artifact.
fn persist_gate_report(store: &ArtifactStore, report: &GateReport) {
    match store.save("GATE_report", report) {
        Ok(path) => println!("artifact: {}", path.display()),
        Err(e) => panic!("failed to persist `GATE_report`: {e}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let self_test_mode = args.iter().any(|a| a == "--self-test");
    let require_bench = args.iter().any(|a| a == "--require-bench");
    let json_mode = args.iter().any(|a| a == "--json");
    for a in &args {
        if a != "--self-test" && a != "--require-bench" && a != "--json" {
            eprintln!("unknown flag `{a}` (expected --self-test, --require-bench, and/or --json)");
            std::process::exit(2);
        }
    }

    let current_store = ArtifactStore::from_env();
    let baseline_store = ArtifactStore::at(workspace_root());
    let fingerprint = pooled_fingerprint(pipebd_tensor::parallel::default_pool_size());

    if self_test_mode {
        pipebd_bench::header(
            "Regression gate — self-test",
            "inject failing fixtures and prove every gate half fires",
        );
        let halves = [
            ("selftest_perf", self_test(&current_store, &baseline_store)),
            (
                "selftest_scaling",
                scaling_self_test(&current_store, &baseline_store),
            ),
            ("selftest_fault", fault_self_test()),
            ("selftest_recovery", recovery_self_test()),
            ("selftest_rejoin", rejoin_self_test()),
        ];
        let pass = halves.iter().all(|(_, ok)| *ok);
        if json_mode {
            let report = GateReport {
                pass,
                fingerprint,
                checks: halves
                    .iter()
                    .map(|(name, ok)| GateCheck {
                        name: (*name).to_string(),
                        pass: *ok,
                        detail: String::new(),
                    })
                    .collect(),
                bubble_ratio: None,
            };
            persist_gate_report(&current_store, &report);
        }
        if !pass {
            std::process::exit(1);
        }
        println!(
            "regression gate self-test passed (perf + thread-scaling + fault budgets + recovery + rejoin)"
        );
        return;
    }

    pipebd_bench::header(
        "Regression gate — conformance sweep + perf baselines",
        &format!(
            "current: {}  baselines: {}",
            current_store.root().display(),
            baseline_store.root().display()
        ),
    );

    println!("== conformance sweep ==");
    let conformance_failures = conformance_sweep(&current_store);

    println!("== perf baselines ==");
    let perf_failures = perf_gate(&current_store, &baseline_store, require_bench);

    if json_mode {
        println!("== trace hook (bubble-ratio trend, non-fatal) ==");
        let (trace_check, bubble_ratio) = trace_bubble_hook(&current_store);
        let report = GateReport {
            pass: conformance_failures == 0 && perf_failures == 0,
            fingerprint,
            checks: vec![
                GateCheck {
                    name: "conformance".into(),
                    pass: conformance_failures == 0,
                    detail: format!("{conformance_failures} scenario failure(s)"),
                },
                GateCheck {
                    name: "perf_baselines".into(),
                    pass: perf_failures == 0,
                    detail: format!("{perf_failures} fatal regression(s)"),
                },
                trace_check,
            ],
            bubble_ratio,
        };
        persist_gate_report(&current_store, &report);
    }

    if conformance_failures > 0 || perf_failures > 0 {
        eprintln!(
            "regression gate FAILED: {conformance_failures} conformance failures, {perf_failures} perf regressions"
        );
        std::process::exit(1);
    }
    println!("regression gate passed: conformance clean, perf within tolerance");
}
