//! Executor-equivalence suite: the reference and threaded executors,
//! addressed uniformly through [`ExecutorChoice::run`], must produce
//! identical training trajectories — losses at every step and final
//! parameters, bit for bit on width-1 plans. A single-step run with zero
//! momentum additionally pins the *gradients* (the parameter delta is
//! exactly `-lr * grad`), so a relay or aggregation bug that perturbed
//! gradients without changing the loss curve would still be caught.

use pipebd_core::exec::{ExecutorChoice, FuncConfig};
use pipebd_data::SyntheticImageDataset;
use pipebd_models::{mini_student_dsconv, mini_teacher, MiniConfig};
use pipebd_nn::BlockNet;
use pipebd_tensor::Rng64;

fn setup(blocks: usize) -> (BlockNet, BlockNet, SyntheticImageDataset) {
    let cfg = MiniConfig {
        blocks,
        channels: 6,
        batch_norm: false,
    };
    let mut rng = Rng64::seed_from_u64(2024);
    let teacher = mini_teacher(cfg, &mut rng);
    let student = mini_student_dsconv(cfg, &mut rng);
    let data = SyntheticImageDataset::mini(64, 8, 4, 11);
    (teacher, student, data)
}

#[test]
fn losses_and_params_are_bitwise_identical_across_executors() {
    let (teacher, student, data) = setup(4);
    let cfg = FuncConfig {
        devices: 4,
        steps: 8,
        batch: 8,
        decoupled_updates: true,
        ..FuncConfig::default()
    };
    let executors = [ExecutorChoice::Reference, ExecutorChoice::Threaded];
    let outcomes: Vec<_> = executors
        .iter()
        .map(|e| {
            (
                e.label(),
                e.run(&teacher, &student, &data, &cfg)
                    .expect("executor runs"),
            )
        })
        .collect();
    let (_, golden) = &outcomes[0];
    for (name, outcome) in &outcomes[1..] {
        assert_eq!(
            outcome.max_param_diff(golden),
            0.0,
            "{name}: final parameters diverged from reference"
        );
        assert_eq!(
            outcome.losses, golden.losses,
            "{name}: per-step loss trajectory diverged from reference"
        );
    }
}

#[test]
fn single_step_gradients_are_bitwise_identical() {
    // One step, zero momentum: params move by exactly -lr * grad, so
    // bitwise-equal parameters here mean bitwise-equal gradients.
    let (teacher, student, data) = setup(4);
    let cfg = FuncConfig {
        devices: 4,
        steps: 1,
        batch: 8,
        momentum: 0.0,
        decoupled_updates: false,
        ..FuncConfig::default()
    };
    let golden = ExecutorChoice::Reference
        .run(&teacher, &student, &data, &cfg)
        .expect("reference runs");
    let threaded = ExecutorChoice::Threaded
        .run(&teacher, &student, &data, &cfg)
        .expect("threaded runs");
    assert_eq!(
        threaded.max_param_diff(&golden),
        0.0,
        "first-step gradients diverged between executors"
    );
    assert_eq!(threaded.losses, golden.losses);
}

#[test]
fn executor_names_are_distinct() {
    assert_ne!(
        ExecutorChoice::Reference.label(),
        ExecutorChoice::Threaded.label()
    );
}
