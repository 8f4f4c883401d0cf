//! Umbrella-level smoke of the conformance plane: the `pipe_bd::testkit`
//! re-export enumerates the matrix and one cheap scenario passes end to
//! end. The full sweep lives in `crates/testkit/tests/conformance.rs`
//! and in the `regression_gate` CI lane; this test pins only that the
//! plane is reachable through the public umbrella API.

use pipe_bd::core::ExecutorChoice;
use pipe_bd::testkit::{enumerate, run_scenario, ConformanceStrategy, ToleranceBook};

#[test]
fn conformance_plane_is_wired_through_the_umbrella() {
    let all = enumerate();
    assert!(all.len() >= 60, "matrix shrank to {}", all.len());

    let scenario = all
        .iter()
        .find(|s| {
            s.blocks == 3
                && s.ranks == 2
                && s.strategy == ConformanceStrategy::TrIr
                && s.subject == ExecutorChoice::Threaded
        })
        .expect("small IR scenario exists");
    let outcome = run_scenario(scenario, &ToleranceBook::gate_default());
    assert!(outcome.pass, "{}: {}", outcome.id, outcome.detail);
}
