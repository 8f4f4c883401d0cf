//! The buffer recycler under the real executors: after warm-up a step
//! allocates no activation, a longer run idles no more memory than a short
//! one, and recycling changes no bit of the result.
//!
//! The counters are the trace plane's `recycle.*` metrics (full mode), so
//! this also pins `DeviceRegistry::retire`'s fold. Activations here are
//! above the recycler's floor (the other suites' 8 x 8 images are not).
//! Updates are coupled: every buffer is home before the step barrier
//! releases, which is what makes the counts exact rather than bounds.
//! The last test decouples them, where the relay's back-pressure is what
//! bounds the boundaries in flight.

use std::sync::{Arc, Mutex};

use pipebd_core::exec::threaded::{self, RunHooks};
use pipebd_core::exec::{reference, FuncConfig, FuncOutcome};
use pipebd_data::SyntheticImageDataset;
use pipebd_models::{mini_student_dsconv, mini_teacher, MiniConfig};
use pipebd_nn::{Block, BlockNet, Layer, Mode, Param, Sequential};
use pipebd_sched::StagePlan;
use pipebd_tensor::{Rng64, SharedTensor, Tensor};
use pipebd_trace::{TraceCollector, TraceMode};

const BLOCKS: usize = 2;
const DEVICES: usize = 2;

fn setup() -> (BlockNet, BlockNet, SyntheticImageDataset) {
    let cfg = MiniConfig {
        blocks: BLOCKS,
        channels: 8,
        batch_norm: false,
    };
    let mut rng = Rng64::seed_from_u64(18);
    let teacher = mini_teacher(cfg, &mut rng);
    let student = mini_student_dsconv(cfg, &mut rng);
    (teacher, student, SyntheticImageDataset::mini(64, 32, 4, 5))
}

fn config(stages: &[(usize, usize)], steps: usize) -> FuncConfig {
    FuncConfig {
        devices: DEVICES,
        steps,
        batch: 8,
        plan: Some(StagePlan::from_widths(stages, BLOCKS, DEVICES).unwrap()),
        decoupled_updates: false,
        pool_size: Some(DEVICES),
        ..FuncConfig::default()
    }
}

/// `(reused, fresh, idle_peak_bytes)` over a run's devices, and its outcome.
fn traced_run(
    nets: &(BlockNet, BlockNet, SyntheticImageDataset),
    cfg: &FuncConfig,
) -> ((u64, u64, u64), FuncOutcome) {
    let (teacher, student, data) = nets;
    let collector = TraceCollector::new(TraceMode::Full);
    let hooks = RunHooks {
        trace: Some(Arc::clone(&collector)),
        ..RunHooks::default()
    };
    let outcome = threaded::run_hooked(teacher, student, data, cfg, &hooks).unwrap();
    let metrics = collector.drain().metrics;
    let count = |name: &str| metrics.counter(name).unwrap_or_else(|| panic!("no {name}"));
    let counts = (
        count("recycle.reused"),
        count("recycle.fresh"),
        count("recycle.idle_peak_bytes"),
    );
    (counts, outcome)
}

#[test]
fn recycled_steady_state_allocates_nothing_on_either_plan_shape() {
    // Relay (the boundary comes home from the next stage's thread), and
    // batch split (gradients cross threads, activations do not).
    let shapes: [(&str, &[(usize, usize)]); 2] = [
        ("2-stage width-1", &[(1, 1), (1, 1)]),
        ("1-stage width-2", &[(2, 2)]),
    ];
    let nets = setup();
    for (name, stages) in shapes {
        let ((short_reused, short_fresh, short_idle), _) = traced_run(&nets, &config(stages, 4));
        let ((long_reused, long_fresh, long_idle), _) = traced_run(&nets, &config(stages, 12));
        assert!(short_fresh > 0, "{name}: nothing reached the recycler");
        assert_eq!(long_fresh, short_fresh, "{name}: steps 5..12 allocated");
        assert!(long_reused > 2 * short_reused, "{name}");
        assert!(
            long_idle <= short_idle,
            "{name}: idle bytes grew with the run, {short_idle} -> {long_idle}"
        );
    }
}

#[test]
fn recycled_runs_match_the_reference_bit_for_bit() {
    let nets = setup();
    let cfg = config(&[(1, 1), (1, 1)], 5);
    let ((reused, ..), threaded) = traced_run(&nets, &cfg);
    assert!(
        reused > 0,
        "the run never recycled: nothing is being tested"
    );
    let golden = reference::run(&nets.0, &nets.1, &nets.2, &cfg).unwrap();
    assert_eq!(threaded.max_param_diff(&golden), 0.0);
    assert_eq!(threaded.max_loss_diff(&golden), 0.0);
    // Decoupled, buffers come home in a different order; same bits.
    let decoupled = FuncConfig {
        decoupled_updates: true,
        ..cfg
    };
    let (_, free_running) = traced_run(&nets, &decoupled);
    assert_eq!(free_running.max_param_diff(&golden), 0.0);
    assert_eq!(free_running.max_loss_diff(&golden), 0.0);
}

/// Ends a student block: passes everything through and owns one parameter
/// big enough for its gradient to live in a recycled buffer. Records where
/// each averaged gradient the executor installs lives.
#[derive(Clone)]
struct BigParam {
    w: Param,
    /// Buffer address of every installed average, in installation order
    /// (shared by the stage's members: they are clones of one block).
    installed: Arc<Mutex<Vec<usize>>>,
}

const BIG: usize = 48 * 1024;

impl Layer for BigParam {
    fn forward(&mut self, x: &Tensor, _: Mode) -> pipebd_tensor::Result<Tensor> {
        Ok(x.clone())
    }
    fn backward(&mut self, dy: &Tensor) -> pipebd_tensor::Result<Tensor> {
        self.w.accumulate_grad(Tensor::full(&[BIG], dy.sum()))?;
        Ok(dy.clone())
    }
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        // Empty before the visit and live after it: the gather had moved
        // the local gradient out, and this visit installed the average.
        let was_empty = self.w.grad.numel() == 0;
        f(&mut self.w);
        if was_empty && self.w.grad.numel() != 0 {
            let at = self.w.grad.data().as_ptr() as usize;
            self.installed.lock().unwrap().push(at);
        }
    }
    fn name(&self) -> &'static str {
        "big-param"
    }
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[test]
fn recycled_width_2_members_step_off_one_averaged_allocation() {
    // The gradient write-back is a clone per member, not a copy: after
    // every gather both members' params point at the *same* averaged
    // buffer, the optimizer reads it in place, and clearing it lets go
    // instead of writing zeros through copy-on-write.
    let (teacher, student, data) = setup();
    let installed = Arc::<Mutex<Vec<usize>>>::default();
    let big = BigParam {
        w: Param::weight(Tensor::zeros(&[BIG])),
        installed: Arc::clone(&installed),
    };
    let last = Block::new(
        "wrapped",
        Sequential::new(vec![Box::new(student.block(1).clone()), Box::new(big)]),
    );
    let with_big = BlockNet::new(vec![student.block(0).clone(), last]);
    let fresh_of = |student: &BlockNet, steps: usize| {
        let nets = (teacher.clone(), student.clone(), data.clone());
        traced_run(&nets, &config(&[(2, 2)], steps)).0 .1
    };
    let mut fresh = Vec::new();
    for steps in [2, 6] {
        installed.lock().unwrap().clear();
        fresh.push(fresh_of(&with_big, steps));
        let installed = installed.lock().unwrap();
        assert_eq!(
            installed.len(),
            2 * steps,
            "one average per member per step"
        );
        // Coupled updates: a step's two installations are adjacent.
        for (step, pair) in installed.chunks(2).enumerate() {
            assert_eq!(pair[0], pair[1], "step {step}: the members hold copies");
        }
    }
    // Step 0 adds into the constructor's zeros and allocates the velocity;
    // from step 1 the gradient is the backward pass's own buffer, moved in.
    // Nothing after that allocates, and the parameter costs each member two
    // buffers for the whole run: a copy per step would show here.
    assert_eq!(fresh[1], fresh[0], "steps 3..6 allocated");
    assert_eq!(fresh[1], fresh_of(&student, 6) + 2 * DEVICES as u64);
}

/// Every boundary stage 0 has relayed, in step order: one extra handle each.
type Relayed = Arc<Mutex<Vec<SharedTensor>>>;

/// Ends stage 0's teacher block: passes its input through and keeps a
/// handle to it, which is the buffer the block relays.
#[derive(Clone)]
struct Witness(Relayed);

/// Ends stage 1's student block: passes everything through, and at the
/// optimizer's first visit after a forward pass — past the step barrier —
/// requires that step's relayed boundary to have no holder but the witness.
#[derive(Clone)]
struct AfterBarrier {
    relayed: Relayed,
    forwards: usize,
    checked: usize,
}

impl Layer for Witness {
    fn forward(&mut self, x: &Tensor, _: Mode) -> pipebd_tensor::Result<Tensor> {
        self.0.lock().unwrap().push(SharedTensor::new(x.clone()));
        Ok(x.clone())
    }
    fn backward(&mut self, dy: &Tensor) -> pipebd_tensor::Result<Tensor> {
        Ok(dy.clone())
    }
    fn visit_params(&mut self, _: &mut dyn FnMut(&mut Param)) {}
    fn name(&self) -> &'static str {
        "witness"
    }
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Layer for AfterBarrier {
    fn forward(&mut self, x: &Tensor, _: Mode) -> pipebd_tensor::Result<Tensor> {
        self.forwards += 1;
        Ok(x.clone())
    }
    fn backward(&mut self, dy: &Tensor) -> pipebd_tensor::Result<Tensor> {
        Ok(dy.clone())
    }
    fn visit_params(&mut self, _: &mut dyn FnMut(&mut Param)) {
        if self.checked < self.forwards {
            self.checked = self.forwards;
            let step = self.forwards - 1;
            let holders = self.relayed.lock().unwrap()[step].ref_count();
            assert_eq!(holders, 1, "step {step}: the boundary is still held");
        }
    }
    fn name(&self) -> &'static str {
        "after-barrier"
    }
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[test]
fn recycled_boundaries_are_released_before_the_step_barrier() {
    // Neither stage may hold the relayed activation (or stage 0 its
    // teacher boundaries) through the barrier and the update: by then the
    // buffer must be free to go home. Coupled updates order the check
    // after both stages' student loops, so it is exact.
    let (teacher, student, data) = setup();
    let relayed = Relayed::default();
    let then = |block: &Block, last: Box<dyn Layer>| {
        Block::new(
            "wrapped",
            Sequential::new(vec![Box::new(block.clone()), last]),
        )
    };
    let teacher = BlockNet::new(vec![
        then(teacher.block(0), Box::new(Witness(Arc::clone(&relayed)))),
        teacher.block(1).clone(),
    ]);
    let after_barrier = AfterBarrier {
        relayed: Arc::clone(&relayed),
        forwards: 0,
        checked: 0,
    };
    let student = BlockNet::new(vec![
        student.block(0).clone(),
        then(student.block(1), Box::new(after_barrier)),
    ]);
    let cfg = config(&[(1, 1), (1, 1)], 4);
    threaded::run(&teacher, &student, &data, &cfg).unwrap();
    assert_eq!(relayed.lock().unwrap().len(), 4, "one boundary per step");
}

/// Ends a teacher block: passes its input through, counts its stage's
/// steps and naps, so a test sets each stage's pace and reads how far
/// apart they got.
#[derive(Clone)]
struct Pace {
    /// Steps this stage has begun, and the other stage.
    mine: Arc<Mutex<usize>>,
    theirs: Arc<Mutex<usize>>,
    /// On the upstream stage: the most steps it was ahead at any call.
    lead: Option<Arc<Mutex<usize>>>,
    nap: std::time::Duration,
}

impl Layer for Pace {
    fn forward(&mut self, x: &Tensor, _: Mode) -> pipebd_tensor::Result<Tensor> {
        let step = {
            let mut mine = self.mine.lock().unwrap();
            *mine += 1;
            *mine - 1
        };
        if let Some(lead) = &self.lead {
            let begun = *self.theirs.lock().unwrap();
            let mut lead = lead.lock().unwrap();
            *lead = (*lead).max(step.saturating_sub(begun));
        }
        std::thread::sleep(self.nap);
        Ok(x.clone())
    }
    fn backward(&mut self, dy: &Tensor) -> pipebd_tensor::Result<Tensor> {
        Ok(dy.clone())
    }
    fn visit_params(&mut self, _: &mut dyn FnMut(&mut Param)) {}
    fn name(&self) -> &'static str {
        "pace"
    }
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[test]
fn recycled_boundaries_in_flight_are_bounded_under_a_slow_downstream_stage() {
    // Decoupled updates, stage 1 napping 20 ms a step: unchecked, stage 0
    // would finish its 10 steps while stage 1 is on its second, with eight
    // boundaries queued — eight fresh buffers. The relay's back-pressure
    // holds stage 0 at the top of step `s` until stage 1 has taken
    // boundary `s - 2`, so when stage 0 produces boundary `s`, stage 1 has
    // begun steps `0..s - 2` at least.
    let (teacher, student, data) = setup();
    let (upstream, downstream, lead) = <(Arc<_>, Arc<_>, Arc<_>)>::default();
    let pace = |block: &Block, pace: Pace| {
        Block::new(
            "paced",
            Sequential::new(vec![Box::new(block.clone()), Box::new(pace)]),
        )
    };
    let teacher = BlockNet::new(vec![
        pace(
            teacher.block(0),
            Pace {
                mine: Arc::clone(&upstream),
                theirs: Arc::clone(&downstream),
                lead: Some(Arc::clone(&lead)),
                nap: std::time::Duration::ZERO,
            },
        ),
        pace(
            teacher.block(1),
            Pace {
                mine: Arc::clone(&downstream),
                theirs: Arc::clone(&upstream),
                lead: None,
                nap: std::time::Duration::from_millis(20),
            },
        ),
    ]);
    let cfg = FuncConfig {
        decoupled_updates: true,
        ..config(&[(1, 1), (1, 1)], 10)
    };
    let paced = threaded::run(&teacher, &student, &data, &cfg).unwrap();
    let lead = *lead.lock().unwrap();
    assert!(lead >= 1, "stage 0 never led: nothing is being tested");
    assert!(lead <= 2, "stage 0 ran {lead} steps ahead of stage 1");
    // Waiting changes when a step runs, never what it computes.
    let golden = reference::run(&teacher, &student, &data, &cfg).unwrap();
    assert_eq!(paced.max_param_diff(&golden), 0.0);
    assert_eq!(paced.max_loss_diff(&golden), 0.0);
}
