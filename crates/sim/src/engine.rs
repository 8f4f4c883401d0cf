//! The execution engine.
//!
//! Each resource executes its enqueued tasks strictly in insertion order
//! (in-order streams, like CUDA streams); a task starts when both its
//! resource is free and all its dependencies have finished.
//!
//! Because [`TaskGraph::add`] rejects forward references and every resource
//! is FIFO in insertion order, a task's start time depends only on
//! earlier-inserted tasks. Simulation is therefore a single linear pass and
//! can never deadlock — graph construction enforces acyclicity by
//! construction. The pass walks the tasks and the graph's flat edge array
//! side by side, so it touches memory strictly in order.

use crate::task::{Resource, TaskGraph, TaskId, TaskKind};
use crate::time::SimTime;

/// The timing outcome of simulating a [`TaskGraph`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimRun {
    /// Start time per task (indexed by `TaskId::index`).
    pub start: Vec<SimTime>,
    /// Finish time per task.
    pub finish: Vec<SimTime>,
    /// Stall before each task: the gap between its resource becoming free
    /// and its start, attributed to the kind of the latest-finishing
    /// dependency. Used to attribute "waiting for data" vs "waiting for
    /// relay" in the Fig. 2 breakdown.
    pub stall: Vec<(SimTime, Option<TaskKind>)>,
    /// Completion time of the whole graph.
    pub makespan: SimTime,
}

impl SimRun {
    /// Finish time of a specific task.
    pub fn finish_of(&self, id: TaskId) -> SimTime {
        self.finish[id.index()]
    }

    /// Start time of a specific task.
    pub fn start_of(&self, id: TaskId) -> SimTime {
        self.start[id.index()]
    }

    /// Steady-state period of the run of `graph`: the spread of the last
    /// `tail` per-step completion times, averaged. `steps` is the total
    /// number of `step` tags the graph was emitted with; the window must
    /// sit inside one steady regime (for DP: within the last phase).
    ///
    /// # Panics
    ///
    /// Panics if `tail >= steps`.
    pub fn round_period(&self, graph: &TaskGraph, steps: u32, tail: u32) -> SimTime {
        // Without a base step the window has no start to measure from;
        // every caller passes constants (`tail` ≪ the rounds it emitted),
        // so this names a caller bug rather than an input to recover from.
        assert!(tail < steps, "tail window must leave a base step");
        let mut end = vec![SimTime::ZERO; steps as usize];
        for (id, task) in graph.iter() {
            let s = task.step as usize;
            end[s] = end[s].max(self.finish[id.index()]);
        }
        let last = end[steps as usize - 1];
        let base = end[steps as usize - 1 - tail as usize];
        SimTime::from_ns((last.as_ns() - base.as_ns()) / u64::from(tail))
    }
}

/// Executes the task graph, returning per-task times.
///
/// Runs in `O(tasks + dependencies)`.
pub fn simulate(graph: &TaskGraph) -> SimRun {
    let n = graph.tasks.len();
    // `offsets` holds `n + 1` entries; slicing all three up front lets
    // the loop index them unchecked.
    let (tasks, offsets, edges) = (&graph.tasks[..n], &graph.offsets[..=n], &graph.edges[..]);
    let mut start = vec![SimTime::ZERO; n];
    let mut finish = vec![SimTime::ZERO; n];
    let mut stall = vec![(SimTime::ZERO, None); n];
    let mut res_free = vec![SimTime::ZERO; graph.num_resources()];
    let mut makespan = SimTime::ZERO;

    for idx in 0..n {
        let task = &tasks[idx];
        let deps = &edges[offsets[idx] as usize..offsets[idx + 1] as usize];
        let r = graph.resource_index(task.resource);
        let mut latest = SimTime::ZERO;
        let mut latest_kind = None;
        for d in deps {
            let f = finish[d.index()];
            if f >= latest {
                latest = f;
                latest_kind = Some(tasks[d.index()].kind);
            }
        }
        let free = res_free[r];
        let s = if latest > free { latest } else { free };
        let gap = s.saturating_sub(free);
        let done = s + task.duration;
        start[idx] = s;
        finish[idx] = done;
        stall[idx] = if gap > SimTime::ZERO {
            (gap, latest_kind)
        } else {
            (SimTime::ZERO, None)
        };
        res_free[r] = done;
        if done > makespan {
            makespan = done;
        }
    }

    SimRun {
        start,
        finish,
        stall,
        makespan,
    }
}

/// Total busy time per GPU rank (durations of tasks on the compute stream).
pub fn busy_per_gpu(graph: &TaskGraph) -> Vec<SimTime> {
    let mut busy = vec![SimTime::ZERO; graph.num_gpus()];
    for (_, t) in graph.iter() {
        if let Resource::Gpu(i) = t.resource {
            busy[i] += t.duration;
        }
    }
    busy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Resource::{Copy, Gpu, Loader};
    use crate::task::TaskKind::*;

    fn ns(x: u64) -> SimTime {
        SimTime::from_ns(x)
    }

    #[test]
    fn serial_tasks_on_one_resource() {
        let mut g = TaskGraph::new(1);
        let a = g.add(Gpu(0), Teacher, ns(10), &[]);
        let b = g.add(Gpu(0), Student, ns(20), &[]);
        let run = simulate(&g);
        assert_eq!(run.start_of(a).as_ns(), 0);
        assert_eq!(run.start_of(b).as_ns(), 10);
        assert_eq!(run.makespan.as_ns(), 30);
    }

    #[test]
    fn diamond_dependencies() {
        let mut g = TaskGraph::new(2);
        let a = g.add(Gpu(0), Teacher, ns(10), &[]);
        let b = g.add(Gpu(0), Student, ns(15), &[a]);
        let c = g.add(Gpu(1), Teacher, ns(5), &[a]);
        let d = g.add(Gpu(1), Student, ns(1), &[b, c]);
        let run = simulate(&g);
        assert_eq!(run.start_of(c).as_ns(), 10);
        assert_eq!(run.start_of(d).as_ns(), 25);
        assert_eq!(run.makespan.as_ns(), 26);
    }

    #[test]
    fn cross_device_pipeline_reaches_steady_state() {
        // Two-stage pipeline: stage0 on gpu0 (10ns), stage1 on gpu1 (20ns)
        // with a 1ns relay. Steady-state period = max stage time (20ns).
        let mut g = TaskGraph::new(2);
        let steps: u32 = 50;
        for s in 0..steps {
            let t0 = g.add_tagged(Gpu(0), Teacher, ns(10), &[], Some(0), s);
            let send = g.add_tagged(Copy(0), Comm, ns(1), &[t0], Some(0), s);
            g.add_tagged(Gpu(1), Teacher, ns(20), &[send], Some(1), s);
        }
        let run = simulate(&g);
        // Fill (10 + 1) then 50 periods of 20ns on the bottleneck stage.
        assert_eq!(run.makespan.as_ns(), 11 + steps as u64 * 20);
    }

    #[test]
    fn loader_is_a_shared_bottleneck() {
        let mut g = TaskGraph::new(2);
        let l0 = g.add(Loader, Load, ns(100), &[]);
        let l1 = g.add(Loader, Load, ns(100), &[]);
        let c0 = g.add(Gpu(0), Teacher, ns(10), &[l0]);
        let c1 = g.add(Gpu(1), Teacher, ns(10), &[l1]);
        let run = simulate(&g);
        assert_eq!(run.start_of(c0).as_ns(), 100);
        assert_eq!(run.start_of(c1).as_ns(), 200, "loads serialize on the pool");
        assert_eq!(run.stall[c1.index()].1, Some(Load));
    }

    #[test]
    fn stall_attribution_records_latest_dep_kind() {
        let mut g = TaskGraph::new(2);
        let t = g.add(Gpu(0), Teacher, ns(50), &[]);
        let send = g.add(Copy(0), Comm, ns(5), &[t]);
        let s = g.add(Gpu(1), Student, ns(10), &[send]);
        let run = simulate(&g);
        assert_eq!(run.stall[s.index()].0.as_ns(), 55);
        assert_eq!(run.stall[s.index()].1, Some(Comm));
    }

    #[test]
    fn copy_engine_overlaps_with_compute() {
        let mut g = TaskGraph::new(1);
        let t = g.add(Gpu(0), Teacher, ns(10), &[]);
        let send = g.add(Copy(0), Comm, ns(100), &[t]);
        let s = g.add(Gpu(0), Student, ns(10), &[t]);
        let run = simulate(&g);
        // Student runs while the copy engine transfers.
        assert_eq!(run.start_of(s).as_ns(), 10);
        assert_eq!(run.finish_of(send).as_ns(), 110);
        assert_eq!(run.makespan.as_ns(), 110);
    }

    #[test]
    fn barrier_sync_aligns_next_step() {
        // Two devices with unequal work; a Sync barrier forces the faster
        // one to wait (the TR-without-DPU behaviour).
        let mut g = TaskGraph::new(2);
        let a = g.add(Gpu(0), Student, ns(10), &[]);
        let b = g.add(Gpu(1), Student, ns(50), &[]);
        let barrier = g.add(Gpu(0), Sync, ns(0), &[a, b]);
        let next0 = g.add(Gpu(0), Teacher, ns(5), &[barrier]);
        let run = simulate(&g);
        assert_eq!(run.start_of(next0).as_ns(), 50);
    }

    #[test]
    fn busy_per_gpu_counts_compute_only() {
        let mut g = TaskGraph::new(2);
        g.add(Gpu(0), Teacher, ns(10), &[]);
        g.add(Copy(0), Comm, ns(99), &[]);
        g.add(Gpu(1), Student, ns(20), &[]);
        let busy = busy_per_gpu(&g);
        assert_eq!(busy[0].as_ns(), 10);
        assert_eq!(busy[1].as_ns(), 20);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = TaskGraph::new(1);
        let run = simulate(&g);
        assert_eq!(run.makespan, SimTime::ZERO);
    }

    #[test]
    fn start_depends_only_on_earlier_tasks() {
        // Insertion order is a valid execution order: adding unrelated
        // tasks later never changes earlier tasks' times.
        let mut g = TaskGraph::new(2);
        let a = g.add(Gpu(0), Teacher, ns(7), &[]);
        let before = simulate(&g);
        g.add(Gpu(1), Student, ns(1000), &[]);
        let after = simulate(&g);
        assert_eq!(before.start_of(a), after.start_of(a));
        assert_eq!(before.finish_of(a), after.finish_of(a));
    }
}
