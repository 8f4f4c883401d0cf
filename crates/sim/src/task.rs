//! Task-graph vocabulary: resources, task kinds, and the graph builder.
//!
//! A [`TaskGraph`] is append-only: a task names only tasks added before
//! it, so insertion order is an execution order. Its edges live in one
//! flat array with per-task offsets ([`TaskGraph::deps`]); a [`Task`]
//! carries only what it is (resource, kind, duration, labels).

use crate::time::SimTime;

/// Identifies a task within a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) u32);

impl TaskId {
    /// The dense index of this task.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

/// An execution resource in the simulated server.
///
/// Every resource executes its tasks serially, in enqueue order (like a
/// CUDA stream). Compute and copy are separate resources per device so
/// transfers overlap with kernels, as the paper's implementation does; the
/// loader pool is a single shared resource, which is what makes redundant
/// data loading expensive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Compute stream of GPU `i`.
    Gpu(usize),
    /// Copy engine (DMA) of GPU `i`.
    Copy(usize),
    /// The shared host loader worker pool.
    Loader,
}

/// What a task represents (used for breakdowns and Gantt rendering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Batch decode on the loader pool, or consumer-side collate + H2D copy.
    Load,
    /// Teacher block forward pass.
    Teacher,
    /// Student block forward + backward.
    Student,
    /// Parameter update.
    Update,
    /// Point-to-point activation relay.
    Comm,
    /// Data-parallel gradient all-reduce.
    GradShare,
    /// Zero-duration synchronization marker.
    Sync,
    /// Online replanning overhead after a fault event: re-running the AHD
    /// search and redistributing parameters/optimizer state before the
    /// next segment's schedule starts.
    Replan,
}

/// One node of the simulated execution DAG (its dependencies are the
/// graph's: [`TaskGraph::deps`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Where the task runs.
    pub resource: Resource,
    /// What it represents.
    pub kind: TaskKind,
    /// How long it takes.
    pub duration: SimTime,
    /// Block index for trace labeling (if block-associated).
    pub block: Option<u16>,
    /// Training step this task belongs to (for trace filtering).
    pub step: u32,
}

/// A builder for the execution DAG of one (or a few) training epochs.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    pub(crate) tasks: Vec<Task>,
    /// Every task's dependencies, back to back in task order: task `i`'s
    /// are `edges[offsets[i]..offsets[i + 1]]` (`offsets[0] = 0`).
    pub(crate) edges: Vec<TaskId>,
    pub(crate) offsets: Vec<u32>,
    pub(crate) num_gpus: usize,
}

impl TaskGraph {
    /// Creates an empty graph over `num_gpus` devices.
    pub fn new(num_gpus: usize) -> Self {
        TaskGraph {
            tasks: Vec::new(),
            edges: Vec::new(),
            offsets: vec![0],
            num_gpus,
        }
    }

    /// Makes room for `tasks` more tasks with `edges` more dependencies.
    pub fn reserve(&mut self, tasks: usize, edges: usize) {
        self.tasks.reserve(tasks);
        self.offsets.reserve(tasks);
        self.edges.reserve(edges);
    }

    /// Number of GPUs in the simulated server.
    pub fn num_gpus(&self) -> usize {
        self.num_gpus
    }

    /// Number of tasks added so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Number of dependency edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a task and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a dependency id is out of range (forward references are
    /// impossible by construction) or the resource names a GPU outside the
    /// configured device count.
    pub fn add(
        &mut self,
        resource: Resource,
        kind: TaskKind,
        duration: SimTime,
        deps: &[TaskId],
    ) -> TaskId {
        self.add_tagged(resource, kind, duration, deps, None, 0)
    }

    /// Adds a task with a block label and step index for tracing.
    ///
    /// # Panics
    ///
    /// Same conditions as [`TaskGraph::add`].
    pub fn add_tagged(
        &mut self,
        resource: Resource,
        kind: TaskKind,
        duration: SimTime,
        deps: &[TaskId],
        block: Option<u16>,
        step: u32,
    ) -> TaskId {
        // Both checks guard the engine's single pass (clocks indexed by
        // GPU, each dependency finished before its dependent). Only
        // `add_tagged` makes a `TaskId`, so a bad one is another graph's.
        match resource {
            Resource::Gpu(i) | Resource::Copy(i) => {
                assert!(
                    i < self.num_gpus,
                    "resource names GPU {i} of {}",
                    self.num_gpus
                )
            }
            Resource::Loader => {}
        }
        let id = TaskId(self.tasks.len() as u32);
        if let Some(d) = deps.iter().find(|d| d.0 >= id.0) {
            panic!("dependency {d:?} not yet added");
        }
        self.tasks.push(Task {
            resource,
            kind,
            duration,
            block,
            step,
        });
        self.edges.extend_from_slice(deps);
        // Edges are counted in `u32`, as task ids are.
        self.offsets.push(self.edges.len() as u32);
        id
    }

    /// Read access to a task.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// The tasks that must finish before `id` starts, in the order they
    /// were given to [`TaskGraph::add_tagged`].
    pub fn deps(&self, id: TaskId) -> &[TaskId] {
        let i = id.index();
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterates over `(TaskId, &Task)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId(i as u32), t))
    }

    /// Dense resource index used by the engine.
    pub(crate) fn resource_index(&self, r: Resource) -> usize {
        match r {
            Resource::Gpu(i) => i,
            Resource::Copy(i) => self.num_gpus + i,
            Resource::Loader => 2 * self.num_gpus,
        }
    }

    /// Total number of distinct resources.
    pub(crate) fn num_resources(&self) -> usize {
        2 * self.num_gpus + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query() {
        let mut g = TaskGraph::new(2);
        let a = g.add(
            Resource::Gpu(0),
            TaskKind::Teacher,
            SimTime::from_ns(10),
            &[],
        );
        let b = g.add(
            Resource::Gpu(1),
            TaskKind::Student,
            SimTime::from_ns(5),
            &[a],
        );
        assert_eq!(g.len(), 2);
        assert_eq!(g.deps(b), &[a]);
        assert_eq!(g.task(a).kind, TaskKind::Teacher);
    }

    #[test]
    fn deps_keep_their_order_and_their_task() {
        // Each task reads back exactly the slice it was given, duplicates
        // and order included, whatever its neighbours hold.
        let mut g = TaskGraph::new(2);
        let a = g.add(Resource::Gpu(0), TaskKind::Teacher, SimTime::ZERO, &[]);
        let b = g.add(Resource::Gpu(1), TaskKind::Teacher, SimTime::ZERO, &[a]);
        let c = g.add(Resource::Loader, TaskKind::Load, SimTime::ZERO, &[b, a, b]);
        let d = g.add(Resource::Copy(1), TaskKind::Comm, SimTime::ZERO, &[]);
        let e = g.add(
            Resource::Gpu(0),
            TaskKind::Sync,
            SimTime::ZERO,
            &[d, c, a, b],
        );
        assert_eq!(g.deps(a), &[]);
        assert_eq!(g.deps(b), &[a]);
        assert_eq!(g.deps(c), &[b, a, b]);
        assert_eq!(g.deps(d), &[]);
        assert_eq!(g.deps(e), &[d, c, a, b]);
        assert_eq!(g.num_edges(), 8);
    }

    #[test]
    fn empty_dependency_slices_cost_no_edges() {
        let mut g = TaskGraph::new(1);
        g.reserve(3, 0);
        for _ in 0..3 {
            let id = g.add(Resource::Gpu(0), TaskKind::Update, SimTime::ZERO, &[]);
            assert!(g.deps(id).is_empty());
        }
        assert_eq!((g.len(), g.num_edges()), (3, 0));
        assert!(TaskGraph::new(1).is_empty());
    }

    #[test]
    #[should_panic(expected = "not yet added")]
    fn forward_dependency_panics() {
        let mut g = TaskGraph::new(1);
        g.add(
            Resource::Gpu(0),
            TaskKind::Teacher,
            SimTime::ZERO,
            &[TaskId(5)],
        );
    }

    #[test]
    #[should_panic(expected = "not yet added")]
    fn self_dependency_panics() {
        // The id a task is about to get is a forward reference too.
        let mut g = TaskGraph::new(1);
        let a = g.add(Resource::Gpu(0), TaskKind::Teacher, SimTime::ZERO, &[]);
        g.add(
            Resource::Gpu(0),
            TaskKind::Teacher,
            SimTime::ZERO,
            &[a, TaskId(1)],
        );
    }

    #[test]
    fn a_refused_task_leaves_the_graph_unchanged() {
        let mut g = TaskGraph::new(1);
        let a = g.add(Resource::Gpu(0), TaskKind::Teacher, SimTime::ZERO, &[]);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.add(
                Resource::Gpu(0),
                TaskKind::Student,
                SimTime::ZERO,
                &[a, TaskId(7)],
            )
        }));
        assert!(refused.is_err());
        assert_eq!((g.len(), g.num_edges()), (1, 0));
        let b = g.add(Resource::Gpu(0), TaskKind::Student, SimTime::ZERO, &[a]);
        assert_eq!(g.deps(b), &[a]);
    }

    #[test]
    #[should_panic(expected = "resource names GPU")]
    fn out_of_range_gpu_panics() {
        let mut g = TaskGraph::new(2);
        g.add(Resource::Gpu(2), TaskKind::Teacher, SimTime::ZERO, &[]);
    }

    #[test]
    fn resource_indices_are_dense_and_distinct() {
        let g = TaskGraph::new(3);
        let mut seen = std::collections::HashSet::new();
        for i in 0..3 {
            assert!(seen.insert(g.resource_index(Resource::Gpu(i))));
            assert!(seen.insert(g.resource_index(Resource::Copy(i))));
        }
        assert!(seen.insert(g.resource_index(Resource::Loader)));
        assert_eq!(seen.len(), g.num_resources());
    }
}
