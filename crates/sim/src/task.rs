//! Task-graph vocabulary: resources, task kinds, and the graph builder.

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

/// One node of the simulated execution DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Where the task runs.
    pub resource: Resource,
    /// What it represents.
    pub kind: TaskKind,
    /// How long it takes.
    pub duration: SimTime,
    /// Tasks that must finish before this one starts.
    pub deps: Vec<TaskId>,
    /// Block index for trace labeling (if block-associated).
    pub block: Option<u16>,
    /// Training step this task belongs to (for trace filtering).
    pub step: u32,
}

/// A builder for the execution DAG of one (or a few) training epochs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskGraph {
    pub(crate) tasks: Vec<Task>,
    pub(crate) num_gpus: usize,
}

impl TaskGraph {
    /// Creates an empty graph over `num_gpus` devices.
    pub fn new(num_gpus: usize) -> Self {
        TaskGraph {
            tasks: Vec::new(),
            num_gpus,
        }
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
        deps: Vec<TaskId>,
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
        deps: Vec<TaskId>,
        block: Option<u16>,
        step: u32,
    ) -> TaskId {
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
        for d in &deps {
            assert!(
                d.index() < self.tasks.len(),
                "dependency {:?} not yet added",
                d
            );
        }
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(Task {
            resource,
            kind,
            duration,
            deps,
            block,
            step,
        });
        id
    }

    /// Read access to a task.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
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
            vec![],
        );
        let b = g.add(
            Resource::Gpu(1),
            TaskKind::Student,
            SimTime::from_ns(5),
            vec![a],
        );
        assert_eq!(g.len(), 2);
        assert_eq!(g.task(b).deps, vec![a]);
        assert_eq!(g.task(a).kind, TaskKind::Teacher);
    }

    #[test]
    #[should_panic(expected = "not yet added")]
    fn forward_dependency_panics() {
        let mut g = TaskGraph::new(1);
        g.add(
            Resource::Gpu(0),
            TaskKind::Teacher,
            SimTime::ZERO,
            vec![TaskId(5)],
        );
    }

    #[test]
    #[should_panic(expected = "resource names GPU")]
    fn out_of_range_gpu_panics() {
        let mut g = TaskGraph::new(2);
        g.add(Resource::Gpu(2), TaskKind::Teacher, SimTime::ZERO, vec![]);
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
