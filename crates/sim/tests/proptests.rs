//! Property-based tests for the event engine: dependency and resource
//! exclusivity invariants hold for arbitrary random task graphs.

use pipebd_sim::{simulate, Resource, SimTime, TaskGraph, TaskId, TaskKind};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandTask {
    gpu: usize,
    copy_stream: bool,
    dur_ns: u64,
    /// Dependencies as back-offsets from this task's index.
    dep_offsets: Vec<usize>,
}

fn rand_tasks(max: usize) -> impl Strategy<Value = Vec<RandTask>> {
    proptest::collection::vec(
        (
            0usize..3,
            any::<bool>(),
            0u64..1000,
            proptest::collection::vec(1usize..8, 0..3),
        )
            .prop_map(|(gpu, copy_stream, dur_ns, dep_offsets)| RandTask {
                gpu,
                copy_stream,
                dur_ns,
                dep_offsets,
            }),
        1..max,
    )
}

/// Task `i`'s dependencies: its back-offsets that land inside the graph.
fn dep_indices(tasks: &[RandTask], i: usize) -> Vec<usize> {
    tasks[i]
        .dep_offsets
        .iter()
        .filter_map(|&off| i.checked_sub(off))
        .collect()
}

fn build(tasks: &[RandTask]) -> TaskGraph {
    let mut g = TaskGraph::new(3);
    let mut ids: Vec<TaskId> = Vec::new();
    for (i, t) in tasks.iter().enumerate() {
        let deps: Vec<TaskId> = dep_indices(tasks, i).into_iter().map(|j| ids[j]).collect();
        let resource = if t.copy_stream {
            Resource::Copy(t.gpu)
        } else {
            Resource::Gpu(t.gpu)
        };
        ids.push(g.add(
            resource,
            TaskKind::Teacher,
            SimTime::from_ns(t.dur_ns),
            &deps,
        ));
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn starts_respect_dependencies(tasks in rand_tasks(40)) {
        let g = build(&tasks);
        let run = simulate(&g);
        for (id, _) in g.iter() {
            for d in g.deps(id) {
                prop_assert!(
                    run.start[id.index()] >= run.finish[d.index()],
                    "task {} started before dep {} finished",
                    id.index(),
                    d.index()
                );
            }
        }
    }

    #[test]
    fn each_task_reads_back_the_deps_it_was_given(tasks in rand_tasks(40)) {
        // The flat edge store against a per-task list: same deps, same
        // order, none borrowed from a neighbour.
        let g = build(&tasks);
        prop_assert_eq!(g.len(), tasks.len());
        let mut edges = 0;
        for (id, _) in g.iter() {
            let read: Vec<usize> = g.deps(id).iter().map(|d| d.index()).collect();
            let given = dep_indices(&tasks, id.index());
            edges += given.len();
            prop_assert_eq!(read, given);
        }
        prop_assert_eq!(g.num_edges(), edges);
    }

    #[test]
    fn resources_never_overlap(tasks in rand_tasks(40)) {
        let g = build(&tasks);
        let run = simulate(&g);
        // Group intervals per resource and check pairwise disjointness.
        let mut by_resource: std::collections::HashMap<String, Vec<(u64, u64)>> =
            std::collections::HashMap::new();
        for (id, task) in g.iter() {
            by_resource
                .entry(format!("{:?}", task.resource))
                .or_default()
                .push((run.start[id.index()].as_ns(), run.finish[id.index()].as_ns()));
        }
        for intervals in by_resource.values_mut() {
            intervals.sort_unstable();
            for w in intervals.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "overlap: {:?}", w);
            }
        }
    }

    #[test]
    fn makespan_is_max_finish(tasks in rand_tasks(40)) {
        let g = build(&tasks);
        let run = simulate(&g);
        let max = run.finish.iter().copied().max().unwrap_or(SimTime::ZERO);
        prop_assert_eq!(run.makespan, max);
    }

    #[test]
    fn appending_tasks_never_changes_history(tasks in rand_tasks(30), extra in rand_tasks(8)) {
        let g1 = build(&tasks);
        let run1 = simulate(&g1);
        let mut combined = tasks.clone();
        combined.extend(extra);
        let g2 = build(&combined);
        let run2 = simulate(&g2);
        for i in 0..tasks.len() {
            prop_assert_eq!(run1.start[i], run2.start[i]);
            prop_assert_eq!(run1.finish[i], run2.finish[i]);
        }
    }

    #[test]
    fn zero_duration_tasks_are_instant(gpu in 0usize..3) {
        let mut g = TaskGraph::new(3);
        let a = g.add(Resource::Gpu(gpu), TaskKind::Teacher, SimTime::from_ns(100), &[]);
        let sync = g.add(Resource::Gpu(gpu), TaskKind::Sync, SimTime::ZERO, &[a]);
        let run = simulate(&g);
        prop_assert_eq!(run.start_of(sync), run.finish_of(sync));
        prop_assert_eq!(run.start_of(sync), run.finish_of(a));
    }
}
