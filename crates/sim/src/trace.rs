//! Per-rank time breakdowns and ASCII Gantt charts.
//!
//! The breakdown reproduces the paper's Fig. 2 categories (data loading,
//! teacher execution, student execution, idle); the Gantt chart reproduces
//! the schedule illustrations of Fig. 5b/5c.

use serde::{Deserialize, Serialize};

use crate::engine::SimRun;
use crate::task::{Resource, TaskGraph, TaskKind};
use crate::time::SimTime;

/// Time breakdown for one GPU rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankBreakdown {
    /// Consumer-side load work (collate + H2D copy) on the compute stream.
    pub load: SimTime,
    /// Stall waiting on loader-pool dependencies.
    pub load_wait: SimTime,
    /// Teacher forward execution.
    pub teacher: SimTime,
    /// Student forward + backward execution.
    pub student: SimTime,
    /// Parameter updates.
    pub update: SimTime,
    /// Gradient all-reduce time on the compute stream.
    pub grad_share: SimTime,
    /// Online replanning overhead after fault events (fault plane only;
    /// zero for healthy runs).
    pub replan: SimTime,
    /// Remaining idle time (relay waits, barrier waits).
    pub idle: SimTime,
}

impl RankBreakdown {
    /// Data-loading total as the paper groups it (own load work + stalls
    /// attributable to loading).
    pub fn data_loading(&self) -> SimTime {
        self.load + self.load_wait
    }

    /// Everything the rank spends on student work (exec + update + grad
    /// sharing), the paper's "S exec" category.
    pub fn student_total(&self) -> SimTime {
        self.student + self.update + self.grad_share
    }

    /// Busy + idle total (= makespan for every rank).
    pub fn total(&self) -> SimTime {
        self.data_loading() + self.teacher + self.student_total() + self.replan + self.idle
    }
}

/// Breakdown over all ranks of a simulated run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Breakdown {
    /// Per-rank entries, index = GPU rank.
    pub ranks: Vec<RankBreakdown>,
    /// Completion time of the run.
    pub makespan: SimTime,
}

impl Breakdown {
    /// Aggregates task durations and stalls from a simulated run.
    pub fn from_run(graph: &TaskGraph, run: &SimRun) -> Self {
        let mut ranks = vec![RankBreakdown::default(); graph.num_gpus()];
        for (id, t) in graph.iter() {
            let Resource::Gpu(rank) = t.resource else {
                continue;
            };
            let rb = &mut ranks[rank];
            match t.kind {
                TaskKind::Load => rb.load += t.duration,
                TaskKind::Teacher => rb.teacher += t.duration,
                TaskKind::Student => rb.student += t.duration,
                TaskKind::Update => rb.update += t.duration,
                TaskKind::GradShare => rb.grad_share += t.duration,
                TaskKind::Replan => rb.replan += t.duration,
                TaskKind::Comm | TaskKind::Sync => {}
            }
            let (stall, kind) = run.stall[id.index()];
            if stall > SimTime::ZERO {
                match kind {
                    Some(TaskKind::Load) => rb.load_wait += stall,
                    _ => rb.idle += stall,
                }
            }
        }
        // Pad trailing idle so every rank's total equals the makespan.
        for rb in &mut ranks {
            rb.idle += run.makespan.saturating_sub(rb.total());
        }
        Breakdown {
            ranks,
            makespan: run.makespan,
        }
    }

    /// Mean idle fraction across ranks.
    pub fn idle_fraction(&self) -> f64 {
        if self.ranks.is_empty() || self.makespan == SimTime::ZERO {
            return 0.0;
        }
        let idle: f64 = self.ranks.iter().map(|r| r.idle.as_secs_f64()).sum();
        idle / (self.ranks.len() as f64 * self.makespan.as_secs_f64())
    }
}

/// Renders an ASCII Gantt chart of the run (one row per GPU), reproducing
/// the schedule illustrations of the paper's Fig. 5b/5c.
///
/// Symbols: digits = teacher block, letters `a..` = student block,
/// `L` = load, `U` = update, `g` = gradient sharing, `R` = replanning
/// overhead, `·` = idle.
pub fn render_gantt(graph: &TaskGraph, run: &SimRun, columns: usize) -> String {
    let columns = columns.max(10);
    let span = run.makespan.as_ns().max(1);
    let mut rows = vec![vec!['\u{00b7}'; columns]; graph.num_gpus()];
    for (id, t) in graph.iter() {
        let Resource::Gpu(rank) = t.resource else {
            continue;
        };
        if t.duration == SimTime::ZERO {
            continue;
        }
        let s = run.start[id.index()].as_ns();
        let f = run.finish[id.index()].as_ns();
        let c0 = (s as u128 * columns as u128 / span as u128) as usize;
        let c1 = ((f as u128 * columns as u128).div_ceil(span as u128) as usize).min(columns);
        let ch = match t.kind {
            TaskKind::Load => 'L',
            TaskKind::Teacher => t
                .block
                .map(|b| char::from_digit((b % 10) as u32, 10).unwrap_or('T'))
                .unwrap_or('T'),
            TaskKind::Student => t
                .block
                .map(|b| (b'a' + (b % 26) as u8) as char)
                .unwrap_or('s'),
            TaskKind::Update => 'U',
            TaskKind::GradShare => 'g',
            TaskKind::Replan => 'R',
            TaskKind::Comm => '>',
            TaskKind::Sync => '|',
        };
        for col in c0..c1.max(c0 + 1).min(columns) {
            rows[rank][col] = ch;
        }
    }
    let mut out = String::new();
    for (rank, row) in rows.iter().enumerate() {
        out.push_str(&format!("gpu{rank} |"));
        out.extend(row.iter());
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "      0 {:>width$}\n",
        format!("{}", run.makespan),
        width = columns
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::task::Resource::{Copy, Gpu, Loader};

    fn ns(x: u64) -> SimTime {
        SimTime::from_ns(x)
    }

    fn sample_run() -> (TaskGraph, SimRun) {
        let mut g = TaskGraph::new(2);
        let l = g.add(Loader, TaskKind::Load, ns(30), &[]);
        let lc = g.add(Gpu(0), TaskKind::Load, ns(10), &[l]);
        let t0 = g.add_tagged(Gpu(0), TaskKind::Teacher, ns(20), &[lc], Some(0), 0);
        let send = g.add_tagged(Copy(0), TaskKind::Comm, ns(5), &[t0], Some(0), 0);
        let s0 = g.add_tagged(Gpu(0), TaskKind::Student, ns(40), &[t0], Some(0), 0);
        let u0 = g.add_tagged(Gpu(0), TaskKind::Update, ns(2), &[s0], Some(0), 0);
        let t1 = g.add_tagged(Gpu(1), TaskKind::Teacher, ns(20), &[send], Some(1), 0);
        let s1 = g.add_tagged(Gpu(1), TaskKind::Student, ns(30), &[t1], Some(1), 0);
        let u1 = g.add_tagged(Gpu(1), TaskKind::Update, ns(2), &[s1], Some(1), 0);
        let _ = (u0, u1);
        let run = simulate(&g);
        (g, run)
    }

    #[test]
    fn breakdown_sums_to_makespan_per_rank() {
        let (g, run) = sample_run();
        let b = Breakdown::from_run(&g, &run);
        for (rank, rb) in b.ranks.iter().enumerate() {
            assert_eq!(rb.total(), b.makespan, "rank {rank}");
        }
    }

    #[test]
    fn breakdown_attributes_load_wait() {
        let (g, run) = sample_run();
        let b = Breakdown::from_run(&g, &run);
        // gpu0's consumer-load waits 30ns on the loader pool.
        assert_eq!(b.ranks[0].load_wait.as_ns(), 30);
        assert_eq!(b.ranks[0].load.as_ns(), 10);
        assert_eq!(b.ranks[0].teacher.as_ns(), 20);
        assert_eq!(b.ranks[0].student.as_ns(), 40);
    }

    #[test]
    fn idle_fraction_bounded() {
        let (g, run) = sample_run();
        let b = Breakdown::from_run(&g, &run);
        let f = b.idle_fraction();
        assert!((0.0..=1.0).contains(&f), "fraction {f}");
        assert!(f > 0.0, "gpu1 idles during the relay fill");
    }

    #[test]
    fn gantt_renders_rows_and_symbols() {
        let (g, run) = sample_run();
        let chart = render_gantt(&g, &run, 40);
        assert!(chart.contains("gpu0 |"));
        assert!(chart.contains("gpu1 |"));
        assert!(chart.contains('0'), "teacher block digit");
        assert!(chart.contains('a'), "student block letter");
        assert!(chart.contains('L'), "load marker");
    }

    #[test]
    fn gantt_handles_empty_graph() {
        let g = TaskGraph::new(1);
        let run = simulate(&g);
        let chart = render_gantt(&g, &run, 20);
        assert!(chart.contains("gpu0"));
    }
}
