//! `--compare A.json B.json`: B against A, metric by metric.
//!
//! One row per workload × end-to-end metric with both medians and
//! quartiles. A row is a **regression** when B's median is worse than A's
//! by more than the metric's bound (for `failed_share`: by anything at
//! all); it is **unresolved**, not unchanged, when either side's spread
//! (interquartile distance over median) exceeds the bound — unless every
//! value of B is better than every value of A. Any regression makes the
//! exit code non-zero.

use std::path::Path;

use crate::metrics::{Better, MetricDef, END_TO_END, FAILED_SHARE};
use crate::record::{SetRecord, WorkloadRecord};
use crate::stats::{summarize, Summary};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regression,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub def: &'static MetricDef,
    pub a: Summary,
    pub b: Summary,
    /// B's median relative to A's, positive when worse.
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// A metric's value series in one set: one value per untraced run, or —
/// for a set of a single run — that run's own median and quartiles over
/// its reps. `failed_share` is one value: failed-or-incorrect runs ÷ runs
/// attempted over every run of the workload, untraced and traced.
fn series(w: &WorkloadRecord, metric: &str) -> Result<(Summary, Vec<f64>), String> {
    if metric == FAILED_SHARE.name {
        let runs = || w.untraced.iter().chain([&w.traced]);
        let attempted: u64 = runs().map(|r| r.tally.attempted).sum();
        let failed: u64 = runs().map(|r| r.tally.failed).sum();
        let share = failed as f64 / attempted.max(1) as f64;
        return Ok((Summary::single(share), vec![share]));
    }
    let per_run: Vec<Summary> = w
        .untraced
        .iter()
        .map(|r| {
            r.metrics
                .iter()
                .find(|(name, _)| name == metric)
                .map(|(_, s)| *s)
                .ok_or_else(|| format!("{}: no `{metric}`", r.workload))
        })
        .collect::<Result<_, _>>()?;
    match per_run.as_slice() {
        [] => Err("a workload has no untraced run".into()),
        [only] => Ok((*only, vec![only.q1, only.value, only.q3])),
        many => {
            let values: Vec<f64> = many.iter().map(|s| s.value).collect();
            Ok((summarize(&values), values))
        }
    }
}

fn judge(def: &MetricDef, a: (Summary, Vec<f64>), b: (Summary, Vec<f64>)) -> (f64, Verdict) {
    let ((sa, va), (sb, vb)) = (a, b);
    let delta = match def.better {
        Better::Higher => sa.value - sb.value,
        Better::Lower => sb.value - sa.value,
    };
    let worse_by = if sa.value == 0.0 {
        delta
    } else {
        delta / sa.value.abs()
    };
    if worse_by > def.bound {
        return (worse_by, Verdict::Regression);
    }
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let b_wins_every_pair = match def.better {
        Better::Higher => min(&vb) > max(&va),
        Better::Lower => max(&vb) < min(&va),
    };
    if sa.spread().max(sb.spread()) > def.bound && !b_wins_every_pair {
        return (worse_by, Verdict::Unresolved);
    }
    (worse_by, Verdict::Ok)
}

/// Every row of B against A.
///
/// # Errors
///
/// Returns an error when the sets do not hold the same workloads and
/// metrics, or when either is a `--quick` smoke run.
pub fn compare(a: &SetRecord, b: &SetRecord) -> Result<Vec<Row>, String> {
    if !(a.header.comparable && b.header.comparable) {
        return Err("a --quick set is stamped `comparable: false` and cannot be compared".into());
    }
    if a.workloads.len() != b.workloads.len() {
        return Err("the sets hold different workloads".into());
    }
    let mut rows = Vec::new();
    for (wa, wb) in a.workloads.iter().zip(&b.workloads) {
        let workload = wa.traced.workload.clone();
        if wb.traced.workload != workload {
            return Err("the sets hold different workloads".into());
        }
        for def in END_TO_END.iter().chain([&FAILED_SHARE]) {
            let (sa, sb) = (series(wa, def.name)?, series(wb, def.name)?);
            let (a, b) = (sa.0, sb.0);
            let (worse_by, verdict) = judge(def, sa, sb);
            rows.push(Row {
                workload: workload.clone(),
                def,
                a,
                b,
                worse_by,
                verdict,
            });
        }
    }
    Ok(rows)
}

fn load(path: &Path) -> Result<SetRecord, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    pipebd_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints the comparison; `Ok(true)` when no row regressed.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    for (label, set) in [("A", &a), ("B", &b)] {
        let h = &set.header;
        println!(
            "{label}: git {}  seed {}  runs {}  run_seconds {}  nproc {}  simd tier {}  kernel policy {}",
            h.git_revision, h.seed, set.runs, h.run_seconds, h.nproc, h.simd_tier, h.kernel_policy
        );
    }
    let rows = compare(&a, &b)?;
    println!(
        "{:<13} {:<24} {:>13} {:>26} {:>13} {:>26} {:>8}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "worse by"
    );
    for r in &rows {
        println!(
            "{:<13} {:<24} {:>13.5} {:>26} {:>13.5} {:>26} {:>+7.1}%  {} (bound {:.0}%, {})",
            r.workload,
            r.def.name,
            r.a.value,
            format!("{:.5}..{:.5}", r.a.q1, r.a.q3),
            r.b.value,
            format!("{:.5}..{:.5}", r.b.q1, r.b.q3),
            100.0 * r.worse_by,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Unresolved => "UNRESOLVED",
                Verdict::Regression => "REGRESSION",
            },
            100.0 * r.def.bound,
            r.def.unit,
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} regressions, {} unresolved",
        rows.len(),
        count(Verdict::Regression),
        count(Verdict::Unresolved)
    );
    Ok(count(Verdict::Regression) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Better::{Higher, Lower};

    const RATE: MetricDef = MetricDef {
        name: "rate",
        unit: "1/s",
        better: Higher,
        bound: 0.10,
    };
    const TIME: MetricDef = MetricDef {
        name: "time",
        unit: "s",
        better: Lower,
        bound: 0.10,
    };

    fn of(values: &[f64]) -> (Summary, Vec<f64>) {
        (summarize(values), values.to_vec())
    }

    #[test]
    fn a_median_worse_than_the_bound_is_a_regression_in_either_direction() {
        let steady = [100.0, 100.5, 101.0, 99.5, 100.0];
        let slow = [88.0, 88.5, 89.0, 87.5, 88.0];
        assert_eq!(judge(&RATE, of(&steady), of(&slow)).1, Verdict::Regression);
        assert_eq!(judge(&RATE, of(&slow), of(&steady)).1, Verdict::Ok);
        assert_eq!(judge(&TIME, of(&slow), of(&steady)).1, Verdict::Regression);
        assert_eq!(judge(&TIME, of(&steady), of(&slow)).1, Verdict::Ok);
        let (worse_by, _) = judge(&RATE, of(&steady), of(&slow));
        assert!((worse_by - 0.12).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_wins_every_pair() {
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        let same = [82.0, 118.0, 101.0, 91.0, 109.0];
        assert_eq!(judge(&RATE, of(&noisy), of(&same)).1, Verdict::Unresolved);
        let faster = [130.0, 170.0, 150.0, 140.0, 160.0];
        assert_eq!(judge(&RATE, of(&noisy), of(&faster)).1, Verdict::Ok);
    }

    #[test]
    fn any_rise_of_failed_share_is_a_regression() {
        let share = |v: f64| (Summary::single(v), vec![v]);
        assert_eq!(judge(&FAILED_SHARE, share(0.0), share(0.0)).1, Verdict::Ok);
        assert_eq!(
            judge(&FAILED_SHARE, share(0.0), share(0.01)).1,
            Verdict::Regression
        );
        assert_eq!(judge(&FAILED_SHARE, share(0.5), share(0.25)).1, Verdict::Ok);
    }
}
