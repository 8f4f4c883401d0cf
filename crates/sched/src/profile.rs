//! The profiling pass that feeds the AHD search.
//!
//! The real Pipe-BD runs ~100 test steps of every block at every feasible
//! batch size before training, then searches schedules over the measured
//! times. Here "measurement" queries the [`CostModel`] (the same model the
//! simulator charges), optionally perturbed by deterministic measurement
//! noise so tests can exercise the search's robustness to imperfect
//! profiles.

use pipebd_models::BlockModel;
use pipebd_sim::SimTime;

use crate::cost::CostModel;

/// A batch size a [`ProfileTable`] holds no column for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnprofiledBatch {
    /// The batch that was asked for.
    pub batch: usize,
    /// The batch sizes the table was profiled at.
    pub profiled: Vec<usize>,
}

impl std::fmt::Display for UnprofiledBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch {} was not profiled: {:?}",
            self.batch, self.profiled
        )
    }
}

impl std::error::Error for UnprofiledBatch {}

/// Profiled per-block execution times at a set of feasible batch sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileTable {
    batch_sizes: Vec<usize>,
    /// `teacher[block][batch_index]`.
    teacher: Vec<Vec<SimTime>>,
    /// `student[block][batch_index]` (forward + backward).
    student: Vec<Vec<SimTime>>,
    /// `update[block]`.
    update: Vec<SimTime>,
}

impl ProfileTable {
    /// Rebuilds a table from its parts (the artifact plane persists
    /// profiles and replays schedule searches from them).
    ///
    /// # Errors
    ///
    /// Returns a message when the rows are not rectangular over
    /// `batch_sizes` or the per-block vectors disagree on block count.
    pub fn from_parts(
        batch_sizes: Vec<usize>,
        teacher: Vec<Vec<SimTime>>,
        student: Vec<Vec<SimTime>>,
        update: Vec<SimTime>,
    ) -> Result<Self, String> {
        if teacher.len() != student.len() || teacher.len() != update.len() {
            return Err(format!(
                "block count mismatch: {} teacher, {} student, {} update rows",
                teacher.len(),
                student.len(),
                update.len()
            ));
        }
        for (i, row) in teacher.iter().chain(student.iter()).enumerate() {
            if row.len() != batch_sizes.len() {
                return Err(format!(
                    "row {i} has {} entries for {} batch sizes",
                    row.len(),
                    batch_sizes.len()
                ));
            }
        }
        Ok(ProfileTable {
            batch_sizes,
            teacher,
            student,
            update,
        })
    }

    /// The batch sizes the table was profiled at.
    pub fn batch_sizes(&self) -> &[usize] {
        &self.batch_sizes
    }

    /// Number of profiled blocks.
    pub fn num_blocks(&self) -> usize {
        self.teacher.len()
    }

    /// Teacher rows: `teacher_rows()[block][batch_index]`, aligned with
    /// [`ProfileTable::batch_sizes`].
    pub fn teacher_rows(&self) -> &[Vec<SimTime>] {
        &self.teacher
    }

    /// Student rows: `student_rows()[block][batch_index]`.
    pub fn student_rows(&self) -> &[Vec<SimTime>] {
        &self.student
    }

    /// Update times, one per block.
    pub fn update_row(&self) -> &[SimTime] {
        &self.update
    }

    /// Profiled teacher time for a block at a batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch` was not profiled (the AHD search only queries
    /// feasible batches, which are exactly the profiled ones).
    pub fn teacher_time(&self, block: usize, batch: usize) -> SimTime {
        self.teacher[block][self.batch_index(batch)]
    }

    /// Profiled student time for a block at a batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch` was not profiled.
    pub fn student_time(&self, block: usize, batch: usize) -> SimTime {
        self.student[block][self.batch_index(batch)]
    }

    /// Profiled update time for a block.
    pub fn update_time(&self, block: usize) -> SimTime {
        self.update[block]
    }

    /// The column of `batch` in the rows ([`ProfileTable::teacher_rows`],
    /// [`ProfileTable::student_rows`]): resolve it once, then index.
    ///
    /// # Errors
    ///
    /// [`UnprofiledBatch`] when the table holds no column for `batch`.
    pub fn column(&self, batch: usize) -> Result<usize, UnprofiledBatch> {
        self.batch_sizes
            .iter()
            .position(|&b| b == batch)
            .ok_or_else(|| UnprofiledBatch {
                batch,
                profiled: self.batch_sizes.clone(),
            })
    }

    fn batch_index(&self, batch: usize) -> usize {
        // The searches and estimates ask only for `⌈batch/m⌉` with `m` at
        // most the device count the table was profiled for, a set
        // `Profiler::profile` covers by construction. A caller holding a
        // table of other batches resolves columns with `column` and gets
        // the typed error instead.
        self.column(batch).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Profiler configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Profiler {
    /// Cost model standing in for the device under test.
    pub cost: CostModel,
    /// Relative measurement noise amplitude (0 = exact). Deterministic:
    /// derived from block/batch indices, not a stateful RNG.
    pub noise: f64,
}

impl Profiler {
    /// A noise-free profiler over the given cost model.
    pub fn new(cost: CostModel) -> Self {
        Profiler { cost, noise: 0.0 }
    }

    /// Profiles every block of `model` at the feasible per-device batches
    /// for a global batch on up to `num_devices` devices:
    /// `{⌈batch/m⌉ : m = 1..=num_devices}`.
    pub fn profile(
        &self,
        model: &BlockModel,
        global_batch: usize,
        num_devices: usize,
    ) -> ProfileTable {
        let mut batch_sizes: Vec<usize> = (1..=num_devices)
            .map(|m| global_batch.div_ceil(m))
            .collect();
        batch_sizes.sort_unstable();
        batch_sizes.dedup();

        let jitter = |block: usize, bi: usize, t: SimTime| -> SimTime {
            if self.noise == 0.0 {
                return t;
            }
            // Deterministic multiplicative jitter in [1-noise, 1+noise].
            let h = (block as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(bi as u64)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
            let factor = 1.0 + self.noise * (2.0 * unit - 1.0);
            SimTime::from_secs_f64(t.as_secs_f64() * factor)
        };

        let mut teacher = Vec::with_capacity(model.num_blocks());
        let mut student = Vec::with_capacity(model.num_blocks());
        let mut update = Vec::with_capacity(model.num_blocks());
        for (i, desc) in model.blocks.iter().enumerate() {
            let t_row: Vec<SimTime> = batch_sizes
                .iter()
                .enumerate()
                .map(|(bi, &b)| jitter(i, bi, self.cost.teacher_time(desc, b)))
                .collect();
            let s_row: Vec<SimTime> = batch_sizes
                .iter()
                .enumerate()
                .map(|(bi, &b)| jitter(i, bi + 1000, self.cost.student_time(desc, b)))
                .collect();
            teacher.push(t_row);
            student.push(s_row);
            update.push(self.cost.update_time(desc));
        }
        ProfileTable {
            batch_sizes,
            teacher,
            student,
            update,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipebd_models::Workload;
    use pipebd_sim::GpuModel;

    fn table(noise: f64) -> ProfileTable {
        let w = Workload::nas_cifar10();
        let p = Profiler {
            cost: CostModel::new(GpuModel::a6000()),
            noise,
        };
        p.profile(&w.model, 256, 4)
    }

    #[test]
    fn profiles_feasible_batches() {
        let t = table(0.0);
        assert_eq!(t.batch_sizes(), &[64, 86, 128, 256]);
    }

    #[test]
    fn exact_profile_matches_cost_model() {
        let w = Workload::nas_cifar10();
        let cm = CostModel::new(GpuModel::a6000());
        let t = table(0.0);
        for (i, desc) in w.model.blocks.iter().enumerate() {
            assert_eq!(t.teacher_time(i, 128), cm.teacher_time(desc, 128));
            assert_eq!(t.student_time(i, 256), cm.student_time(desc, 256));
            assert_eq!(t.update_time(i), cm.update_time(desc));
        }
    }

    #[test]
    fn noise_perturbs_but_stays_bounded() {
        let exact = table(0.0);
        let noisy = table(0.1);
        let mut any_diff = false;
        for block in 0..6 {
            for &b in exact.batch_sizes() {
                let e = exact.teacher_time(block, b).as_secs_f64();
                let n = noisy.teacher_time(block, b).as_secs_f64();
                assert!((n / e - 1.0).abs() <= 0.100001, "noise out of bounds");
                any_diff |= (n - e).abs() > 0.0;
            }
        }
        assert!(any_diff, "noise must perturb something");
    }

    #[test]
    fn noise_is_deterministic() {
        let a = table(0.05);
        let b = table(0.05);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "was not profiled")]
    fn unprofiled_batch_panics() {
        let t = table(0.0);
        let _ = t.teacher_time(0, 57);
    }

    #[test]
    fn columns_align_with_the_batch_sizes() {
        let t = table(0.0);
        for (i, &b) in t.batch_sizes().iter().enumerate() {
            assert_eq!(t.column(b), Ok(i));
            assert_eq!(t.teacher_rows()[3][i], t.teacher_time(3, b));
        }
        let why = t.column(57).unwrap_err();
        assert_eq!(why.batch, 57);
        assert_eq!(
            why.to_string(),
            "batch 57 was not profiled: [64, 86, 128, 256]"
        );
    }

    #[test]
    fn from_parts_roundtrips_a_profiled_table() {
        let t = table(0.05);
        let rebuilt = ProfileTable::from_parts(
            t.batch_sizes().to_vec(),
            t.teacher_rows().to_vec(),
            t.student_rows().to_vec(),
            t.update_row().to_vec(),
        )
        .expect("parts are rectangular");
        assert_eq!(rebuilt, t);
        assert_eq!(rebuilt.num_blocks(), 6);
    }

    #[test]
    fn from_parts_rejects_ragged_rows() {
        let t = table(0.0);
        let mut teacher = t.teacher_rows().to_vec();
        teacher[2].pop();
        assert!(ProfileTable::from_parts(
            t.batch_sizes().to_vec(),
            teacher,
            t.student_rows().to_vec(),
            t.update_row().to_vec(),
        )
        .is_err());
        let mut update = t.update_row().to_vec();
        update.pop();
        assert!(ProfileTable::from_parts(
            t.batch_sizes().to_vec(),
            t.teacher_rows().to_vec(),
            t.student_rows().to_vec(),
            update,
        )
        .is_err());
    }
}
