//! Durable checkpoint persistence: a [`CheckpointSink`] backed by one
//! binary file.
//!
//! The recovery plane's in-memory sink dies with the process; this one
//! survives it. A file that is torn (truncated by an external crash,
//! corrupted on disk) surfaces as a structured error from
//! [`CheckpointStore::latest`], never a silent "no checkpoint": silently
//! restarting from scratch when a checkpoint existed would discard
//! training the operator paid for. Every failure is a
//! [`CheckpointError::Sink`] whose source is the [`ArtifactError`] — the
//! store's own error, for callers to downcast.
//!
//! # File layout
//!
//! One self-describing file, `<root>/<name>.ckpt`, written and read by
//! `pipebd_core::checkpoint::{encode, decode}`; all integers and floats
//! are little-endian.
//!
//! | bytes | what |
//! |---|---|
//! | 8 | magic `PBDCKPT\n` |
//! | 4 | `H`: header length, `u32` |
//! | `H` | header: one compact JSON object (below) |
//! | `P` | payload: raw `f32`s, `P` = the header's `payload_bytes` |
//! | 8 | checksum, `u64`: FNV-1a over the 8-byte words of every byte before it |
//!
//! ```json
//! {"schema": "pipebd.checkpoint", "version": 2,
//!  "round": 4, "data_cursor": 32, "batch": 8,
//!  "lr_bits": 1028443341, "momentum_bits": 1063675494,
//!  "plan_fingerprint": "2x1:…", "payload_bytes": 1158144,
//!  "blocks": [{"block": 0,
//!    "params":     [{"dtype": "f32", "dims": [32, 32, 3, 3], "offset": 0, "bytes": 36864}, …],
//!    "velocities": [{"dtype": "f32", "dims": [32, 32, 3, 3], "offset": 73728, "bytes": 36864}, …],
//!    "losses":      {"dtype": "f32", "dims": [4], "offset": 147456, "bytes": 16}}, …]}
//! ```
//!
//! `offset` counts from the payload's first byte. `lr` and `momentum` are
//! stored as their IEEE-754 bit patterns, and tensors as raw bytes, so
//! every value — NaN payloads, infinities, `-0.0`, subnormals — comes
//! back bit for bit without a float printer in the loop. The header
//! precedes the payload so the round of the checkpoint on disk can be
//! read without it. A file of the wrong total length or checksum is torn;
//! a file starting with `{` is a version-1 JSON envelope and is refused
//! with a version error (there is no reader for it).

use std::fs::{self, File};
use std::io::{self, Read};
use std::path::PathBuf;

use pipebd_core::checkpoint::{self, CodecError};
use pipebd_core::{Checkpoint, CheckpointError, CheckpointSink};

use crate::store::{retrying, write_atomic};
use crate::ArtifactError;

impl From<ArtifactError> for CheckpointError {
    fn from(e: ArtifactError) -> Self {
        CheckpointError::Sink(Box::new(e))
    }
}

impl From<CodecError> for ArtifactError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Version { found } => ArtifactError::Version {
                found,
                expected: checkpoint::VERSION,
            },
            CodecError::Corrupt(why) => ArtifactError::Malformed(why),
        }
    }
}

/// A [`CheckpointSink`] that keeps the highest-round checkpoint in one
/// file (decoupled pipelines complete rounds out of order, so stores can
/// arrive stale). Writes are atomic: a crash mid-store leaves the
/// previous checkpoint intact.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    path: PathBuf,
}

impl CheckpointStore {
    /// A checkpoint store writing `<root>/<name>.ckpt`.
    pub fn at(root: impl Into<PathBuf>, name: impl Into<String>) -> Self {
        CheckpointStore {
            path: root.into().join(format!("{}.ckpt", name.into())),
        }
    }

    /// The path the checkpoint lands at.
    pub fn path(&self) -> PathBuf {
        self.path.clone()
    }

    /// The round of the checkpoint on disk, from its header and the
    /// file's length alone; `None` when there is no file.
    fn incumbent_round(&self) -> Result<Option<usize>, ArtifactError> {
        let mut file = match retrying(|| File::open(&self.path)) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let mut head = Vec::new();
        let prelude = checkpoint::PRELUDE_LEN as u64;
        file.by_ref().take(prelude).read_to_end(&mut head)?;
        let span = checkpoint::header_span(&head)? as u64;
        file.by_ref().take(span - prelude).read_to_end(&mut head)?;
        let peek = checkpoint::peek(&head)?;
        match file.metadata()?.len() {
            len if len == peek.file_len => Ok(Some(peek.round)),
            len => Err(ArtifactError::Malformed(format!(
                "file is {len} bytes, header declares {}",
                peek.file_len
            ))),
        }
    }
}

impl CheckpointSink for CheckpointStore {
    fn store(&self, checkpoint: &Checkpoint) -> Result<(), CheckpointError> {
        // Round-max semantics, matching the in-memory sink: never replace
        // a newer checkpoint with a stale round. A torn, damaged or
        // foreign-version incumbent is the exception — overwriting it
        // with a valid file is the repair. Failing to *read* it is not:
        // the file may be fine, so that error goes to the caller.
        match self.incumbent_round() {
            Ok(Some(round)) if round >= checkpoint.round => return Ok(()),
            Err(e @ ArtifactError::Io(_)) => return Err(e.into()),
            _ => {}
        }
        write_atomic(&self.path, &checkpoint::encode(checkpoint)).map_err(ArtifactError::from)?;
        Ok(())
    }

    fn latest(&self) -> Result<Option<Checkpoint>, CheckpointError> {
        let bytes = match retrying(|| fs::read(&self.path)) {
            Ok(bytes) => bytes,
            // No file yet is the one benign miss: nothing was ever stored.
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(ArtifactError::from(e).into()),
        };
        // A checkpoint existed; losing it must be loud.
        let decoded = checkpoint::decode(&bytes).map_err(ArtifactError::from)?;
        Ok(Some(decoded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipebd_core::checkpoint::TensorSnapshot;
    use pipebd_core::BlockState;

    fn temp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("pipebd_ckpt_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    /// The store's own error behind a sink failure.
    fn artifact_error(err: &CheckpointError) -> &ArtifactError {
        match err {
            CheckpointError::Sink(e) => e
                .downcast_ref()
                .expect("the store fails with its own error"),
            other => panic!("not a sink failure: {other:?}"),
        }
    }

    fn checkpoint(round: usize) -> Checkpoint {
        let weights = TensorSnapshot {
            dims: vec![2, 3],
            data: vec![0.5, -1.25, 3.0, 1e-3, 7.0, -0.125],
        };
        Checkpoint {
            round,
            data_cursor: (round * 8) as u64,
            batch: 8,
            lr: 0.05,
            momentum: 0.9,
            plan_fingerprint: "1x1:test".to_string(),
            blocks: vec![BlockState {
                block: 0,
                params: vec![weights.clone()],
                velocities: vec![weights],
                losses: vec![0.25; round],
            }],
        }
    }

    #[test]
    fn roundtrips_and_keeps_the_highest_round() {
        let root = temp_root("roundtrip");
        let sink = CheckpointStore::at(&root, "ckpt");
        assert_eq!(sink.latest().unwrap(), None, "empty store has no latest");

        sink.store(&checkpoint(4)).unwrap();
        assert_eq!(sink.latest().unwrap().unwrap(), checkpoint(4));

        // A stale round must not clobber the incumbent.
        sink.store(&checkpoint(2)).unwrap();
        assert_eq!(sink.latest().unwrap().unwrap().round, 4);

        sink.store(&checkpoint(6)).unwrap();
        assert_eq!(sink.latest().unwrap().unwrap(), checkpoint(6));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// JSON rendered NaN and the infinities as `null`, so a checkpoint
    /// holding one stored "successfully" and never loaded again.
    #[test]
    fn non_finite_and_odd_floats_come_back_bit_for_bit() {
        let odd = [
            f32::from_bits(0x7fc0_1234), // quiet NaN with payload bits
            f32::from_bits(0xff80_0001), // negative signalling NaN
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::from_bits(1),           // smallest subnormal
            f32::from_bits(0x807f_ffff), // largest negative subnormal
            f32::MIN_POSITIVE,
            f32::MAX,
        ];
        let snapshot = TensorSnapshot {
            dims: vec![3, 3],
            data: odd.to_vec(),
        };
        let mut ckpt = checkpoint(odd.len());
        ckpt.lr = f32::NAN;
        ckpt.momentum = f32::NEG_INFINITY;
        ckpt.blocks[0].params = vec![snapshot.clone()];
        ckpt.blocks[0].velocities = vec![snapshot];
        ckpt.blocks[0].losses = odd.to_vec();

        let root = temp_root("bits");
        let sink = CheckpointStore::at(&root, "ckpt");
        sink.store(&ckpt).unwrap();
        let back = sink.latest().unwrap().expect("stored");

        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let (was, now) = (&ckpt.blocks[0], &back.blocks[0]);
        assert_eq!(bits(&now.params[0].data), bits(&was.params[0].data));
        assert_eq!(bits(&now.velocities[0].data), bits(&was.velocities[0].data));
        assert_eq!(bits(&now.losses), bits(&was.losses));
        assert_eq!(back.lr.to_bits(), ckpt.lr.to_bits());
        assert_eq!(back.momentum.to_bits(), ckpt.momentum.to_bits());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_file_is_a_hard_error_not_a_silent_miss() {
        let root = temp_root("torn");
        let sink = CheckpointStore::at(&root, "ckpt");
        sink.store(&checkpoint(3)).unwrap();

        // Simulate a crash that truncated the file mid-write (only
        // possible through paths that bypass the atomic rename).
        let bytes = std::fs::read(sink.path()).unwrap();
        std::fs::write(sink.path(), &bytes[..bytes.len() / 2]).unwrap();

        let err = sink.latest().unwrap_err();
        assert!(
            matches!(artifact_error(&err), ArtifactError::Malformed(_)),
            "{err:?}"
        );

        // Storing a fresh checkpoint repairs the torn incumbent.
        sink.store(&checkpoint(1)).unwrap();
        assert_eq!(sink.latest().unwrap().unwrap().round, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Every way the file at `path()` can be wrong is a structured error
    /// from `latest()` — never `Ok(None)` — and
    /// the next `store` repairs it. What the header or the file's length
    /// gives away is repaired even by an older round; damage inside a
    /// payload of the right length is invisible to `store`, which reads
    /// the header only, and goes with the next newer round.
    #[test]
    fn corruption_matrix_errors_loudly_and_store_repairs() {
        let root = temp_root("matrix");
        let sink = CheckpointStore::at(&root, "ckpt");
        let good = checkpoint::encode(&checkpoint(5));
        let header_end = checkpoint::header_span(&good).unwrap();
        let flipped = {
            let mut bytes = good.clone();
            bytes[header_end + 9] ^= 0x10;
            bytes
        };
        let wrong_magic = {
            let mut bytes = good.clone();
            bytes[..4].copy_from_slice(b"RIFF");
            bytes
        };
        let v1 = br#"{"schema": "pipebd.checkpoint", "version": 1, "name": "ckpt",
            "created_unix_s": 1753000000, "payload": {"round": 5, "blocks": []}}"#;
        let in_header = &good[..checkpoint::PRELUDE_LEN + 20];
        // `None`: refused for its version, not as malformed.
        let cases: [(&str, &[u8], Option<&str>, usize); 7] = [
            ("empty file", &[], Some("bad magic"), 1),
            ("cut in the header", in_header, Some("inside the header"), 1),
            (
                "cut in the payload",
                &good[..header_end + 10],
                Some("bytes"),
                1,
            ),
            (
                "cut before the checksum",
                &good[..good.len() - 8],
                Some("bytes"),
                1,
            ),
            (
                "one flipped payload byte",
                &flipped,
                Some("bad checksum"),
                6,
            ),
            ("wrong magic", &wrong_magic, Some("bad magic"), 1),
            ("version-1 JSON envelope", v1, None, 1),
        ];
        for (case, bytes, malformed, repair_round) in cases {
            std::fs::create_dir_all(&root).unwrap();
            std::fs::write(sink.path(), bytes).unwrap();
            let err = sink.latest().expect_err(case);
            let refused = match (artifact_error(&err), malformed) {
                (ArtifactError::Malformed(why), Some(expected)) => why.contains(expected),
                (ArtifactError::Version { found, expected }, None) => {
                    (*found, *expected) == (1, checkpoint::VERSION)
                }
                _ => false,
            };
            assert!(refused, "{case}: unexpected error: {err:?}");
            sink.store(&checkpoint(repair_round)).unwrap();
            let repaired = sink.latest().unwrap().unwrap();
            assert_eq!(repaired, checkpoint(repair_round), "{case}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A write that crashed before its rename leaves a `.tmp` sibling and
    /// the incumbent untouched: `latest` still returns the incumbent, and
    /// the next store replaces the sibling.
    #[test]
    fn leftover_tmp_sibling_neither_hides_nor_replaces_the_incumbent() {
        let root = temp_root("tmp_sibling");
        let sink = CheckpointStore::at(&root, "ckpt");
        sink.store(&checkpoint(3)).unwrap();
        let tmp = root.join("ckpt.ckpt.tmp");
        let newer = checkpoint::encode(&checkpoint(9));
        std::fs::write(&tmp, &newer[..newer.len() / 3]).unwrap();

        assert_eq!(sink.latest().unwrap().unwrap(), checkpoint(3));
        sink.store(&checkpoint(4)).unwrap();
        assert_eq!(sink.latest().unwrap().unwrap(), checkpoint(4));
        assert!(!tmp.exists(), "the next store consumes the sibling");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Only a torn or foreign *file* is repaired by overwrite. When the
    /// incumbent cannot be read at all (here: the path is a directory)
    /// the I/O error comes back, and nothing is written over it.
    #[test]
    fn unreadable_incumbent_is_an_error_not_a_repair() {
        let root = temp_root("unreadable");
        let sink = CheckpointStore::at(&root, "ckpt");
        std::fs::create_dir_all(sink.path()).unwrap();

        let err = sink.store(&checkpoint(2)).unwrap_err();
        assert!(
            matches!(artifact_error(&err), ArtifactError::Io(_)),
            "{err:?}"
        );
        let err = sink.latest().unwrap_err();
        assert!(
            matches!(artifact_error(&err), ArtifactError::Io(_)),
            "{err:?}"
        );
        assert!(sink.path().is_dir(), "nothing replaced the incumbent");
        assert!(!root.join("ckpt.ckpt.tmp").exists(), "nothing was written");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn save_leaves_no_tmp_sibling_behind() {
        let root = temp_root("atomic");
        let sink = CheckpointStore::at(&root, "ckpt");
        sink.store(&checkpoint(5)).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|ext| ext == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "atomic save must not leave tmp files");
        let _ = std::fs::remove_dir_all(&root);
    }
}
