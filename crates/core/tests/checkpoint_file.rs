//! The checkpoint file format, pinned: `data/v2_tiny.ckpt` was written by
//! `checkpoint::encode` and must keep decoding to the state below and
//! re-encoding to the same bytes. The header is JSON and the checksum
//! covers it, so a drift in field order or number text fails here.

use pipebd_core::checkpoint::{decode, encode, TensorSnapshot};
use pipebd_core::exec::FuncConfig;
use pipebd_core::{BlockState, Checkpoint};

const FILE: &[u8] = include_bytes!("data/v2_tiny.ckpt");

/// Two blocks holding a `-0.0`, a subnormal and a NaN with a payload,
/// under the executor's default `lr` and `momentum`.
fn expected() -> Checkpoint {
    let defaults = FuncConfig::default();
    let snapshot = |dims: &[usize], data: &[f32]| TensorSnapshot {
        dims: dims.to_vec(),
        data: data.to_vec(),
    };
    Checkpoint {
        round: 2,
        data_cursor: 16,
        batch: 8,
        lr: defaults.lr,
        momentum: defaults.momentum,
        plan_fingerprint: "2x1:tiny".to_string(),
        blocks: vec![
            BlockState {
                block: 0,
                params: vec![
                    snapshot(&[2, 2], &[1.5, -0.0, f32::from_bits(1), -2.25]),
                    snapshot(&[2], &[0.1, f32::MAX]),
                ],
                velocities: vec![
                    snapshot(&[2, 2], &[0.0, 0.125, -0.5, 3.0]),
                    snapshot(&[2], &[-1e-3, 7.0]),
                ],
                losses: vec![0.75, f32::from_bits(0x7fc0_1234)],
            },
            BlockState {
                block: 1,
                params: vec![snapshot(&[3], &[2.0, -3.5, f32::MIN_POSITIVE])],
                velocities: vec![],
                losses: vec![0.5, 0.25],
            },
        ],
    }
}

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|v| v.to_bits()).collect()
}

/// Every field of a checkpoint, floats by bit pattern (a NaN payload
/// defeats `PartialEq`).
fn fields(c: &Checkpoint) -> String {
    let snaps = |s: &[TensorSnapshot]| {
        let s = s.iter().map(|t| (t.dims.clone(), bits(&t.data)));
        s.collect::<Vec<_>>()
    };
    let blocks = c.blocks.iter().map(|b| {
        let state = (snaps(&b.params), snaps(&b.velocities), bits(&b.losses));
        (b.block, state)
    });
    format!(
        "{} {} {} {:#x} {:#x} {:?} {:?}",
        c.round,
        c.data_cursor,
        c.batch,
        c.lr.to_bits(),
        c.momentum.to_bits(),
        c.plan_fingerprint,
        blocks.collect::<Vec<_>>()
    )
}

#[test]
fn pinned_file_decodes_to_its_state_and_reencodes_to_its_bytes() {
    let decoded = decode(FILE).expect("the pinned file decodes");
    assert_eq!(fields(&decoded), fields(&expected()));
    assert!(encode(&decoded) == FILE, "re-encoding changed the bytes");
    assert!(encode(&expected()) == FILE, "encoding changed the bytes");
}
