//! Round-trip guarantees of the JSON backend:
//!
//! * `parse(render(v)) == v` for arbitrary [`Value`] trees (compact and
//!   pretty), including number-identity (integer vs float) preservation;
//! * shortest-text `f32`/`f64` round-trips are bit-exact;
//! * the NaN/Inf policy (serialize to `null`, refuse to deserialize);
//! * derive-level round-trips across every supported type shape.

use proptest::prelude::*;
use serde::{Deserialize, Serialize};

use pipebd_json::{from_str, parse, to_string, to_string_pretty};
use pipebd_json::{Number, Value};

// ---------------------------------------------------------------------------
// Arbitrary Value trees
// ---------------------------------------------------------------------------

/// SplitMix64, so tree generation is deterministic per seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Builds an arbitrary value: scalars at depth 0, containers above.
fn arb_value(rng: &mut Mix, depth: usize) -> Value {
    let pick = rng.next() % if depth == 0 { 6 } else { 8 };
    match pick {
        0 => Value::Null,
        1 => Value::Bool(rng.next() % 2 == 0),
        2 => Value::Number(Number::PosInt(rng.next())),
        3 => Value::Number(Number::NegInt(-((rng.next() >> 1) as i64) - 1)),
        4 => {
            // Finite float from random bits (shift exponent into range).
            let f = f64::from_bits(rng.next());
            let f = if f.is_finite() {
                f
            } else {
                (rng.next() as f64) * 1e-3
            };
            Value::Number(Number::Float(f))
        }
        5 => Value::String(arb_string(rng)),
        6 => {
            let n = (rng.next() % 4) as usize;
            Value::Array((0..n).map(|_| arb_value(rng, depth - 1)).collect())
        }
        _ => {
            let n = (rng.next() % 4) as usize;
            Value::Object(
                (0..n)
                    .map(|i| {
                        (
                            format!("{}_{i}", arb_string(rng)),
                            arb_value(rng, depth - 1),
                        )
                    })
                    .collect(),
            )
        }
    }
}

/// Strings mixing ASCII, escapes, controls, multibyte, and astral chars.
fn arb_string(rng: &mut Mix) -> String {
    const ALPHABET: &[char] = &[
        'a',
        'Z',
        '0',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{1f}',
        'é',
        'ß',
        '中',
        '😀',
        '\u{10FFFF}',
        '\u{FFFD}',
    ];
    let len = (rng.next() % 8) as usize;
    (0..len)
        .map(|_| ALPHABET[(rng.next() as usize) % ALPHABET.len()])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn value_trees_roundtrip_compact_and_pretty(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        let value = arb_value(&mut rng, 3);
        let compact = to_string(&value).expect("render compact");
        prop_assert_eq!(&parse(&compact).expect("reparse compact"), &value);
        let pretty = to_string_pretty(&value).expect("render pretty");
        prop_assert_eq!(&parse(&pretty).expect("reparse pretty"), &value);
        // And through the data model.
        prop_assert_eq!(&value.to_json(), &value);
    }

    #[test]
    fn f64_text_roundtrip_is_bit_exact(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        prop_assume!(v.is_finite());
        let text = to_string(&v).expect("serialize");
        let back: f64 = from_str(&text).expect("deserialize");
        prop_assert_eq!(back.to_bits(), v.to_bits(), "drift for {}", v);
    }

    #[test]
    fn f32_shortest_text_roundtrip_is_bit_exact(bits in any::<u64>()) {
        let v = f32::from_bits(bits as u32);
        prop_assume!(v.is_finite());
        let text = to_string(&v).expect("serialize");
        // Shortest form: parsing as f64 then narrowing recovers the bits.
        let back: f32 = from_str(&text).expect("deserialize");
        prop_assert_eq!(back.to_bits(), v.to_bits(), "drift for {}", v);
        // ... and the text is the f32 formatter's own, not the wider f64's.
        let mut shortest = v.to_string();
        if !shortest.contains(['.', 'e', 'E']) {
            shortest.push_str(".0");
        }
        prop_assert_eq!(&text, &shortest);
        // The tree and text paths must agree on f32 (the store persists
        // the tree; diffs against to_string output must be empty).
        prop_assert_eq!(&v.to_json(), &parse(&text).expect("reparse"));
        let tree = f32::from_json(&v.to_json()).expect("from_json");
        prop_assert_eq!(tree.to_bits(), v.to_bits(), "tree drift for {}", v);
    }
}

#[test]
fn integer_extremes_roundtrip() {
    for v in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 53, (1 << 53) + 1] {
        let text = to_string(&v).expect("serialize");
        assert_eq!(from_str::<u64>(&text).expect("deserialize"), v);
    }
    for v in [i64::MIN, i64::MIN + 1, -1i64, 0, i64::MAX] {
        let text = to_string(&v).expect("serialize");
        assert_eq!(from_str::<i64>(&text).expect("deserialize"), v);
    }
    // Range checks reject out-of-range targets instead of wrapping.
    assert!(from_str::<u32>("4294967296").is_err());
    assert!(from_str::<u64>("-1").is_err());
    assert!(from_str::<i8>("200").is_err());
}

#[test]
fn nan_inf_policy_serializes_null_and_refuses_to_load() {
    assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
    assert_eq!(to_string(&f32::NEG_INFINITY).unwrap(), "null");
    assert_eq!(f64::NAN.to_json(), Value::Null);
    // Loading null into a float is an error, not NaN.
    assert!(from_str::<f64>("null").is_err());
    // Nor does a number load as an infinity: one beyond f64 is a syntax
    // error, one beyond f32 fails to narrow, while f32::MAX still loads.
    assert!(from_str::<f64>("1e400").is_err());
    assert!(from_str::<f32>("1e39").is_err());
    assert!(from_str::<Vec<f32>>("[3.5e38, -1e300]").is_err());
    let max = to_string(&f32::MAX).unwrap();
    assert_eq!(from_str::<f32>(&max).unwrap(), f32::MAX);
    assert_eq!(from_str::<f32>(&format!("-{max}")).unwrap(), f32::MIN);
    // ...but an Option<f64> absorbs it as None.
    assert_eq!(from_str::<Option<f64>>("null").unwrap(), None);
}

#[test]
fn float_texts_stay_floats_and_integers_stay_integers() {
    assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
    assert_eq!(to_string(&0.1f32).unwrap(), "0.1");
    assert_eq!(to_string(&2u64).unwrap(), "2");
    assert_eq!(parse("2.0").unwrap(), Value::Number(Number::Float(2.0)));
    assert_eq!(parse("2").unwrap(), Value::Number(Number::PosInt(2)));
    // -0.0 keeps its sign bit through text.
    let back: f64 = from_str(&to_string(&-0.0f64).unwrap()).unwrap();
    assert_eq!(back.to_bits(), (-0.0f64).to_bits());
}

// ---------------------------------------------------------------------------
// Derive-level round-trips across every supported shape
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Newtype(u64);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Empty,
    Point(f32),
    Rect { w: f32, h: f32, label: String },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Everything {
    flag: bool,
    count: usize,
    signed: i64,
    ratio_32: f32,
    ratio_64: f64,
    text: String,
    newtype: Newtype,
    shapes: Vec<Shape>,
    maybe: Option<u32>,
    maybe_none: Option<u8>,
    nested: Vec<Vec<u64>>,
    tuple: (u32, String),
}

fn sample() -> Everything {
    Everything {
        flag: true,
        count: 42,
        signed: -7,
        ratio_32: 0.1f32,
        ratio_64: 2.5e-300,
        text: "quote \" backslash \\ newline \n control \u{1} unicode é😀".into(),
        newtype: Newtype(u64::MAX),
        shapes: vec![
            Shape::Empty,
            Shape::Point(1.5),
            Shape::Point(f32::MIN_POSITIVE),
            Shape::Rect {
                w: 3.0,
                h: 4.0,
                label: "r".into(),
            },
        ],
        maybe: Some(3),
        maybe_none: None,
        nested: vec![vec![1, 2], vec![], vec![u64::MAX]],
        tuple: (9, "tuple".into()),
    }
}

#[test]
fn derived_shapes_roundtrip() {
    let original = sample();
    let text = to_string(&original).expect("serialize");
    let back: Everything = from_str(&text).expect("deserialize");
    assert_eq!(back, original);
    let pretty = to_string_pretty(&original).expect("serialize pretty");
    let back: Everything = from_str(&pretty).expect("deserialize pretty");
    assert_eq!(back, original);
    // Tree round-trip too.
    let back = Everything::from_json(&original.to_json()).expect("from_json");
    assert_eq!(back, original);
}

#[test]
fn enum_representation_is_externally_tagged() {
    assert_eq!(to_string(&Shape::Empty).unwrap(), "\"Empty\"");
    assert_eq!(to_string(&Shape::Point(1.5)).unwrap(), "{\"Point\":1.5}");
    assert_eq!(to_string(&Shape::Point(0.1)).unwrap(), "{\"Point\":0.1}");
    assert_eq!(
        to_string(&Shape::Rect {
            w: 1.0,
            h: 2.0,
            label: "x".into()
        })
        .unwrap(),
        "{\"Rect\":{\"w\":1.0,\"h\":2.0,\"label\":\"x\"}}"
    );
    // Unknown variants are rejected with the expected list.
    let err = from_str::<Shape>("\"Circle\"").unwrap_err();
    assert!(err.to_string().contains("unknown variant"), "{err}");
}

#[test]
fn newtype_structs_are_transparent() {
    assert_eq!(to_string(&Newtype(7)).unwrap(), "7");
    assert_eq!(from_str::<Newtype>("7").unwrap(), Newtype(7));
}

#[test]
fn duplicate_fields_are_rejected() {
    let err = from_str::<Newtype>("{}").unwrap_err();
    drop(err); // Newtype from object: type error is fine, just not a panic.
    let err = from_str::<Shape>("{\"Rect\":{\"w\":1.0,\"w\":2.0,\"h\":3.0,\"label\":\"x\"}}")
        .unwrap_err();
    assert!(err.to_string().contains("duplicate field"), "{err}");
}
