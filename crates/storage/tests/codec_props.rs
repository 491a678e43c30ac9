//! Property-based coverage for the binary codec: arbitrary [`Value`]
//! trees — nested lists and maps, every temporal type, NaN and negative
//! zero, node/rel/path references — must encode→decode to the **exact**
//! same value (representation-exact, not merely Cypher-equivalent: an
//! integer must come back an integer, never a float), and any single-byte
//! corruption of a framed record must be detected by the CRC rather than
//! mis-decoded.

use cypher_graph::temporal::{Date, Duration, LocalDateTime, LocalTime, Temporal, ZonedDateTime};
use cypher_graph::{NodeId, Path, PropertyGraph, RelId, Value};
use cypher_storage::codec::{
    crc32, put_shared_value, put_str, put_u64, put_value, Reader, StringTable,
};
use cypher_storage::snapshot;
use cypher_storage::wal::{frame_record, read_frame};
use cypher_storage::StorageError;
use proptest::prelude::*;

fn arb_temporal() -> impl Strategy<Value = Temporal> {
    prop_oneof![
        (-100_000i64..100_000).prop_map(|d| Temporal::Date(Date { epoch_days: d })),
        (0i64..86_400_000_000_000).prop_map(|n| Temporal::LocalTime(LocalTime { nanos: n })),
        ((-100_000i64..100_000), (0i64..86_400_000_000_000)).prop_map(|(d, n)| {
            Temporal::LocalDateTime(LocalDateTime {
                date: Date { epoch_days: d },
                time: LocalTime { nanos: n },
            })
        }),
        (
            (-100_000i64..100_000),
            (0i64..86_400_000_000_000),
            (-64_800i64..64_800)
        )
            .prop_map(|(d, n, off)| {
                Temporal::DateTime(ZonedDateTime {
                    local: LocalDateTime {
                        date: Date { epoch_days: d },
                        time: LocalTime { nanos: n },
                    },
                    offset_seconds: off as i32,
                })
            }),
        (
            (-1000i64..1000),
            (-1000i64..1000),
            (-1_000_000i64..1_000_000),
            (-999_999_999i64..999_999_999)
        )
            .prop_map(|(m, d, s, n)| Temporal::Duration(Duration {
                months: m,
                days: d,
                seconds: s,
                nanos: n,
            })),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Integer),
        any::<i64>().prop_map(|i| Value::Float(f64::from_bits(i as u64))),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(f64::INFINITY)),
        "[a-zµ☃]{0,6}".prop_map(Value::str),
        (0u64..100).prop_map(|i| Value::Node(NodeId(i))),
        (0u64..100).prop_map(|i| Value::Rel(RelId(i))),
        (0u64..5, 0u64..5).prop_map(|(n, r)| {
            let mut p = Path::single(NodeId(n));
            p.push(RelId(r), NodeId(n + 1));
            Value::Path(p)
        }),
        arb_temporal().prop_map(Value::Temporal),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            proptest::collection::btree_map("[a-c]{1,2}", inner, 0..3).prop_map(|m| {
                Value::Map(
                    m.into_iter()
                        .map(|(k, v)| (std::sync::Arc::from(k.as_str()), v))
                        .collect(),
                )
            }),
        ]
    })
}

/// Representation-exact equality: the derived `Debug` form distinguishes
/// `Integer(1)` from `Float(1.0)` and preserves NaN/−0.0, which Cypher
/// equivalence (`PartialEq` on `Value`) deliberately conflates.
fn exactly_equal(a: &Value, b: &Value) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn value_roundtrips_exactly(v in arb_value()) {
        let mut buf = Vec::new();
        put_value(&mut buf, &v);
        let mut r = Reader::new(&buf, "prop");
        let back = r.value().unwrap();
        prop_assert!(r.is_empty(), "decoder consumed everything");
        prop_assert!(exactly_equal(&v, &back), "{v:?} != {back:?}");
    }

    // Three clones of one tree share every string `Arc`, so through one
    // message's string table the second copy registers its strings and
    // the third refers to them; each decodes exactly.
    #[test]
    fn shared_values_roundtrip_exactly(v in arb_value()) {
        let copies = [v.clone(), v.clone(), v.clone()];
        let (mut buf, mut strings) = (Vec::new(), StringTable::default());
        for copy in &copies {
            put_shared_value(&mut buf, copy, &mut strings);
        }
        let (mut r, mut strings) = (Reader::new(&buf, "prop"), StringTable::default());
        for _ in 0..3 {
            let back = r.shared_value(&mut strings).unwrap();
            prop_assert!(exactly_equal(&v, &back), "{v:?} != {back:?}");
        }
        prop_assert!(r.is_empty(), "decoder consumed everything");
    }

    #[test]
    fn every_truncation_errors(v in arb_value()) {
        let mut buf = Vec::new();
        put_value(&mut buf, &v);
        // The decoder walks the exact encoding path of the original
        // value, so any strict prefix must end in a structured error —
        // never a panic, never a silently different value.
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut], "trunc");
            prop_assert!(
                matches!(r.value(), Err(StorageError::Corrupt { .. })),
                "truncation at {cut} of {} bytes did not error",
                buf.len()
            );
        }
    }

    #[test]
    fn single_byte_flips_in_framed_records_are_detected(v in arb_value(), flip in any::<u16>()) {
        let mut payload = vec![0x01u8]; // a change-like kind byte
        put_value(&mut payload, &v);
        let framed = frame_record(&payload);
        let idx = (flip as usize) % framed.len();
        for mask in [0x01u8, 0x10, 0x80] {
            let mut bad = framed.clone();
            bad[idx] ^= mask;
            // CRC (or the length sanity check) must catch the flip. The
            // only undetectable case would be a flipped length that still
            // frames AND matches the stored CRC — impossible for a
            // single-byte flip with CRC-32.
            prop_assert!(
                matches!(read_frame(&bad, 0), Err(StorageError::Corrupt { .. })),
                "flip at byte {idx} (mask {mask:#x}) undetected"
            );
        }
    }
}

/// The string-table tags belong to wire replies: the WAL's change reader
/// and the snapshot reader reject a registration (tag 11) and a reference
/// (tag 12) as invalid value tags.
#[test]
fn durable_readers_reject_string_table_tags() {
    let is_invalid_tag = |e: StorageError| e.to_string().contains("invalid value tag");
    let mut g = PropertyGraph::new();
    g.add_node(&["N"], [("k", Value::str("snapvalue"))]);
    let snap = snapshot::encode(&g, 1, 0);
    let mut plain = vec![4u8];
    put_str(&mut plain, "snapvalue");
    let at = snap
        .windows(plain.len())
        .position(|w| w == plain)
        .expect("the snapshot holds the property value");
    for value in [
        [&[11u8, 1, 0, 0, 0][..], b"x"].concat(),
        vec![12u8, 0, 0, 0, 0],
    ] {
        // A WAL change record: `SetNodeProp { id: 1, key: "k", value }`.
        let mut change = vec![4u8];
        put_u64(&mut change, 1);
        put_str(&mut change, "k");
        change.extend_from_slice(&value);
        let err = Reader::new(&change, "wal payload").change().unwrap_err();
        assert!(is_invalid_tag(err));
        // The snapshot with the property value replaced, CRC recomputed.
        let mut bad = snap.clone();
        bad.splice(at..at + plain.len(), value.iter().copied());
        let body_end = bad.len() - 4;
        let crc = crc32(&bad[8..body_end]).to_le_bytes();
        bad[body_end..].copy_from_slice(&crc);
        assert!(is_invalid_tag(snapshot::decode(&bad).unwrap_err()));
    }
}
