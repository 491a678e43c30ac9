//! Decoder totality: no byte sequence — truncated, bit-flipped, or
//! random — may panic the wire decoders or make them allocate beyond
//! the declared caps. This is the storage codec's hostile-bytes
//! discipline ported to the wire layer, proven over **every** message
//! type in the protocol.

use cypher_core::Params;
use cypher_core::{Record, Schema, Table};
use cypher_graph::Value;
use cypher_wire::{
    read_exact_frame, write_frame, ErrorCode, Request, Response, ServerStats,
    DEFAULT_MAX_FRAME_BYTES,
};
use std::collections::BTreeMap;
use std::io::Cursor;
use std::sync::Arc;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn sample_params() -> Params {
    let mut p = Params::new();
    p.insert("k".to_string(), Value::int(-7));
    p.insert("name".to_string(), Value::from("Nils"));
    p.insert(
        "list".to_string(),
        Value::List(vec![Value::int(1), Value::Bool(true), Value::Null]),
    );
    p
}

fn sample_table() -> Table {
    let mut t = Table::empty(Schema::new(vec!["a".to_string(), "b".to_string()]));
    t.push(Record::new(vec![Value::int(1), Value::from("x")]));
    t.push(Record::new(vec![Value::Float(f64::NAN), Value::Null]));
    t
}

/// Shared strings (clones of one `Arc`, as `labels(n)` returns the
/// interner's) repeating across rows inside a list and inside a map, so
/// the reply carries full, registered and referenced strings.
fn shared_string_table() -> Table {
    let (person, bot): (Arc<str>, Arc<str>) = (Arc::from("Person"), Arc::from("Bot"));
    let mut t = Table::empty(Schema::new(vec!["l".to_string(), "m".to_string()]));
    for i in 0..4 {
        let labels = vec![
            Value::String(Arc::clone(&person)),
            Value::String(Arc::clone(&bot)),
        ];
        let mut m = BTreeMap::new();
        m.insert(Arc::from("kind"), Value::String(Arc::clone(&bot)));
        m.insert(Arc::from("i"), Value::int(i));
        t.push(Record::new(vec![Value::List(labels), Value::Map(m)]));
    }
    t
}

/// One exemplar per request tag (params where the tag carries them).
fn every_request() -> Vec<Request> {
    vec![
        Request::Query {
            text: "MATCH (n:Load {k: $k}) RETURN n.v".to_string(),
            params: sample_params(),
        },
        Request::Prepare {
            text: "RETURN $name AS who".to_string(),
        },
        Request::Execute {
            id: 3,
            params: sample_params(),
        },
        Request::Deallocate { id: 3 },
        Request::BeginRead,
        Request::CommitRead,
        Request::Ping,
        Request::Stats,
        Request::Goodbye,
    ]
}

/// One exemplar per response tag.
fn every_response() -> Vec<Response> {
    vec![
        Response::Rows {
            committed: Some(17),
            table: sample_table(),
        },
        Response::Rows {
            committed: None,
            table: Table::empty(Schema::new(vec![])),
        },
        Response::Rows {
            committed: None,
            table: shared_string_table(),
        },
        Response::Error {
            code: ErrorCode::Eval,
            message: "unknown variable".to_string(),
        },
        Response::Prepared { id: 9 },
        Response::Deallocated,
        Response::BeganRead { version: 41 },
        Response::ReadCommitted,
        Response::Pong,
        Response::Stats(ServerStats {
            version: 5,
            connections: 2,
            pinned: 1,
            requests: 99,
            plan_hits: 10,
            plan_misses: 3,
            plan_invalidations: 1,
            plan_evictions: 0,
        }),
        Response::Bye,
    ]
}

/// Every truncation of every message type must decode to an error —
/// never a panic, never a short success.
#[test]
fn truncation_sweep_over_every_message_type() {
    for req in every_request() {
        let bytes = req.encode();
        for cut in 0..bytes.len() {
            assert!(
                Request::decode(&bytes[..cut]).is_err(),
                "truncated request at {cut}/{} decoded: {req:?}",
                bytes.len()
            );
        }
        assert!(Request::decode(&bytes).is_ok(), "full request must decode");
    }
    for resp in every_response() {
        let bytes = resp.encode();
        for cut in 0..bytes.len() {
            assert!(
                Response::decode(&bytes[..cut]).is_err(),
                "truncated response at {cut}/{} decoded: {resp:?}",
                bytes.len()
            );
        }
        assert!(
            Response::decode(&bytes).is_ok(),
            "full response must decode"
        );
    }
}

/// Every single-byte corruption of every message type either decodes to
/// a value that re-encodes cleanly, or errors — it never panics. Swept
/// with several flip patterns per position.
#[test]
fn byte_flip_sweep_over_every_message_type() {
    let patterns: [u8; 4] = [0xFF, 0x80, 0x01, 0x55];
    for req in every_request() {
        let bytes = req.encode();
        for i in 0..bytes.len() {
            for pat in patterns {
                let mut mutated = bytes.clone();
                mutated[i] ^= pat;
                if let Ok(decoded) = Request::decode(&mutated) {
                    let _ = decoded.encode(); // must stay total
                }
            }
        }
    }
    for resp in every_response() {
        let bytes = resp.encode();
        for i in 0..bytes.len() {
            for pat in patterns {
                let mut mutated = bytes.clone();
                mutated[i] ^= pat;
                if let Ok(decoded) = Response::decode(&mutated) {
                    let _ = decoded.encode();
                }
            }
        }
    }
}

/// Random byte blobs: decoding must stay total, and claimed element
/// counts can never drive allocation past the input's own size class.
#[test]
fn random_blob_sweep_is_total() {
    let mut state = 0xD15EA5Eu64;
    for round in 0..2000 {
        let len = (splitmix(&mut state) % 128) as usize;
        let mut blob: Vec<u8> = (0..len).map(|_| splitmix(&mut state) as u8).collect();
        let _ = Request::decode(&blob);
        let _ = Response::decode(&blob);
        // Bias toward valid tags so the sweep reaches the body decoders.
        if !blob.is_empty() {
            blob[0] = 1 + (round % 9) as u8;
            let _ = Request::decode(&blob);
            blob[0] = 1 + (round % 10) as u8;
            let _ = Response::decode(&blob);
        }
    }
}

/// Frame-level hostility through the reader: hostile length prefixes
/// are rejected **before** any allocation, torn frames are I/O errors,
/// flipped payload bits are CRC errors.
#[test]
fn frame_reader_rejects_hostile_prefixes_tears_and_flips() {
    // A frame claiming u32::MAX bytes backed by 16 real ones.
    let mut hostile = vec![0xFF, 0xFF, 0xFF, 0xFF];
    hostile.extend_from_slice(&[0xAA; 16]);
    match read_exact_frame(&mut Cursor::new(&hostile), DEFAULT_MAX_FRAME_BYTES) {
        Err(e) => assert!(
            e.to_string().contains("frame"),
            "hostile prefix should be named: {e}"
        ),
        Ok(_) => panic!("4 GiB claim must be rejected before allocation"),
    }

    // A healthy frame, then every tear and every payload bit-flip.
    let mut healthy = Vec::new();
    write_frame(&mut healthy, &Request::Ping.encode()).unwrap();
    for cut in 0..healthy.len() {
        assert!(
            read_exact_frame(&mut Cursor::new(&healthy[..cut]), DEFAULT_MAX_FRAME_BYTES).is_err(),
            "torn frame at {cut} must error"
        );
    }
    for i in 0..healthy.len() {
        let mut mutated = healthy.clone();
        mutated[i] ^= 0x01;
        // Any single-bit flip changes the length, the payload, or the
        // CRC — all three must fail verification (or claim a length the
        // buffer cannot back).
        assert!(
            read_exact_frame(&mut Cursor::new(&mutated), DEFAULT_MAX_FRAME_BYTES).is_err(),
            "bit flip at {i} slipped through the CRC"
        );
    }
    let ok = read_exact_frame(&mut Cursor::new(&healthy), DEFAULT_MAX_FRAME_BYTES).unwrap();
    assert_eq!(ok, Request::Ping.encode());
}

/// The row-count claim in a `Rows` response cannot amplify allocation:
/// every row costs at least one marker byte on the wire, so a claimed
/// count beyond the payload size fails before any row materializes.
#[test]
fn row_count_claims_are_bounded_by_payload_size() {
    let resp = Response::Rows {
        committed: None,
        table: Table::empty(Schema::new(vec![])),
    };
    let mut bytes = resp.encode();
    // The trailing u32 row count in a zero-column, zero-row table.
    let n = bytes.len();
    bytes[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = Response::decode(&bytes).expect_err("row bomb must be rejected");
    assert!(
        err.to_string().contains("count"),
        "rejection should name the count: {err}"
    );
}

/// The shared-string exemplar really exercises the string table: it
/// decodes to the same rows, in fewer bytes than the same rows whose
/// strings are all distinct `Arc`s (which no table can share).
#[test]
fn the_shared_string_exemplar_uses_references() {
    let shared = shared_string_table();
    let mut fresh = Table::empty(shared.schema().clone());
    fn copy(v: &Value) -> Value {
        match v {
            Value::String(s) => Value::from(&**s),
            Value::List(l) => Value::List(l.iter().map(copy).collect()),
            Value::Map(m) => Value::Map(m.iter().map(|(k, v)| (k.clone(), copy(v))).collect()),
            other => other.clone(),
        }
    }
    for row in shared.rows() {
        fresh.push(Record::new(row.values().iter().map(copy).collect()));
    }
    let encode = |table: &Table| {
        Response::Rows {
            committed: None,
            table: table.clone(),
        }
        .encode()
    };
    let (bytes, fresh_bytes) = (encode(&shared), encode(&fresh));
    assert!(
        bytes.len() < fresh_bytes.len(),
        "{} vs {}",
        bytes.len(),
        fresh_bytes.len()
    );
    match Response::decode(&bytes).unwrap() {
        Response::Rows { table, .. } => assert!(table.bag_eq(&shared)),
        other => panic!("expected Rows, got {other:?}"),
    }
}
