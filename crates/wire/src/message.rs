//! Request/response messages and their binary encoding.
//!
//! Every payload begins with a one-byte tag; the body reuses the storage
//! codec's primitives (`put_str`/`put_value`, the bounds-checked
//! [`Reader`]) so values round-trip bit-exactly and decoding inherits the
//! codec's totality guarantees. One wire-specific addition: each result
//! row is prefixed with a `0x01` marker byte, so even a zero-column
//! table costs at least one payload byte per row — a hostile row count
//! can never make the decoder allocate more than a small constant
//! multiple of the bytes actually on the wire.
//!
//! Every reply that carries tables (`Rows`, `ViewRows`, `ViewChange`)
//! encodes their values through one [`StringTable`] scoped to that reply,
//! so a string shared across rows (a label, a repeated literal) crosses
//! the wire in full twice at most and as a 5-byte reference afterwards.

use crate::frame::WireError;
use cypher_core::{Params, Record, Schema, Table};
use cypher_storage::codec::{
    put_shared_value, put_str, put_u32, put_u64, put_value, Reader, StringTable,
};

/// Structured error classes a server reports to its clients. The numeric
/// value is the wire encoding and is stable across releases (new codes
/// append).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The query text did not parse.
    Parse = 1,
    /// Evaluation failed (type errors, delete-with-relationships,
    /// updating query inside a pinned read transaction, …).
    Eval = 2,
    /// The durable store failed; the statement may be partially durable.
    Storage = 3,
    /// The write path is unavailable (database closed, or read-only
    /// after a failed WAL commit). Reads still work.
    Unavailable = 4,
    /// The client violated the wire protocol (malformed frame or
    /// message). The server answers where framing is still trusted and
    /// drops the connection where it is not.
    Protocol = 5,
    /// `EXECUTE`/`DEALLOCATE` named a statement id this connection never
    /// prepared (or already deallocated).
    UnknownStatement = 6,
    /// A server-side resource cap: too many connections, or too many
    /// prepared statements on one connection.
    Limit = 7,
    /// The request handler panicked; the connection survives, the
    /// statement's effect on the database is whatever it had already
    /// committed.
    Internal = 8,
}

impl ErrorCode {
    /// Decodes a wire byte.
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::Parse,
            2 => ErrorCode::Eval,
            3 => ErrorCode::Storage,
            4 => ErrorCode::Unavailable,
            5 => ErrorCode::Protocol,
            6 => ErrorCode::UnknownStatement,
            7 => ErrorCode::Limit,
            8 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A client→server message.
#[derive(Debug, Clone)]
pub enum Request {
    /// Parse, plan and execute one statement in auto-commit mode.
    Query {
        /// The Cypher text.
        text: String,
        /// Parameter bindings for `$name` expressions.
        params: Params,
    },
    /// Validate (parse) a statement and register it under a fresh id on
    /// this connection. Execution plans ride the server-wide plan cache.
    Prepare {
        /// The Cypher text to prepare.
        text: String,
    },
    /// Execute a prepared statement with fresh parameter bindings.
    Execute {
        /// Id returned by the `Prepared` response.
        id: u32,
        /// Parameter bindings for this execution.
        params: Params,
    },
    /// Forget a prepared statement.
    Deallocate {
        /// Id returned by the `Prepared` response.
        id: u32,
    },
    /// Pin the latest version: until `CommitRead`, every query of this
    /// connection reads that one frozen snapshot (repeatable reads).
    BeginRead,
    /// Release the pinned snapshot.
    CommitRead,
    /// Liveness probe.
    Ping,
    /// Graceful goodbye; the server answers `Bye` and closes.
    Goodbye,
    /// Ask for the metrics page ([`Response::Metrics`]): the
    /// Prometheus-style text exposition of every layer's instruments.
    Metrics,
    /// Register a standing query: plan it once, materialize it at the
    /// current version and keep it delta-maintained on every commit.
    CreateView {
        /// The view's name (server-wide namespace).
        name: String,
        /// The read-only Cypher statement the view materializes.
        query: String,
    },
    /// Unregister a standing query.
    DropView {
        /// Name passed to `CreateView`.
        name: String,
    },
    /// Read a view's maintained contents. Inside a pinned read
    /// transaction the rows are the view as of the pinned version.
    ReadView {
        /// Name passed to `CreateView`.
        name: String,
    },
    /// Turn this connection into a push stream: the server answers
    /// `Subscribed`, then sends one [`Response::ViewChange`] frame per
    /// committed version that changed the view's rows.
    Subscribe {
        /// Name passed to `CreateView`.
        name: String,
    },
}

/// A server→client message.
#[derive(Debug, Clone)]
pub enum Response {
    /// A statement's result table. `committed` carries the version id an
    /// updating statement committed at (`None` for reads and no-ops).
    Rows {
        /// Version the statement committed, if it committed one.
        committed: Option<u64>,
        /// The result rows.
        table: Table,
    },
    /// The statement (or the request itself) failed; the connection
    /// stays usable.
    Error {
        /// Structured error class.
        code: ErrorCode,
        /// Human-readable message (exactly the engine's error text for
        /// `Parse`/`Eval`/`Storage`/`Unavailable`).
        message: String,
    },
    /// Answer to `Prepare`.
    Prepared {
        /// The id `Execute` refers to, scoped to this connection.
        id: u32,
    },
    /// Answer to `Deallocate`.
    Deallocated,
    /// Answer to `BeginRead`.
    BeganRead {
        /// The pinned version id.
        version: u64,
    },
    /// Answer to `CommitRead`.
    ReadCommitted,
    /// Answer to `Ping`.
    Pong,
    /// Answer to `Goodbye`; the server closes after sending it.
    Bye,
    /// Answer to `Metrics`: the page as text exposition (new
    /// instruments append lines — no wire change needed).
    Metrics {
        /// Prometheus-style text exposition (identity, database,
        /// executor, plan-cache, store and server-level instruments).
        text: String,
    },
    /// Answer to `CreateView`.
    ViewCreated {
        /// The version the view was materialized at.
        version: u64,
    },
    /// Answer to `DropView`.
    ViewDropped,
    /// Answer to `ReadView`.
    ViewRows {
        /// The published version the rows are exact at.
        version: u64,
        /// The view's maintained contents.
        table: Table,
    },
    /// Answer to `Subscribe`; [`Response::ViewChange`] frames follow.
    Subscribed,
    /// One committed version's effect on a subscribed view, pushed by
    /// the server (never answers a request directly). `added` and
    /// `removed` are bag deltas: replaying them in version order against
    /// the `Subscribe`-time contents reproduces every published state.
    ViewChange {
        /// The subscribed view's name.
        name: String,
        /// The version whose commit produced this delta.
        version: u64,
        /// Rows present after this version that were not before
        /// (with multiplicity).
        added: Table,
        /// Rows present before this version that are gone after
        /// (with multiplicity).
        removed: Table,
    },
}

fn put_params(buf: &mut Vec<u8>, params: &Params) {
    put_u32(buf, params.len() as u32);
    for (k, v) in params {
        put_str(buf, k);
        put_value(buf, v);
    }
}

/// Reads a `u32` collection count, validated against the bytes actually
/// remaining (every element of every collection on this wire costs at
/// least one byte) — the pre-allocation bomb check.
fn checked_count(r: &mut Reader<'_>) -> Result<usize, WireError> {
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(WireError::Protocol(
            "collection count exceeds the bytes present".to_string(),
        ));
    }
    Ok(n)
}

fn read_params(r: &mut Reader<'_>) -> Result<Params, WireError> {
    let n = checked_count(r)?;
    let mut params = Params::new();
    for _ in 0..n {
        let k = r.str()?;
        let v = r.value()?;
        params.insert(k.to_string(), v);
    }
    Ok(params)
}

fn put_table(buf: &mut Vec<u8>, committed: Option<u64>, table: &Table, strings: &mut StringTable) {
    match committed {
        None => buf.push(0),
        Some(v) => {
            buf.push(1);
            put_u64(buf, v);
        }
    }
    put_bare_table(buf, table, strings);
}

fn put_bare_table(buf: &mut Vec<u8>, table: &Table, strings: &mut StringTable) {
    let names = table.schema().names();
    put_u32(buf, names.len() as u32);
    for n in names {
        put_str(buf, n);
    }
    put_u32(buf, table.len() as u32);
    for row in table.rows() {
        buf.push(1); // row marker: ≥ 1 byte per row, even with 0 columns
        for v in row.values() {
            put_shared_value(buf, v, strings);
        }
    }
}

fn read_table(
    r: &mut Reader<'_>,
    strings: &mut StringTable,
) -> Result<(Option<u64>, Table), WireError> {
    let committed = match r.u8()? {
        0 => None,
        1 => Some(r.u64()?),
        _ => return Err(WireError::Protocol("invalid committed flag".to_string())),
    };
    Ok((committed, read_bare_table(r, strings)?))
}

fn read_bare_table(r: &mut Reader<'_>, strings: &mut StringTable) -> Result<Table, WireError> {
    let n_cols = checked_count(r)?;
    let mut names = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        let n = r.str()?.to_string();
        if names.contains(&n) {
            // Schema::new asserts distinct names; a hostile peer must
            // get an error, not a panic.
            return Err(WireError::Protocol(format!("duplicate column name {n:?}")));
        }
        names.push(n);
    }
    let schema = Schema::new(names);
    let n_rows = checked_count(r)?;
    let mut table = Table::empty(schema);
    for _ in 0..n_rows {
        if r.u8()? != 1 {
            return Err(WireError::Protocol("invalid row marker".to_string()));
        }
        let mut values = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            values.push(r.shared_value(strings)?);
        }
        table.push(Record::new(values));
    }
    Ok(table)
}

impl Request {
    /// Encodes this request as one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Query { text, params } => {
                buf.push(1);
                put_str(&mut buf, text);
                put_params(&mut buf, params);
            }
            Request::Prepare { text } => {
                buf.push(2);
                put_str(&mut buf, text);
            }
            Request::Execute { id, params } => {
                buf.push(3);
                put_u32(&mut buf, *id);
                put_params(&mut buf, params);
            }
            Request::Deallocate { id } => {
                buf.push(4);
                put_u32(&mut buf, *id);
            }
            Request::BeginRead => buf.push(5),
            Request::CommitRead => buf.push(6),
            Request::Ping => buf.push(7),
            Request::Goodbye => buf.push(9),
            Request::Metrics => buf.push(10),
            Request::CreateView { name, query } => {
                buf.push(11);
                put_str(&mut buf, name);
                put_str(&mut buf, query);
            }
            Request::DropView { name } => {
                buf.push(12);
                put_str(&mut buf, name);
            }
            Request::ReadView { name } => {
                buf.push(13);
                put_str(&mut buf, name);
            }
            Request::Subscribe { name } => {
                buf.push(14);
                put_str(&mut buf, name);
            }
        }
        buf
    }

    /// Decodes a frame payload. Total: hostile bytes produce
    /// [`WireError`], never a panic or unbounded allocation.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(payload, "request");
        let req = match r.u8()? {
            1 => Request::Query {
                text: r.str()?.to_string(),
                params: read_params(&mut r)?,
            },
            2 => Request::Prepare {
                text: r.str()?.to_string(),
            },
            3 => Request::Execute {
                id: r.u32()?,
                params: read_params(&mut r)?,
            },
            4 => Request::Deallocate { id: r.u32()? },
            5 => Request::BeginRead,
            6 => Request::CommitRead,
            7 => Request::Ping,
            9 => Request::Goodbye,
            10 => Request::Metrics,
            11 => Request::CreateView {
                name: r.str()?.to_string(),
                query: r.str()?.to_string(),
            },
            12 => Request::DropView {
                name: r.str()?.to_string(),
            },
            13 => Request::ReadView {
                name: r.str()?.to_string(),
            },
            14 => Request::Subscribe {
                name: r.str()?.to_string(),
            },
            t => return Err(WireError::Protocol(format!("unknown request tag {t}"))),
        };
        if !r.is_empty() {
            return Err(WireError::Protocol(format!(
                "{} trailing bytes after request",
                r.remaining()
            )));
        }
        Ok(req)
    }
}

impl Response {
    /// Encodes this response as one frame payload, its tables through one
    /// string table.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut strings = StringTable::default();
        match self {
            Response::Rows { committed, table } => {
                buf.push(1);
                put_table(&mut buf, *committed, table, &mut strings);
            }
            Response::Error { code, message } => {
                buf.push(2);
                buf.push(*code as u8);
                put_str(&mut buf, message);
            }
            Response::Prepared { id } => {
                buf.push(3);
                put_u32(&mut buf, *id);
            }
            Response::Deallocated => buf.push(4),
            Response::BeganRead { version } => {
                buf.push(5);
                put_u64(&mut buf, *version);
            }
            Response::ReadCommitted => buf.push(6),
            Response::Pong => buf.push(7),
            Response::Bye => buf.push(9),
            Response::Metrics { text } => {
                buf.push(10);
                put_str(&mut buf, text);
            }
            Response::ViewCreated { version } => {
                buf.push(11);
                put_u64(&mut buf, *version);
            }
            Response::ViewDropped => buf.push(12),
            Response::ViewRows { version, table } => {
                buf.push(13);
                put_u64(&mut buf, *version);
                put_bare_table(&mut buf, table, &mut strings);
            }
            Response::Subscribed => buf.push(14),
            Response::ViewChange {
                name,
                version,
                added,
                removed,
            } => {
                buf.push(15);
                put_str(&mut buf, name);
                put_u64(&mut buf, *version);
                put_bare_table(&mut buf, added, &mut strings);
                put_bare_table(&mut buf, removed, &mut strings);
            }
        }
        buf
    }

    /// Decodes a frame payload. Total, like [`Request::decode`].
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(payload, "response");
        let mut strings = StringTable::default();
        let resp = match r.u8()? {
            1 => {
                let (committed, table) = read_table(&mut r, &mut strings)?;
                Response::Rows { committed, table }
            }
            2 => {
                let code_byte = r.u8()?;
                let code = ErrorCode::from_u8(code_byte).ok_or_else(|| {
                    WireError::Protocol(format!("unknown error code {code_byte}"))
                })?;
                Response::Error {
                    code,
                    message: r.str()?.to_string(),
                }
            }
            3 => Response::Prepared { id: r.u32()? },
            4 => Response::Deallocated,
            5 => Response::BeganRead { version: r.u64()? },
            6 => Response::ReadCommitted,
            7 => Response::Pong,
            9 => Response::Bye,
            10 => Response::Metrics {
                text: r.str()?.to_string(),
            },
            11 => Response::ViewCreated { version: r.u64()? },
            12 => Response::ViewDropped,
            13 => Response::ViewRows {
                version: r.u64()?,
                table: read_bare_table(&mut r, &mut strings)?,
            },
            14 => Response::Subscribed,
            15 => Response::ViewChange {
                name: r.str()?.to_string(),
                version: r.u64()?,
                added: read_bare_table(&mut r, &mut strings)?,
                removed: read_bare_table(&mut r, &mut strings)?,
            },
            t => return Err(WireError::Protocol(format!("unknown response tag {t}"))),
        };
        if !r.is_empty() {
            return Err(WireError::Protocol(format!(
                "{} trailing bytes after response",
                r.remaining()
            )));
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_core::table_of;
    use cypher_graph::Value;
    use std::sync::Arc;

    #[test]
    fn request_roundtrip() {
        let mut params = Params::new();
        params.insert("v".to_string(), Value::int(42));
        params.insert("s".to_string(), Value::str("héllo"));
        let reqs = [
            Request::Query {
                text: "MATCH (n) RETURN n".to_string(),
                params: params.clone(),
            },
            Request::Prepare {
                text: "RETURN $v".to_string(),
            },
            Request::Execute { id: 7, params },
            Request::Deallocate { id: 7 },
            Request::BeginRead,
            Request::CommitRead,
            Request::Ping,
            Request::Goodbye,
            Request::Metrics,
            Request::CreateView {
                name: "hot".to_string(),
                query: "MATCH (n) RETURN count(*) AS c".to_string(),
            },
            Request::DropView {
                name: "hot".to_string(),
            },
            Request::ReadView {
                name: "hot".to_string(),
            },
            Request::Subscribe {
                name: "hot".to_string(),
            },
        ];
        for req in &reqs {
            let bytes = req.encode();
            let back = Request::decode(&bytes).unwrap();
            assert_eq!(bytes, back.encode(), "stable re-encode for {req:?}");
        }
    }

    #[test]
    fn response_roundtrip() {
        let table = table_of(
            &["a", "b"],
            vec![
                vec![Value::int(1), Value::str("x")],
                vec![Value::Null, Value::float(f64::NAN)],
            ],
        );
        let resps = [
            Response::Rows {
                committed: Some(3),
                table,
            },
            Response::Error {
                code: ErrorCode::Parse,
                message: "unexpected token".to_string(),
            },
            Response::Prepared { id: 1 },
            Response::Deallocated,
            Response::BeganRead { version: 9 },
            Response::ReadCommitted,
            Response::Pong,
            Response::Bye,
            Response::Metrics {
                text: "# TYPE cypher_queries_read_total counter\n\
                       cypher_queries_read_total 3\n"
                    .to_string(),
            },
            Response::ViewCreated { version: 4 },
            Response::ViewDropped,
            Response::ViewRows {
                version: 4,
                table: table_of(&["c"], vec![vec![Value::int(2)]]),
            },
            Response::Subscribed,
            Response::ViewChange {
                name: "hot".to_string(),
                version: 5,
                added: table_of(&["c"], vec![vec![Value::int(3)]]),
                removed: table_of(&["c"], vec![vec![Value::int(2)]]),
            },
        ];
        for resp in &resps {
            let bytes = resp.encode();
            let back = Response::decode(&bytes).unwrap();
            assert_eq!(bytes, back.encode(), "stable re-encode for {resp:?}");
        }
    }

    #[test]
    fn zero_column_row_bomb_bounded() {
        // Claim a huge row count on a zero-column table: the count check
        // and the per-row marker byte cap allocation at the bytes
        // actually present.
        let mut buf = vec![1u8, 0]; // Rows, committed = None
        put_u32(&mut buf, 0); // 0 columns
        put_u32(&mut buf, 1_000_000); // 1M rows claimed...
        buf.push(1); // ...1 marker byte present
        assert!(Response::decode(&buf).is_err());
    }

    #[test]
    fn view_change_row_bomb_bounded() {
        // Same pre-allocation guarantee for the pushed-frame tables: a
        // hostile row count in the `removed` table is caught against the
        // bytes actually remaining.
        let mut buf = vec![15u8];
        put_str(&mut buf, "hot");
        put_u64(&mut buf, 1);
        put_u32(&mut buf, 0); // added: 0 columns
        put_u32(&mut buf, 0); // added: 0 rows
        put_u32(&mut buf, 0); // removed: 0 columns
        put_u32(&mut buf, 1_000_000); // removed: 1M rows claimed, 0 present
        assert!(matches!(
            Response::decode(&buf),
            Err(WireError::Protocol(_))
        ));
    }

    #[test]
    fn duplicate_columns_error_not_panic() {
        let mut buf = vec![1u8, 0];
        put_u32(&mut buf, 2);
        put_str(&mut buf, "a");
        put_str(&mut buf, "a");
        put_u32(&mut buf, 0);
        assert!(matches!(
            Response::decode(&buf),
            Err(WireError::Protocol(_))
        ));
    }

    fn rows_of(resp: Response) -> Table {
        match resp {
            Response::Rows { table, .. } => table,
            other => panic!("expected Rows, got {other:?}"),
        }
    }

    /// A `Rows` reply as it was encoded before string tables existed.
    fn encoded_without_table(committed: Option<u64>, table: &Table) -> Vec<u8> {
        let mut buf = vec![1u8];
        match committed {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                put_u64(&mut buf, v);
            }
        }
        let names = table.schema().names();
        put_u32(&mut buf, names.len() as u32);
        for n in names {
            put_str(&mut buf, n);
        }
        put_u32(&mut buf, table.len() as u32);
        for row in table.rows() {
            buf.push(1);
            row.values().iter().for_each(|v| put_value(&mut buf, v));
        }
        buf
    }

    /// `labels(p)` over many rows: the interned label strings go in full
    /// at their first occurrence, are registered at their second, and
    /// every later occurrence decodes to the registered `Arc` itself.
    #[test]
    fn repeated_strings_decode_to_their_registration() {
        let (person, bot): (Arc<str>, Arc<str>) = (Arc::from("Person"), Arc::from("Bot"));
        let labels = Value::List(vec![Value::String(person), Value::String(bot)]);
        let rows = (0..4).map(|i| vec![Value::int(i), labels.clone()]);
        let table = table_of(&["i", "l"], rows.collect());
        let bytes = Response::Rows {
            committed: None,
            table: table.clone(),
        }
        .encode();
        // Rows 2 and 3 send each label as a 5-byte reference instead of
        // its tag, length and bytes.
        let saved = 2 * ((5 + 6) + (5 + 3) - 2 * 5);
        assert_eq!(
            bytes.len() + saved,
            encoded_without_table(None, &table).len()
        );
        let back = rows_of(Response::decode(&bytes).unwrap());
        assert!(back.bag_eq(&table));
        let label = |row: usize, k: usize| match &back.rows()[row].values()[1] {
            Value::List(l) => match &l[k] {
                Value::String(s) => Arc::clone(s),
                other => panic!("expected a string, got {other:?}"),
            },
            other => panic!("expected a list, got {other:?}"),
        };
        for k in 0..2 {
            assert!(!Arc::ptr_eq(&label(0, k), &label(1, k)));
            for row in 2..4 {
                assert!(Arc::ptr_eq(&label(row, k), &label(1, k)), "row {row}");
            }
        }
    }

    /// Shared strings that occur once, and equal strings in distinct
    /// `Arc`s, encode exactly as they did before string tables existed.
    #[test]
    fn a_reply_without_repeats_encodes_as_without_a_table() {
        let stored: Vec<Arc<str>> = (0..50).map(|i| Arc::from(format!("s{i}"))).collect();
        let rows = stored.iter().map(|s| {
            let mut m = std::collections::BTreeMap::new();
            m.insert(Arc::from("k"), Value::str("fresh"));
            vec![Value::String(Arc::clone(s)), Value::Map(m)]
        });
        let table = table_of(&["s", "m"], rows.collect());
        let expected = encoded_without_table(Some(7), &table);
        let resp = Response::Rows {
            committed: Some(7),
            table,
        };
        assert_eq!(resp.encode(), expected);
    }

    /// A reference at or beyond the registered strings, including one
    /// before any registration, is a protocol error.
    #[test]
    fn unregistered_string_references_are_protocol_errors() {
        let reply = |cells: &[&[u8]]| {
            let mut buf = vec![1u8, 0];
            put_u32(&mut buf, 1);
            put_str(&mut buf, "s");
            put_u32(&mut buf, cells.len() as u32);
            for cell in cells {
                buf.push(1);
                buf.extend_from_slice(cell);
            }
            buf
        };
        let register = [&[11u8, 1, 0, 0, 0][..], b"x"].concat();
        let (ref0, ref1) = ([12u8, 0, 0, 0, 0], [12u8, 1, 0, 0, 0]);
        assert!(Response::decode(&reply(&[&register, &ref0])).is_ok());
        for cells in [&[&ref0[..]][..], &[&register, &ref1], &[&ref1, &register]] {
            match Response::decode(&reply(cells)) {
                Err(WireError::Protocol(m)) => {
                    assert!(m.contains("unregistered string reference"), "{m}")
                }
                other => panic!("expected a protocol error, got {other:?}"),
            }
        }
    }
}
