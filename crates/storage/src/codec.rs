//! Hand-rolled binary codec for graph values, change records and snapshot
//! rows, plus the CRC-32 used by every framing layer.
//!
//! All integers are little-endian and fixed-width; strings and
//! collections carry a `u32` length/count prefix. Floats are encoded as
//! raw IEEE-754 bits, so every value — including `NaN` payloads and
//! `-0.0` — round-trips bit-exactly. Decoding is **total**: every read is
//! bounds-checked, counts are validated against the remaining buffer
//! before any allocation, UTF-8 is verified, and value-tree nesting is
//! depth-limited, so corrupt input produces [`StorageError::Corrupt`] and
//! never a panic, over-allocation or stack overflow.
//! A message may opt into a [`StringTable`] that sends a repeated string
//! once; the WAL and snapshots never do, and their readers reject its tags.

use crate::StorageError;
use cypher_graph::change::Change;
use cypher_graph::fxhash::FxHashMap;
use cypher_graph::graph::{NodeState, RelState};
use cypher_graph::temporal::{Date, Duration, LocalDateTime, LocalTime, Temporal, ZonedDateTime};
use cypher_graph::{NodeId, Path, RelId, Value};
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// Maximum [`Value`] nesting depth the decoder accepts. Honest data never
/// approaches this; a corrupt length field must not be able to recurse
/// the decoder off the stack.
const MAX_VALUE_DEPTH: u32 = 64;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, the polynomial used by zip/png)
// ---------------------------------------------------------------------------

/// The slicing-by-8 lookup tables, computed at compile time.
/// `CRC_TABLES[0]` is the classic bytewise table (reflected polynomial
/// `0xEDB88320`); `CRC_TABLES[k][b]` is the CRC register after byte `b`
/// followed by `k` zero bytes, so eight table lookups advance the
/// register over eight input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE) of a byte slice, eight bytes per step (slicing-by-8);
/// the value is the classic bytewise CRC's.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Appends a `u32` (little-endian).
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` (little-endian).
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `i64` (little-endian two's complement).
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_props(buf: &mut Vec<u8>, props: &[(Arc<str>, Value)]) {
    put_u32(buf, props.len() as u32);
    for (k, v) in props {
        put_str(buf, k);
        put_value(buf, v);
    }
}

/// Value tags of a string sent in full and registered at the next index
/// of the message's [`StringTable`], and of a `u32` index into it.
const TAG_STR_REGISTER: u8 = 11;
const TAG_STR_REF: u8 = 12;

/// A string table scoped to one message, built in value order on both
/// sides. The encoder tracks strings by `Arc` address, and only those with
/// `Arc::strong_count > 1` (a string nothing else holds cannot repeat): a
/// string goes in full (tag 4) at its first occurrence, registered (tag
/// 11) at its second, and as a reference (tag 12) afterwards, which the
/// decoder answers with a clone of the registered `Arc`. A message in
/// which no string repeats encodes exactly as without a table.
#[derive(Default)]
pub struct StringTable {
    /// Encoder: each tracked address → its index once registered.
    sent: FxHashMap<usize, Option<u32>>,
    /// The registered strings, by index.
    registered: Vec<Arc<str>>,
}

/// Appends a string value, through `strings` when the message has one.
fn put_string(buf: &mut Vec<u8>, s: &Arc<str>, strings: Option<&mut StringTable>) {
    let mut tag = 4;
    if let Some(t) = strings.filter(|_| Arc::strong_count(s) > 1) {
        match t.sent.entry(Arc::as_ptr(s) as *const u8 as usize) {
            Entry::Vacant(first) => drop(first.insert(None)),
            Entry::Occupied(mut seen) => match *seen.get() {
                Some(i) => {
                    buf.push(TAG_STR_REF);
                    put_u32(buf, i);
                    return;
                }
                None => {
                    seen.insert(Some(t.registered.len() as u32));
                    t.registered.push(Arc::clone(s));
                    tag = TAG_STR_REGISTER;
                }
            },
        }
    }
    buf.push(tag);
    put_str(buf, s);
}

/// Appends an encoded [`Value`] tree.
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    put_value_in(buf, v, None)
}

/// [`put_value`] through the message's `strings` table.
pub fn put_shared_value(buf: &mut Vec<u8>, v: &Value, strings: &mut StringTable) {
    put_value_in(buf, v, Some(strings))
}

fn put_value_in(buf: &mut Vec<u8>, v: &Value, mut strings: Option<&mut StringTable>) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => {
            buf.push(1);
            buf.push(*b as u8);
        }
        Value::Integer(i) => {
            buf.push(2);
            put_i64(buf, *i);
        }
        Value::Float(f) => {
            buf.push(3);
            put_u64(buf, f.to_bits());
        }
        Value::String(s) => put_string(buf, s, strings),
        Value::List(items) => {
            buf.push(5);
            put_u32(buf, items.len() as u32);
            for item in items {
                put_value_in(buf, item, strings.as_deref_mut());
            }
        }
        Value::Map(m) => {
            buf.push(6);
            put_u32(buf, m.len() as u32);
            for (k, item) in m {
                put_str(buf, k);
                put_value_in(buf, item, strings.as_deref_mut());
            }
        }
        Value::Node(n) => {
            buf.push(7);
            put_u64(buf, n.0);
        }
        Value::Rel(r) => {
            buf.push(8);
            put_u64(buf, r.0);
        }
        Value::Path(p) => {
            buf.push(9);
            put_u64(buf, p.start().0);
            let steps = p.steps();
            put_u32(buf, steps.len() as u32);
            for &(r, n) in steps {
                put_u64(buf, r.0);
                put_u64(buf, n.0);
            }
        }
        Value::Temporal(t) => {
            buf.push(10);
            match t {
                Temporal::Date(d) => {
                    buf.push(0);
                    put_i64(buf, d.epoch_days);
                }
                Temporal::LocalTime(t) => {
                    buf.push(1);
                    put_i64(buf, t.nanos);
                }
                Temporal::LocalDateTime(dt) => {
                    buf.push(2);
                    put_i64(buf, dt.date.epoch_days);
                    put_i64(buf, dt.time.nanos);
                }
                Temporal::DateTime(z) => {
                    buf.push(3);
                    put_i64(buf, z.local.date.epoch_days);
                    put_i64(buf, z.local.time.nanos);
                    put_i64(buf, z.offset_seconds as i64);
                }
                Temporal::Duration(d) => {
                    buf.push(4);
                    put_i64(buf, d.months);
                    put_i64(buf, d.days);
                    put_i64(buf, d.seconds);
                    put_i64(buf, d.nanos);
                }
            }
        }
    }
}

/// Appends an encoded [`Change`] record.
pub fn put_change(buf: &mut Vec<u8>, c: &Change) {
    match c {
        Change::AddNode { id, labels, props } => {
            buf.push(0);
            put_u64(buf, id.0);
            put_u32(buf, labels.len() as u32);
            for l in labels {
                put_str(buf, l);
            }
            put_props(buf, props);
        }
        Change::AddRel {
            id,
            src,
            tgt,
            rel_type,
            props,
        } => {
            buf.push(1);
            put_u64(buf, id.0);
            put_u64(buf, src.0);
            put_u64(buf, tgt.0);
            put_str(buf, rel_type);
            put_props(buf, props);
        }
        Change::DeleteNode { id } => {
            buf.push(2);
            put_u64(buf, id.0);
        }
        Change::DeleteRel { id } => {
            buf.push(3);
            put_u64(buf, id.0);
        }
        Change::SetNodeProp { id, key, value } => {
            buf.push(4);
            put_u64(buf, id.0);
            put_str(buf, key);
            put_value(buf, value);
        }
        Change::SetRelProp { id, key, value } => {
            buf.push(5);
            put_u64(buf, id.0);
            put_str(buf, key);
            put_value(buf, value);
        }
        Change::RemoveNodeProp { id, key } => {
            buf.push(6);
            put_u64(buf, id.0);
            put_str(buf, key);
        }
        Change::ReplaceNodeProps { id, props } => {
            buf.push(7);
            put_u64(buf, id.0);
            put_props(buf, props);
        }
        Change::AddLabel { id, label } => {
            buf.push(8);
            put_u64(buf, id.0);
            put_str(buf, label);
        }
        Change::RemoveLabel { id, label } => {
            buf.push(9);
            put_u64(buf, id.0);
            put_str(buf, label);
        }
    }
}

/// Appends an encoded snapshot node row.
pub fn put_node_state(buf: &mut Vec<u8>, ns: &NodeState) {
    put_u64(buf, ns.id.0);
    put_u32(buf, ns.labels.len() as u32);
    for l in &ns.labels {
        put_str(buf, l);
    }
    put_props(buf, &ns.props);
}

/// Appends an encoded snapshot relationship row.
pub fn put_rel_state(buf: &mut Vec<u8>, rs: &RelState) {
    put_u64(buf, rs.id.0);
    put_u64(buf, rs.src.0);
    put_u64(buf, rs.tgt.0);
    put_str(buf, &rs.rel_type);
    put_props(buf, &rs.props);
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over encoded bytes.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Label attached to corruption errors (file name / structure).
    context: &'a str,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`; `context` labels corruption errors.
    pub fn new(buf: &'a [u8], context: &'a str) -> Self {
        Reader {
            buf,
            pos: 0,
            context,
        }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn corrupt(&self, what: &str) -> StorageError {
        StorageError::corrupt(format!("{}: {what}", self.context), self.pos as u64)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        if self.remaining() < n {
            return Err(self.corrupt("unexpected end of input"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, StorageError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a collection count, validating it against the bytes left
    /// (every element occupies at least one byte, so a count larger than
    /// the remainder is corrupt — checked *before* any allocation).
    fn count(&mut self) -> Result<usize, StorageError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(self.corrupt("impossible collection count"));
        }
        Ok(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<Arc<str>, StorageError> {
        let len = self.count()?;
        let bytes = self.take(len)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(Arc::from(s)),
            Err(_) => Err(self.corrupt("invalid UTF-8")),
        }
    }

    fn props(&mut self) -> Result<Vec<(Arc<str>, Value)>, StorageError> {
        let n = self.count()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let k = self.str()?;
            let v = self.value()?;
            out.push((k, v));
        }
        Ok(out)
    }

    /// Reads an encoded [`Value`] tree.
    pub fn value(&mut self) -> Result<Value, StorageError> {
        self.value_at(0, None)
    }

    /// Reads a [`Value`] tree written by [`put_shared_value`].
    pub fn shared_value(&mut self, strings: &mut StringTable) -> Result<Value, StorageError> {
        self.value_at(0, Some(strings))
    }

    fn value_at(
        &mut self,
        depth: u32,
        mut t: Option<&mut StringTable>,
    ) -> Result<Value, StorageError> {
        if depth > MAX_VALUE_DEPTH {
            return Err(self.corrupt("value nesting too deep"));
        }
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => match self.u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                _ => Err(self.corrupt("invalid boolean byte")),
            },
            2 => Ok(Value::Integer(self.i64()?)),
            3 => Ok(Value::Float(f64::from_bits(self.u64()?))),
            4 => Ok(Value::String(self.str()?)),
            TAG_STR_REGISTER if t.is_some() => {
                let s = self.str()?;
                t.unwrap().registered.push(Arc::clone(&s));
                Ok(Value::String(s))
            }
            TAG_STR_REF if t.is_some() => match t.unwrap().registered.get(self.u32()? as usize) {
                Some(s) => Ok(Value::String(Arc::clone(s))),
                None => Err(self.corrupt("unregistered string reference")),
            },
            5 => {
                let n = self.count()?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value_at(depth + 1, t.as_deref_mut())?);
                }
                Ok(Value::List(items))
            }
            6 => {
                let n = self.count()?;
                let mut m = std::collections::BTreeMap::new();
                for _ in 0..n {
                    let k = self.str()?;
                    let v = self.value_at(depth + 1, t.as_deref_mut())?;
                    m.insert(k, v);
                }
                Ok(Value::Map(m))
            }
            7 => Ok(Value::Node(NodeId(self.u64()?))),
            8 => Ok(Value::Rel(RelId(self.u64()?))),
            9 => {
                let start = NodeId(self.u64()?);
                let n = self.count()?;
                let mut steps = Vec::with_capacity(n);
                for _ in 0..n {
                    let r = RelId(self.u64()?);
                    let node = NodeId(self.u64()?);
                    steps.push((r, node));
                }
                Ok(Value::Path(Path::new(start, steps)))
            }
            10 => {
                let t = match self.u8()? {
                    0 => Temporal::Date(Date {
                        epoch_days: self.i64()?,
                    }),
                    1 => Temporal::LocalTime(LocalTime { nanos: self.i64()? }),
                    2 => Temporal::LocalDateTime(LocalDateTime {
                        date: Date {
                            epoch_days: self.i64()?,
                        },
                        time: LocalTime { nanos: self.i64()? },
                    }),
                    3 => {
                        let date = Date {
                            epoch_days: self.i64()?,
                        };
                        let time = LocalTime { nanos: self.i64()? };
                        let offset = self.i64()?;
                        let offset = i32::try_from(offset)
                            .map_err(|_| self.corrupt("offset out of range"))?;
                        Temporal::DateTime(ZonedDateTime {
                            local: LocalDateTime { date, time },
                            offset_seconds: offset,
                        })
                    }
                    4 => Temporal::Duration(Duration {
                        months: self.i64()?,
                        days: self.i64()?,
                        seconds: self.i64()?,
                        nanos: self.i64()?,
                    }),
                    _ => return Err(self.corrupt("invalid temporal tag")),
                };
                Ok(Value::Temporal(t))
            }
            _ => Err(self.corrupt("invalid value tag")),
        }
    }

    /// Reads an encoded [`Change`] record.
    pub fn change(&mut self) -> Result<Change, StorageError> {
        match self.u8()? {
            0 => {
                // A node record is encoded exactly as a snapshot node row.
                let NodeState { id, labels, props } = self.node_state()?;
                Ok(Change::AddNode { id, labels, props })
            }
            1 => {
                let id = RelId(self.u64()?);
                let src = NodeId(self.u64()?);
                let tgt = NodeId(self.u64()?);
                let rel_type = self.str()?;
                let props = self.props()?;
                Ok(Change::AddRel {
                    id,
                    src,
                    tgt,
                    rel_type,
                    props,
                })
            }
            2 => Ok(Change::DeleteNode {
                id: NodeId(self.u64()?),
            }),
            3 => Ok(Change::DeleteRel {
                id: RelId(self.u64()?),
            }),
            4 => Ok(Change::SetNodeProp {
                id: NodeId(self.u64()?),
                key: self.str()?,
                value: self.value()?,
            }),
            5 => Ok(Change::SetRelProp {
                id: RelId(self.u64()?),
                key: self.str()?,
                value: self.value()?,
            }),
            6 => Ok(Change::RemoveNodeProp {
                id: NodeId(self.u64()?),
                key: self.str()?,
            }),
            7 => Ok(Change::ReplaceNodeProps {
                id: NodeId(self.u64()?),
                props: self.props()?,
            }),
            8 => Ok(Change::AddLabel {
                id: NodeId(self.u64()?),
                label: self.str()?,
            }),
            9 => Ok(Change::RemoveLabel {
                id: NodeId(self.u64()?),
                label: self.str()?,
            }),
            _ => Err(self.corrupt("invalid change tag")),
        }
    }

    /// Reads an encoded snapshot node row.
    pub fn node_state(&mut self) -> Result<NodeState, StorageError> {
        let id = NodeId(self.u64()?);
        let n = self.count()?;
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            labels.push(self.str()?);
        }
        let props = self.props()?;
        Ok(NodeState { id, labels, props })
    }

    /// Reads an encoded snapshot relationship row.
    pub fn rel_state(&mut self) -> Result<RelState, StorageError> {
        let id = RelId(self.u64()?);
        let src = NodeId(self.u64()?);
        let tgt = NodeId(self.u64()?);
        let rel_type = self.str()?;
        let props = self.props()?;
        Ok(RelState {
            id,
            src,
            tgt,
            rel_type,
            props,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The textbook CRC-32/IEEE, one byte at a time and each bit by
    /// shift-and-xor: no tables, so independent of the ones under test.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    /// Every length 0..=64 at every start offset 0..8: covers the
    /// eight-byte body, the bytewise tail and unaligned starts.
    #[test]
    fn crc32_slicing_matches_bitwise_reference() {
        use rand::{rngs::SmallRng, RngCore, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xC4C3_2000);
        let buf: Vec<u8> = (0..72).map(|_| rng.next_u64() as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn scalar_roundtrip() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::int(-42),
            Value::float(-0.0),
            Value::float(f64::NAN),
            Value::str("héllo"),
            Value::Node(NodeId(7)),
            Value::Rel(RelId(9)),
        ];
        for v in &vals {
            let mut buf = Vec::new();
            put_value(&mut buf, v);
            let mut r = Reader::new(&buf, "test");
            let back = r.value().unwrap();
            assert!(r.is_empty());
            assert_eq!(format!("{v:?}"), format!("{back:?}"), "exact round-trip");
        }
    }

    #[test]
    fn truncated_input_is_corrupt_not_panic() {
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::list([Value::int(1), Value::str("abc")]));
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut], "trunc");
            assert!(r.value().is_err(), "cut at {cut} must error");
        }
    }

    #[test]
    fn absurd_counts_rejected_before_allocation() {
        // List with a claimed 2^31 elements but no bytes behind it.
        let mut buf = vec![5u8];
        put_u32(&mut buf, u32::MAX);
        let mut r = Reader::new(&buf, "bomb");
        assert!(matches!(r.value(), Err(StorageError::Corrupt { .. })));
    }

    #[test]
    fn deep_nesting_rejected() {
        // 1000 nested single-element lists.
        let mut buf = Vec::new();
        for _ in 0..1000 {
            buf.push(5);
            put_u32(&mut buf, 1);
        }
        buf.push(0); // innermost null
        let mut r = Reader::new(&buf, "deep");
        assert!(matches!(r.value(), Err(StorageError::Corrupt { .. })));
    }
}
