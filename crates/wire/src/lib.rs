//! # cypher-wire
//!
//! The hand-rolled binary wire protocol spoken between `cypher-server`
//! and `cypher-client`: a length-framed, CRC-32-checked request/response
//! exchange whose payloads reuse the [`cypher_storage`] codec for
//! [`Value`](cypher_graph::Value) trees, so everything a query can
//! return — including `NaN` payloads, nested lists/maps and temporal
//! values — round-trips bit-exactly over TCP.
//!
//! ## Layering
//!
//! ```text
//! handshake  := 8 magic bytes each way ("CYWIRE02"; last byte = version)
//! frame      := len:u32 LE · payload[len] · crc:u32 LE   (CRC-32/IEEE of payload)
//!               written as one vectored write
//! payload    := one encoded Request (client→server) or Response (server→client)
//! table      := the values of a reply's tables, through one string table
//!               per reply: a shared string repeats as a 5-byte reference
//! ```
//!
//! The string table is the storage codec's
//! [`StringTable`](cypher_storage::codec::StringTable): a string some
//! other owner also holds (`Arc::strong_count > 1`, e.g. an interned
//! label) goes in full at its first occurrence, is registered (value tag
//! 11) at its second, and is a `u32` reference (tag 12) afterwards, which
//! decodes to the registered `Arc`. A reply in which no string repeats
//! encodes exactly as without a table.
//!
//! ## Totality and bounded allocation
//!
//! Decoding is **total**: every read is bounds-checked, collection
//! counts are validated against the bytes actually present *before any
//! allocation*, strings are UTF-8-verified and value nesting is
//! depth-limited (all inherited from the storage codec), and the frame
//! layer rejects any advertised length above the negotiated cap before
//! allocating a single byte — a hostile 4 GiB length prefix costs the
//! server an 8-byte read and an error, not 4 GiB. Hostile input can
//! produce [`WireError`], never a panic or an allocation that is not
//! bounded by a small constant multiple of the frame cap.

#![warn(missing_docs)]

mod frame;
mod message;

pub use frame::{
    client_handshake, read_exact_frame, server_handshake, write_frame, WireError,
    DEFAULT_MAX_FRAME_BYTES, HANDSHAKE_MAGIC,
};
pub use message::{ErrorCode, Request, Response, ServerStats};
