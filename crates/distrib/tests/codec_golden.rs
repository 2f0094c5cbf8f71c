//! Golden bytes for the wire and log formats.
//!
//! The codec writes a composite timestamp as its member list and a
//! parameter list as a length-prefixed sequence of tuples, whatever the
//! in-memory representation of either. The literals below were captured
//! from the encoder before the compact occurrence layout (singleton/shared
//! stamps, one-block parameter slices) landed; a change that moves a single
//! byte of a `Msg`, of a framed `WalRecord`, or of their decoding fails
//! here.

use decs_core::{cts, CompositeTimestamp};
use decs_distrib::durability::{frame_record, from_bytes, to_bytes};
use decs_distrib::{Msg, WalRecord};
use decs_snoop::{EventId, Occurrence, ParamTuple, Value};
use std::sync::Arc;

/// `Msg::Batch` with a singleton stamp and a width-3 stamp carrying three
/// parameter tuples (one of them empty).
const BATCH_HEX: &str = concat!(
    "0407000000000000000100000000000000290000000000000002000000000000",
    "0002000000010000000000000003000000280000000000000090010000000000",
    "000b00000000000000010000000000000002000000010000000000000000fbff",
    "ffffffffffff0900000003000000000000000000000028000000000000009101",
    "0000000000000100000029000000000000009a01000000000000040000002800",
    "00000000000092010000000000000c0000000000000003000000000000000200",
    "0000020000000000000000070000000000000002020000000000000061620500",
    "0000000000000000000006000000020000000000000001000000000000f83f03",
    "01",
);

/// A framed (length, CRC-32, payload) `WalRecord::Delivered` holding a
/// `Msg::Event` with a width-3 stamp.
const WAL_HEX: &str = concat!(
    "8b0000003108d437000400000007ca9a3b000000000203000000000000000000",
    "0000000000000100000003000000000000000100000009000000000000005a00",
    "0000000000000200000009000000000000005f00000000000000050000000a00",
    "00000000000063000000000000000d0000000000000001000000000000000100",
    "00000100000000000000002a00000000000000",
);

/// An occurrence with a fixed uid (minted uids depend on test order).
fn occ(
    ty: u32,
    time: CompositeTimestamp,
    params: Vec<ParamTuple>,
    uid: u64,
) -> Occurrence<CompositeTimestamp> {
    Occurrence {
        ty: EventId(ty),
        time,
        params: params.into(),
        uid,
    }
}

fn batch() -> Msg {
    Msg::Batch {
        seq: 7,
        epoch: 1,
        watermark: 41,
        events: Arc::new(vec![
            occ(
                2,
                cts(&[(3, 40, 400)]),
                vec![ParamTuple::new(EventId(2), vec![Value::Int(-5)])],
                11,
            ),
            occ(
                9,
                cts(&[(0, 40, 401), (1, 41, 410), (4, 40, 402)]),
                vec![
                    ParamTuple::new(EventId(2), vec![Value::Int(7), Value::Str("ab".into())]),
                    ParamTuple::new(EventId(5), vec![]),
                    ParamTuple::new(EventId(6), vec![Value::Float(1.5), Value::Bool(true)]),
                ],
                12,
            ),
        ]),
    }
}

fn record() -> WalRecord {
    WalRecord::Delivered {
        site: 4,
        at: 1_000_000_007,
        msg: Msg::Event {
            seq: 3,
            epoch: 0,
            occ: occ(
                1,
                cts(&[(1, 9, 90), (2, 9, 95), (5, 10, 99)]),
                vec![ParamTuple::new(EventId(1), vec![Value::Int(42)])],
                13,
            ),
        },
    }
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex literal"))
        .collect()
}

#[test]
fn msg_batch_bytes_are_golden() {
    let golden = unhex(BATCH_HEX);
    assert_eq!(to_bytes(&batch()), golden);
    let back: Msg = from_bytes(&golden).unwrap();
    assert_eq!(back, batch());
    let Msg::Batch { events, .. } = back else {
        panic!("decoded to another variant")
    };
    assert_eq!(events[0].uid, 11);
    assert_eq!(events[1].time.len(), 3);
    assert_eq!(events[1].params.len(), 3);
}

#[test]
fn framed_wal_record_bytes_are_golden() {
    let golden = unhex(WAL_HEX);
    assert_eq!(frame_record(&record()), golden);
    // The payload after the 8-byte (length, CRC) header decodes back.
    let back: WalRecord = from_bytes(&golden[8..]).unwrap();
    assert_eq!(back, record());
}
