//! WAL frame codec properties: roundtrip fidelity and total (panic-free)
//! behavior under arbitrary corruption.
//!
//! The recovery path trusts the WAL scanner with whatever bytes a crash
//! left on disk, so the scanner's contract is checked adversarially here:
//!
//! * **Roundtrip** — any record sequence framed by the writer scans back
//!   to exactly the same records with a `Clean` tail.
//! * **Truncation** — every possible prefix of a valid log scans without
//!   panicking to a prefix of the original records; nothing fabricated.
//! * **Bit flips** — flipping any single bit anywhere in the image never
//!   panics, never fabricates a record, and at worst costs the frames
//!   from the damaged one onward (everything before is still recovered).
//! * **Garbage** — scanning arbitrary random bytes never panics and the
//!   decoder never allocates from an attacker-sized length prefix.
//! * **Selective acks** — an ack with any well-formed SACK list
//!   round-trips exactly, bare and framed; every malformed list (too many
//!   ranges, an empty or inverted range, ranges out of order or touching,
//!   a range at or below `cum_seq`) is refused without a panic.

use decs::distrib::durability::{
    frame_record, from_bytes, scan_bytes, to_bytes, CodecError, WalRecord, WalTail,
};
use decs::distrib::protocol::{sack_valid, SACK_RANGES};
use decs::distrib::Msg;
use decs::snoop::{EventId, Occurrence, Value};
use decs_testkit::{check, i64_in, pick, vec_of, SplitMix64};

/// An arbitrary (but valid) composite-timestamped occurrence. Local ticks
/// are derived from global ticks so generated stamps are self-consistent —
/// contradictory stamps (local order opposing global order at one site)
/// cannot come out of a real clock and make `max_set` degenerate.
fn occurrence(rng: &mut SplitMix64) -> Occurrence<decs::core::CompositeTimestamp> {
    let ty = rng.next_range(0, 7) as u32;
    let members: Vec<(u32, u64, u64)> = vec_of(rng, 1, 3, |r| {
        let site = r.next_range(0, 3) as u32;
        let g = r.next_range(0, 49);
        (site, g, g * 10 + u64::from(site))
    });
    let values: Vec<Value> = vec_of(rng, 0, 2, |r| Value::Int(i64_in(r, -100, 99)));
    Occurrence::primitive(EventId(ty), decs::core::cts(&members), values)
}

/// A *wide* composite-timestamped occurrence: `width` sites drawn from a
/// shifted base so stamps overlap partially. Exercises the summarized
/// (version-vector) timestamp representation through the WAL wire format,
/// which carries members only — the decoder rebuilds the per-site summary.
fn wide_occurrence(rng: &mut SplitMix64) -> Occurrence<decs::core::CompositeTimestamp> {
    let ty = rng.next_range(0, 7) as u32;
    let width = pick(rng, &[2usize, 8, 32, 128]);
    let base = rng.next_range(0, 63) as u32;
    let g0 = rng.next_range(0, 49);
    let members: Vec<(u32, u64, u64)> = (0..width)
        .map(|i| {
            let site = base + i as u32;
            let g = g0 + (i as u64 % 2);
            (site, g, g * 10 + u64::from(site))
        })
        .collect();
    Occurrence::primitive(EventId(ty), decs::core::cts(&members), Vec::new())
}

fn msg(rng: &mut SplitMix64) -> Msg {
    let seq = rng.next_range(0, 999);
    match rng.next_below(4) {
        0 => Msg::Event {
            seq,
            epoch: rng.next_range(0, 3),
            occ: occurrence(rng),
        },
        1 => Msg::Batch {
            seq,
            epoch: rng.next_range(0, 3),
            watermark: rng.next_range(0, 99),
            events: std::sync::Arc::new(Vec::new()),
        },
        2 => Msg::Batch {
            seq,
            epoch: rng.next_range(0, 3),
            watermark: rng.next_range(0, 99),
            events: std::sync::Arc::new(vec_of(rng, 0, 2, occurrence)),
        },
        _ => Msg::Hello {
            seq,
            epoch: rng.next_range(1, 3),
            watermark: rng.next_range(0, 99),
        },
    }
}

fn record(rng: &mut SplitMix64) -> WalRecord {
    match rng.next_below(4) {
        0 => WalRecord::Delivered {
            site: rng.next_range(0, 3) as u32,
            at: rng.next_range(0, 9_999_999),
            msg: msg(rng),
        },
        1 => WalRecord::TimerFired {
            tag: rng.next_range(0, 63),
            at: rng.next_range(0, 9_999_999),
            site: rng.next_range(0, 3) as u32,
            global: rng.next_range(0, 49),
            local: rng.next_range(0, 499),
        },
        2 => WalRecord::Evicted {
            site: rng.next_range(0, 3) as u32,
            at: rng.next_range(0, 9_999_999),
        },
        _ => WalRecord::Drained {
            count: rng.next_range(1, 99),
        },
    }
}

fn image(records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut boundaries = vec![0usize];
    for r in records {
        bytes.extend_from_slice(&frame_record(r));
        boundaries.push(bytes.len());
    }
    (bytes, boundaries)
}

/// Number of whole frames that survive when the image is cut at `len`.
fn frames_below(boundaries: &[usize], len: usize) -> usize {
    boundaries.iter().filter(|&&b| b > 0 && b <= len).count()
}

/// Every property of this file runs this many cases.
const CASES: u32 = 128;

#[test]
fn roundtrip_is_exact() {
    check("roundtrip_is_exact", CASES, |rng| {
        let records = vec_of(rng, 0, 11, record);
        let (bytes, _) = image(&records);
        let scan = scan_bytes(&bytes);
        assert_eq!(scan.records, records);
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(scan.tail, WalTail::Clean);
    });
}

#[test]
fn every_truncation_scans_to_a_prefix() {
    check("every_truncation_scans_to_a_prefix", CASES, |rng| {
        let records = vec_of(rng, 1, 7, record);
        let cut_sel = rng.next_range(0, 999_999);
        let (bytes, boundaries) = image(&records);
        // Scale the selector onto 0..=len so every cut point is reachable.
        let cut = ((bytes.len() as u64 + 1) * cut_sel / 1_000_000) as usize;
        let scan = scan_bytes(&bytes[..cut]);
        let whole = frames_below(&boundaries, cut);
        // Exactly the whole frames before the cut survive; a cut on a
        // frame boundary is a clean tail, anywhere else is torn.
        assert_eq!(scan.records.len(), whole);
        assert_eq!(&scan.records[..], &records[..whole]);
        if boundaries.contains(&cut) {
            assert_eq!(scan.tail, WalTail::Clean);
        } else {
            assert!(
                matches!(scan.tail, WalTail::Torn { .. }),
                "tail must be torn"
            );
        }
    });
}

#[test]
fn any_single_bit_flip_fails_cleanly() {
    check("any_single_bit_flip_fails_cleanly", CASES, |rng| {
        let records = vec_of(rng, 1, 5, record);
        let pos_sel = rng.next_range(0, 999_999);
        let bit = rng.next_range(0, 7);
        let (mut bytes, boundaries) = image(&records);
        let pos = (bytes.len() as u64 * pos_sel / 1_000_000) as usize;
        bytes[pos] ^= 1 << bit;
        // Must not panic; must not fabricate. The flip lands inside some
        // frame k (or its header): frames before k always survive; frame
        // k itself survives only in the astronomically unlikely event of
        // a CRC collision that still decodes — in which case the decoded
        // record could differ, so we only assert the prefix property for
        // frames strictly before the damaged one.
        let scan = scan_bytes(&bytes);
        let damaged_frame = boundaries[1..]
            .iter()
            .position(|&b| pos < b)
            .unwrap_or(records.len());
        assert!(scan.records.len() >= damaged_frame);
        assert_eq!(&scan.records[..damaged_frame], &records[..damaged_frame]);
        if scan.records.len() < records.len() {
            assert!(!matches!(scan.tail, WalTail::Clean));
        }
    });
}

#[test]
fn arbitrary_garbage_never_panics() {
    check("arbitrary_garbage_never_panics", CASES, |rng| {
        let bytes = vec_of(rng, 0, 511, |r| r.next_u64() as u8);
        let scan = scan_bytes(&bytes);
        // The valid prefix re-frames to exactly the bytes it claims.
        let (reframed, _) = image(&scan.records);
        assert_eq!(reframed.len() as u64, scan.valid_len);
        assert_eq!(&bytes[..scan.valid_len as usize], &reframed[..]);
    });
}

#[test]
fn wide_stamp_roundtrip_rebuilds_summary() {
    check("wide_stamp_roundtrip_rebuilds_summary", CASES, |rng| {
        let occs = vec_of(rng, 2, 4, wide_occurrence);
        // Summarized (wide) timestamps through the WAL: the wire format
        // carries members only, so the scan must hand back stamps whose
        // rebuilt summaries drive the vector kernels to the same answers
        // as the naive member-scan oracles on the originals.
        let records: Vec<WalRecord> = occs
            .iter()
            .enumerate()
            .map(|(i, occ)| WalRecord::Delivered {
                site: i as u32,
                at: i as u64,
                msg: Msg::Event {
                    seq: i as u64,
                    epoch: 0,
                    occ: occ.clone(),
                },
            })
            .collect();
        let (bytes, _) = image(&records);
        let scan = scan_bytes(&bytes);
        assert_eq!(scan.tail, WalTail::Clean);
        assert_eq!(&scan.records[..], &records[..]);
        let mut back = Vec::new();
        for r in &scan.records {
            if let WalRecord::Delivered {
                msg: Msg::Event { occ, .. },
                ..
            } = r
            {
                back.push(occ.time.clone());
            }
        }
        assert_eq!(back.len(), occs.len());
        for (a, occ_a) in back.iter().zip(&occs) {
            assert_eq!(a, &occ_a.time);
            for (b, occ_b) in back.iter().zip(&occs) {
                assert_eq!(a.relation(b), occ_a.time.relation_naive(&occ_b.time));
                assert_eq!(
                    decs::core::max_op(a, b),
                    decs::core::max_op_naive(&occ_a.time, &occ_b.time)
                );
            }
        }
    });
}

#[test]
fn corrupting_a_crc_costs_only_the_suffix() {
    check("corrupting_a_crc_costs_only_the_suffix", CASES, |rng| {
        let records = vec_of(rng, 2, 7, record);
        let frame_sel = rng.next_range(0, 999_999);
        let (mut bytes, boundaries) = image(&records);
        let k = (records.len() as u64 * frame_sel / 1_000_000) as usize;
        // Flip a byte of frame k's stored CRC (offset 4..8 in the frame).
        bytes[boundaries[k] + 5] ^= 0xFF;
        let scan = scan_bytes(&bytes);
        assert_eq!(scan.records.len(), k);
        assert_eq!(&scan.records[..], &records[..k]);
        assert!(
            matches!(scan.tail, WalTail::Corrupt { .. }),
            "tail must be corrupt"
        );
        assert_eq!(scan.valid_len, boundaries[k] as u64);
    });
}

/// A well-formed ack: up to [`SACK_RANGES`] ascending, disjoint,
/// non-adjacent half-open ranges strictly above `cum_seq`.
fn sack_ack(rng: &mut SplitMix64) -> (u64, u64, Vec<(u64, u64)>) {
    let cum_seq = rng.next_range(0, 999);
    let epoch = rng.next_range(0, 3);
    let mut floor = cum_seq;
    let sack = vec_of(rng, 0, SACK_RANGES, |r| {
        let lo = floor + r.next_range(1, 9);
        let hi = lo + r.next_range(1, 9);
        floor = hi;
        (lo, hi)
    });
    (cum_seq, epoch, sack)
}

#[test]
fn ack_with_sack_roundtrips() {
    check("ack_with_sack_roundtrips", CASES, |rng| {
        let (cum_seq, epoch, sack) = sack_ack(rng);
        assert!(sack_valid(cum_seq, &sack), "{cum_seq} {sack:?}");
        let ack = Msg::Ack {
            cum_seq,
            epoch,
            sack,
        };
        assert_eq!(from_bytes::<Msg>(&to_bytes(&ack)), Ok(ack.clone()));
        let records = vec![WalRecord::Delivered {
            site: 0,
            at: 1,
            msg: ack,
        }];
        let (bytes, _) = image(&records);
        let scan = scan_bytes(&bytes);
        assert_eq!(scan.records, records);
        assert_eq!(scan.tail, WalTail::Clean);
    });
}

#[test]
fn malformed_sack_is_refused() {
    check("malformed_sack_is_refused", CASES, |rng| {
        let (cum_seq, epoch, mut sack) = sack_ack(rng);
        // Break the list in one of five ways.
        match rng.next_below(5) {
            0 => {
                // One range too many.
                let mut floor = sack.last().map_or(cum_seq, |&(_, hi)| hi);
                while sack.len() <= SACK_RANGES {
                    sack.push((floor + 1, floor + 2));
                    floor += 2;
                }
            }
            1 => {
                // An empty or inverted range.
                let lo = sack.last().map_or(cum_seq, |&(_, hi)| hi) + 1;
                sack.truncate(SACK_RANGES - 1);
                sack.push((lo, lo - rng.next_range(0, 1)));
            }
            2 => {
                // A range that starts before its predecessor ends or
                // touches it.
                let (_, hi) = *sack.last().unwrap_or(&(cum_seq + 1, cum_seq + 2));
                sack.truncate(SACK_RANGES - 2);
                if sack.is_empty() {
                    sack.push((cum_seq + 1, hi));
                }
                let (plo, phi) = *sack.last().expect("non-empty");
                sack.push((rng.next_range(plo, phi), phi + 1));
            }
            3 => {
                // The first range covers the missing `cum_seq` or lies
                // below it.
                let lo = rng.next_range(0, cum_seq);
                sack.insert(0, (lo, lo + 1));
                sack.truncate(SACK_RANGES);
            }
            _ => {
                // Descending order.
                if sack.len() < 2 {
                    sack = vec![(cum_seq + 4, cum_seq + 5), (cum_seq + 1, cum_seq + 2)];
                } else {
                    sack.reverse();
                }
            }
        }
        assert!(!sack_valid(cum_seq, &sack), "{cum_seq} {sack:?}");
        let ack = Msg::Ack {
            cum_seq,
            epoch,
            sack,
        };
        assert_eq!(
            from_bytes::<Msg>(&to_bytes(&ack)),
            Err(CodecError::Invalid("Ack SACK ranges"))
        );
    });
}
