//! Property tests for the wire codec (`cardest_serve::wire`).
//!
//! Two contracts a network-facing codec must hold unconditionally:
//!
//! 1. **Round-trip**: `decode(encode(f)) == f` for *every* representable
//!    frame — floats by bit pattern (NaN included), empty strings, empty
//!    and multi-word bit vectors.
//! 2. **Totality**: the decoder never panics, whatever bytes arrive and in
//!    whatever chunk sizes — hostile input maps to typed `WireError`s.
//!
//! Plus the property that makes round-trips exact: encoding is
//! **canonical**, so any payload the decoder accepts re-encodes to the
//! identical bytes.
//!
//! Two walks close the enums themselves. Each is a `match` without a
//! wildcard arm, so a new `Frame` or `WireError` variant does not compile
//! until it has a sample here and a place in its walk:
//!
//! - every `Frame` variant round-trips byte-exact, and the walk covers
//!   every frame kind the decoder accepts;
//! - every `WireError` variant is what some hostile byte stream decodes to.

use cardest_data::BitVec;
use cardest_serve::wire::{decode_payload, MAGIC, MAX_PAYLOAD, WIRE_VERSION};
use cardest_serve::{
    Decoder, ErrorCode, ErrorFrame, Frame, RequestFrame, ResponseFrame, StatsFrame, TracesFrame,
    WireError, WireQuery, WireSource, WireTrace, MAX_STATS_ENTRIES, MAX_TRACE_STAGES,
};
use proptest::prelude::*;

fn source_of(tag: u8) -> WireSource {
    match tag % 5 {
        0 => WireSource::Computed,
        1 => WireSource::Coalesced,
        2 => WireSource::CacheExact,
        3 => WireSource::CacheBounds,
        _ => WireSource::ShedBracket,
    }
}

fn code_of(tag: u8) -> ErrorCode {
    match tag % 8 {
        0 => ErrorCode::Malformed,
        1 => ErrorCode::UnknownModel,
        2 => ErrorCode::BadQuery,
        3 => ErrorCode::Overloaded,
        4 => ErrorCode::QuotaExceeded,
        5 => ErrorCode::ShuttingDown,
        6 => ErrorCode::DeadlineExceeded,
        _ => ErrorCode::ConnLimit,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Requests round-trip bit-exactly: θ as an arbitrary f64 bit pattern
    /// (NaN included), query either an index or an inline bit vector of
    /// arbitrary width (word-boundary widths included via 0..200).
    #[test]
    fn request_frames_round_trip(
        request_id in any::<u64>(),
        client_id in any::<u64>(),
        theta_bits in any::<u64>(),
        deadline_us in any::<u32>(),
        model in "[a-z0-9_]{0,12}",
        by_index in any::<bool>(),
        index in any::<u64>(),
        bits in prop::collection::vec(any::<bool>(), 0..200),
    ) {
        let query = if by_index {
            WireQuery::Index(index)
        } else {
            WireQuery::Bits(BitVec::from_bits(bits.iter().copied()))
        };
        let frame = Frame::Request(RequestFrame {
            request_id,
            client_id,
            theta: f64::from_bits(theta_bits),
            deadline_us,
            model,
            query,
        });
        let bytes = frame.encode();
        prop_assert!(bytes.len() <= 4 + MAX_PAYLOAD);
        let back = decode_payload(&bytes[4..]).expect("own encoding decodes");
        prop_assert_eq!(&back, &frame);
        // Canonical: the accepted payload re-encodes to identical bytes.
        prop_assert_eq!(back.encode(), bytes);
    }

    /// Responses and errors round-trip, including every source/code tag and
    /// the degraded flag in both states.
    #[test]
    fn response_and_error_frames_round_trip(
        request_id in any::<u64>(),
        epoch in any::<u64>(),
        estimate_bits in any::<u64>(),
        lo_bits in any::<u64>(),
        hi_bits in any::<u64>(),
        source_tag in any::<u8>(),
        batch in any::<u32>(),
        degraded in any::<bool>(),
        code_tag in any::<u8>(),
        message in "[ -~]{0,40}",
        token in any::<u64>(),
    ) {
        let frames = [
            Frame::Response(ResponseFrame {
                request_id,
                epoch,
                estimate: f64::from_bits(estimate_bits),
                lo: f64::from_bits(lo_bits),
                hi: f64::from_bits(hi_bits),
                source: source_of(source_tag),
                batch,
                degraded,
            }),
            Frame::Error(ErrorFrame {
                request_id,
                code: code_of(code_tag),
                message,
            }),
            Frame::Ping(token),
            Frame::Pong(token),
        ];
        for frame in frames {
            let bytes = frame.encode();
            let back = decode_payload(&bytes[4..]).expect("own encoding decodes");
            prop_assert_eq!(&back, &frame);
            prop_assert_eq!(back.encode(), bytes);
        }
    }

    /// The introspection kinds round-trip too: stats entries with arbitrary
    /// names/values, traces with any stage count up to the wire cap.
    #[test]
    fn stats_and_trace_frames_round_trip(
        token in any::<u64>(),
        max in any::<u32>(),
        names in prop::collection::vec("[ -~]{0,20}", 0..8),
        values in prop::collection::vec(any::<u64>(), 0..8),
        trace_words in prop::collection::vec(any::<u64>(), 0..64),
        stage_counts in prop::collection::vec(any::<u8>(), 0..4),
    ) {
        let counters: Vec<(String, u64)> = names
            .iter()
            .cloned()
            .zip(values.iter().copied())
            .collect();
        // Traces assembled from a flat word pool: each generated count picks
        // `count % (cap+1)` stage values, then id/epoch/total off the pool.
        let mut pool = trace_words.iter().copied();
        let traces: Vec<WireTrace> = stage_counts
            .iter()
            .map(|&count| {
                let k = (count as usize) % (MAX_TRACE_STAGES + 1);
                let stages_ns: Vec<u64> = (0..k).map(|_| pool.next().unwrap_or(0)).collect();
                WireTrace {
                    id: pool.next().unwrap_or(1),
                    epoch: pool.next().unwrap_or(2),
                    total_ns: pool.next().unwrap_or(3),
                    source: count,
                    stages_ns,
                }
            })
            .collect();
        let frames = [
            Frame::StatsRequest(token),
            Frame::Stats(StatsFrame { token, counters }),
            Frame::TraceRequest { token, max },
            Frame::Traces(TracesFrame { token, traces }),
        ];
        for frame in frames {
            let bytes = frame.encode();
            prop_assert!(bytes.len() <= 4 + MAX_PAYLOAD);
            let back = decode_payload(&bytes[4..]).expect("own encoding decodes");
            prop_assert_eq!(&back, &frame);
            prop_assert_eq!(back.encode(), bytes);
        }
    }

    /// The incremental decoder is total: arbitrary bytes, fed in arbitrary
    /// chunk sizes, produce frames or typed errors — never a panic. On the
    /// first error the stream is unrecoverable and callers close the
    /// connection, so the drain stops there (mirroring the server).
    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..8),
    ) {
        let mut offsets: Vec<usize> = cuts.iter().map(|c| c.index(bytes.len().max(1))).collect();
        offsets.push(0);
        offsets.push(bytes.len());
        offsets.sort_unstable();
        let mut dec = Decoder::new();
        'feed: for pair in offsets.windows(2) {
            dec.extend(&bytes[pair[0]..pair[1]]);
            // Drain everything decodable right now; errors are data, not
            // panics.
            loop {
                match dec.next_frame() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => break 'feed,
                }
            }
            // `mid_frame`/`buffered` must also stay total.
            let _ = dec.mid_frame();
            let _ = dec.buffered();
        }
    }

    /// A single corrupted byte in a valid frame either still decodes (the
    /// byte was value-bearing) — in which case the result re-encodes
    /// canonically — or raises a typed error. Never a panic, never an
    /// accepted-but-noncanonical payload.
    #[test]
    fn bitflips_decode_canonically_or_error(
        theta_bits in any::<u64>(),
        bits in prop::collection::vec(any::<bool>(), 1..100),
        flip_at in any::<prop::sample::Index>(),
        flip_mask in 1u8..=255,
    ) {
        let frame = Frame::Request(RequestFrame {
            request_id: 7,
            client_id: 1,
            theta: f64::from_bits(theta_bits),
            deadline_us: 250,
            model: "default".into(),
            query: WireQuery::Bits(BitVec::from_bits(bits.iter().copied())),
        });
        let mut bytes = frame.encode();
        // Corrupt one payload byte (leave the length prefix alone so the
        // frame still frames).
        let at = 4 + flip_at.index(bytes.len() - 4);
        bytes[at] ^= flip_mask;
        // A typed rejection is equally fine; only acceptance has to be
        // canonical.
        if let Ok(decoded) = decode_payload(&bytes[4..]) {
            prop_assert_eq!(decoded.encode(), bytes);
        }
    }

    /// Same single-byte-corruption property for the introspection kinds
    /// (their count fields are the interesting corruption targets: a flipped
    /// entry count must reject, not mis-frame).
    #[test]
    fn bitflips_on_stats_frames_decode_canonically_or_error(
        token in any::<u64>(),
        names in prop::collection::vec("[a-z_]{1,16}", 1..6),
        values in prop::collection::vec(any::<u64>(), 1..6),
        flip_at in any::<prop::sample::Index>(),
        flip_mask in 1u8..=255,
    ) {
        let counters: Vec<(String, u64)> = names
            .iter()
            .cloned()
            .zip(values.iter().copied())
            .collect();
        let frame = Frame::Stats(StatsFrame { token, counters });
        let mut bytes = frame.encode();
        let at = 4 + flip_at.index(bytes.len() - 4);
        bytes[at] ^= flip_mask;
        if let Ok(decoded) = decode_payload(&bytes[4..]) {
            prop_assert_eq!(decoded.encode(), bytes);
        }
    }
}

// ── Walks over every variant ─────────────────────────────────────────────

/// The walk over every [`Frame`] variant, in declaration order: given a
/// sample of one variant, the sample of the next (`None` after the last).
/// The walk starts at [`Frame::Request`].
fn frame_after(frame: &Frame) -> Option<Frame> {
    match frame {
        Frame::Request(_) => Some(Frame::Response(ResponseFrame {
            request_id: 2,
            epoch: 3,
            estimate: 41.5,
            lo: 40.0,
            hi: 43.0,
            source: WireSource::ShedBracket,
            batch: 1,
            degraded: true,
        })),
        Frame::Response(_) => Some(Frame::Error(ErrorFrame {
            request_id: 2,
            code: ErrorCode::Overloaded,
            message: "queue full".into(),
        })),
        Frame::Error(_) => Some(Frame::Ping(5)),
        Frame::Ping(_) => Some(Frame::Pong(5)),
        Frame::Pong(_) => Some(Frame::StatsRequest(6)),
        Frame::StatsRequest(_) => Some(Frame::Stats(StatsFrame {
            token: 6,
            counters: vec![("cardest_requests_total".into(), 9)],
        })),
        Frame::Stats(_) => Some(Frame::TraceRequest { token: 7, max: 4 }),
        Frame::TraceRequest { .. } => Some(Frame::Traces(TracesFrame {
            token: 7,
            traces: vec![WireTrace {
                id: 1,
                epoch: 3,
                total_ns: 900,
                source: 0,
                stages_ns: vec![100, 800],
            }],
        })),
        Frame::Traces(_) => None,
    }
}

#[test]
fn every_frame_variant_round_trips_in_one_walk() {
    let mut at = Some(Frame::Request(RequestFrame {
        request_id: 1,
        client_id: 8,
        theta: 6.0,
        deadline_us: 250,
        model: "default".into(),
        query: WireQuery::Bits(BitVec::from_bits((0..70).map(|i| i % 3 == 0))),
    }));
    let mut kinds = Vec::new();
    while let Some(frame) = at {
        let bytes = frame.encode();
        let back = decode_payload(&bytes[4..]).expect("own encoding decodes");
        assert_eq!(back, frame);
        assert_eq!(back.encode(), bytes, "canonical re-encode of {frame:?}");
        kinds.push(bytes[6]);
        at = frame_after(&frame);
    }
    // Every arm was visited once: one distinct kind byte per variant, and
    // exactly the kinds the decoder accepts (every other kind byte is
    // `BadKind`).
    let mut distinct = kinds.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(
        distinct.len(),
        kinds.len(),
        "two variants share a kind: {kinds:?}"
    );
    let accepted: Vec<u8> = (0..=u8::MAX)
        .filter(|&k| decode_payload(&[MAGIC, WIRE_VERSION, k, 0]) != Err(WireError::BadKind(k)))
        .collect();
    assert_eq!(
        distinct, accepted,
        "the walk must visit every decodable kind"
    );
}

/// `payload` behind its little-endian length prefix.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

/// A valid frame's payload (its length prefix stripped).
fn payload_of(frame: Frame) -> Vec<u8> {
    frame.encode()[4..].to_vec()
}

/// A request payload up to and including the query tag, with raw model
/// bytes (which need not be UTF-8).
fn request_prefix(model: &[u8], query_tag: u8) -> Vec<u8> {
    let header = payload_of(Frame::Request(RequestFrame {
        request_id: 1,
        client_id: 0,
        theta: 1.0,
        deadline_us: 0,
        model: String::new(),
        query: WireQuery::Index(0),
    }));
    // Header (4) + request_id, client_id, theta (8 each) + deadline (4).
    let mut p = header[..32].to_vec();
    p.push(model.len() as u8);
    p.extend_from_slice(model);
    p.push(query_tag);
    p
}

/// The walk over every [`WireError`] variant, in declaration order: a
/// hostile byte stream that must decode to exactly `want`, and the next
/// variant to visit (`None` after the last). The walk starts at
/// [`WireError::BadMagic`].
fn hostile_bytes(want: &WireError) -> (Vec<u8>, Option<WireError>) {
    let ping = payload_of(Frame::Ping(7));
    match want {
        WireError::BadMagic(b) => {
            let mut p = ping;
            p[0] = *b;
            (framed(&p), Some(WireError::BadVersion(99)))
        }
        WireError::BadVersion(v) => {
            let mut p = ping;
            p[1] = *v;
            (framed(&p), Some(WireError::BadKind(0xFF)))
        }
        WireError::BadKind(k) => {
            let mut p = ping;
            p[2] = *k;
            (
                framed(&p),
                Some(WireError::Oversized(MAX_PAYLOAD as u32 + 1)),
            )
        }
        WireError::Oversized(n) => (n.to_le_bytes().to_vec(), Some(WireError::Truncated)),
        WireError::Truncated => (
            framed(&ping[..ping.len() - 3]),
            Some(WireError::TrailingBytes),
        ),
        WireError::TrailingBytes => {
            let mut p = ping;
            p.push(0);
            (framed(&p), Some(WireError::BadUtf8))
        }
        WireError::BadUtf8 => (
            framed(&request_prefix(&[0xFF, 0xFE], 0)),
            Some(WireError::BadQueryTag(9)),
        ),
        WireError::BadQueryTag(t) => (
            framed(&request_prefix(b"m", *t)),
            Some(WireError::BadSource(0xEE)),
        ),
        WireError::BadSource(s) => {
            let mut p = payload_of(Frame::Response(ResponseFrame {
                request_id: 1,
                epoch: 3,
                estimate: 1.0,
                lo: 1.0,
                hi: 1.0,
                source: WireSource::Computed,
                batch: 1,
                degraded: false,
            }));
            // Header (4) + request_id, epoch, estimate, lo, hi (8 each).
            p[44] = *s;
            (framed(&p), Some(WireError::BadErrorCode(0x7F)))
        }
        WireError::BadErrorCode(c) => {
            let mut p = payload_of(Frame::Error(ErrorFrame {
                request_id: 1,
                code: ErrorCode::Malformed,
                message: String::new(),
            }));
            // Header (4) + request_id (8).
            p[12] = *c;
            (framed(&p), Some(WireError::BadFlags(0x02)))
        }
        WireError::BadFlags(f) => {
            let mut p = ping;
            p[3] = *f;
            (framed(&p), Some(WireError::NonCanonicalBits))
        }
        WireError::NonCanonicalBits => {
            // One declared bit, but the word sets bit 1 as well.
            let mut p = request_prefix(b"m", 1);
            p.extend_from_slice(&1u32.to_le_bytes());
            p.extend_from_slice(&0b11u64.to_le_bytes());
            (
                framed(&p),
                Some(WireError::TooManyEntries(MAX_STATS_ENTRIES as u16 + 1)),
            )
        }
        WireError::TooManyEntries(n) => {
            let mut p = payload_of(Frame::Stats(StatsFrame {
                token: 6,
                counters: Vec::new(),
            }));
            // Header (4) + token (8), then the u16 entry count.
            p[12..14].copy_from_slice(&n.to_le_bytes());
            (framed(&p), None)
        }
    }
}

#[test]
fn every_wire_error_variant_decodes_from_hostile_bytes() {
    let mut at = Some(WireError::BadMagic(0));
    let mut visited = 0;
    while let Some(want) = at {
        let (bytes, next) = hostile_bytes(&want);
        let mut dec = Decoder::new();
        dec.extend(&bytes);
        assert_eq!(dec.next_frame(), Err(want.clone()), "bytes {bytes:02X?}");
        assert!(!want.to_string().is_empty());
        visited += 1;
        at = next;
    }
    // A new variant's arm must also be spliced into the walk; this count
    // is the number of `WireError` variants.
    assert_eq!(visited, 13, "the walk must visit every WireError variant");
}
