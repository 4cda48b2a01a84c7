//! The frame codec: 4-byte big-endian length prefix + JSON body.
//!
//! JSON keeps the research prototype wire-debuggable (`tcpdump -A` shows
//! readable frames); the codec is the single swap-point for a binary format.
//! Frames are size-capped to bound memory under malicious peers.

use crate::messages::Message;
use bytes::{Buf, BufMut, BytesMut};
use std::io;
use tokio::io::{AsyncRead, AsyncReadExt};

/// Maximum frame body size (1 MiB). A gossip payload of ~1000 receipts fits
/// comfortably; anything larger is a protocol violation.
pub const MAX_FRAME_BYTES: usize = 1024 * 1024;

/// Encode a message into a length-prefixed frame.
pub fn encode(msg: &Message) -> io::Result<Vec<u8>> {
    let body = serde_json::to_vec(msg).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if body.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame body {} exceeds cap {MAX_FRAME_BYTES}", body.len()),
        ));
    }
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(&body);
    Ok(out)
}

/// Try to decode one frame from the front of `buf`. Returns `Ok(None)` when
/// more bytes are needed; on success the consumed bytes are removed.
pub fn decode(buf: &mut BytesMut) -> io::Result<Option<Message>> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer announced frame of {len} bytes"),
        ));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    buf.advance(4);
    let body = buf.split_to(len);
    let msg = serde_json::from_slice(&body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(Some(msg))
}

/// Read one frame from an async source. Returns `Ok(None)` on clean EOF at
/// a frame boundary.
pub async fn read_frame<R: AsyncRead + Unpin>(r: &mut R, buf: &mut BytesMut) -> io::Result<Option<Message>> {
    loop {
        if let Some(msg) = decode(buf)? {
            return Ok(Some(msg));
        }
        let mut chunk = [0u8; 4096];
        let n = r.read(&mut chunk).await?;
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF mid-frame"));
        }
        buf.put_slice(&chunk[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::NodeId;

    fn hello() -> Message {
        Message::Hello { node_id: NodeId::new("n1"), listen_addr: None }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let frame = encode(&hello()).unwrap();
        let mut buf = BytesMut::from(&frame[..]);
        let back = decode(&mut buf).unwrap().unwrap();
        assert_eq!(back, hello());
        assert!(buf.is_empty());
    }

    #[test]
    fn decode_partial_returns_none() {
        let frame = encode(&hello()).unwrap();
        for cut in [0usize, 1, 3, 4, frame.len() - 1] {
            let mut buf = BytesMut::from(&frame[..cut]);
            assert!(decode(&mut buf).unwrap().is_none(), "cut {cut}");
        }
    }

    #[test]
    fn decode_two_frames_in_sequence() {
        let mut bytes = encode(&hello()).unwrap();
        bytes.extend(encode(&Message::Ping { nonce: 5 }).unwrap());
        let mut buf = BytesMut::from(&bytes[..]);
        assert_eq!(decode(&mut buf).unwrap().unwrap(), hello());
        assert_eq!(decode(&mut buf).unwrap().unwrap(), Message::Ping { nonce: 5 });
        assert!(decode(&mut buf).unwrap().is_none());
    }

    #[test]
    fn oversized_announcement_rejected() {
        let mut buf = BytesMut::new();
        buf.put_slice(&((MAX_FRAME_BYTES as u32) + 1).to_be_bytes());
        buf.put_slice(&[0u8; 8]);
        assert!(decode(&mut buf).is_err());
    }

    #[test]
    fn garbage_body_rejected() {
        let body = b"not json at all";
        let mut buf = BytesMut::new();
        buf.put_slice(&(body.len() as u32).to_be_bytes());
        buf.put_slice(body);
        assert!(decode(&mut buf).is_err());
    }
}

/// Fuzz-style adversarial input tests for [`read_frame`]: the reader faces
/// an untrusted peer, so every malformed byte stream must surface as a clean
/// `Err` (or `Ok(None)` at a frame boundary) — never a panic, hang, or
/// unbounded allocation.
#[cfg(test)]
mod read_frame_fuzz {
    use super::*;
    use crate::messages::{GossipItem, NodeId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tokio::io::AsyncWriteExt;

    fn hello() -> Message {
        Message::Hello { node_id: NodeId::new("fuzz"), listen_addr: None }
    }

    /// Feed `bytes` then close the write side; return the read result.
    async fn read_from(bytes: &[u8]) -> io::Result<Option<Message>> {
        let (mut a, mut b) = tokio::io::duplex(64 * 1024);
        a.write_all(bytes).await.unwrap();
        drop(a);
        let mut buf = BytesMut::new();
        read_frame(&mut b, &mut buf).await
    }

    #[tokio::test]
    async fn async_roundtrip_over_duplex() {
        let (mut a, mut b) = tokio::io::duplex(1024);
        let msg = Message::GossipAnnounce { ids: vec!["deadbeef".into(); 10] };
        a.write_all(&encode(&msg).unwrap()).await.unwrap();
        a.write_all(&encode(&Message::Ping { nonce: 1 }).unwrap()).await.unwrap();
        drop(a);
        let mut buf = BytesMut::new();
        assert_eq!(read_frame(&mut b, &mut buf).await.unwrap().unwrap(), msg);
        assert_eq!(
            read_frame(&mut b, &mut buf).await.unwrap().unwrap(),
            Message::Ping { nonce: 1 }
        );
        assert!(read_frame(&mut b, &mut buf).await.unwrap().is_none());
    }

    #[tokio::test]
    async fn eof_mid_frame_is_error() {
        let (mut a, mut b) = tokio::io::duplex(1024);
        let frame = encode(&hello()).unwrap();
        a.write_all(&frame[..frame.len() - 2]).await.unwrap();
        drop(a);
        let mut buf = BytesMut::new();
        assert!(read_frame(&mut b, &mut buf).await.is_err());
    }

    #[tokio::test]
    async fn duplicated_withdrawal_frames_arrive_twice_over_async_reads() {
        let notice = super::settlement_frame_fuzz::withdrawal();
        let msg = Message::GossipPayload { items: vec![GossipItem::Withdrawal(notice)] };
        let frame = encode(&msg).unwrap();
        let (mut a, mut b) = tokio::io::duplex(64 * 1024);
        a.write_all(&frame).await.unwrap();
        a.write_all(&frame).await.unwrap();
        drop(a);
        let mut buf = BytesMut::new();
        assert_eq!(read_frame(&mut b, &mut buf).await.unwrap().unwrap(), msg);
        assert_eq!(read_frame(&mut b, &mut buf).await.unwrap().unwrap(), msg);
        assert!(read_frame(&mut b, &mut buf).await.unwrap().is_none());
    }

    #[tokio::test]
    async fn truncated_length_prefix_is_error() {
        // EOF after 1..=3 header bytes: mid-frame, so an error, not None.
        for cut in 1..4 {
            let frame = encode(&hello()).unwrap();
            let res = read_from(&frame[..cut]).await;
            assert!(res.is_err(), "cut at {cut} header bytes must error");
            assert_eq!(res.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        }
    }

    #[tokio::test]
    async fn truncated_body_every_cut_is_error() {
        let frame = encode(&hello()).unwrap();
        for cut in 4..frame.len() {
            let res = read_from(&frame[..cut]).await;
            assert!(res.is_err(), "cut at byte {cut} must error");
        }
    }

    #[tokio::test]
    async fn oversized_announced_length_rejected_before_read() {
        // Header promises > MAX_FRAME_BYTES; the reader must refuse without
        // waiting for (or allocating) the announced body.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&((MAX_FRAME_BYTES as u32) + 1).to_be_bytes());
        bytes.extend_from_slice(&[0xAB; 16]);
        let res = read_from(&bytes).await;
        assert_eq!(res.unwrap_err().kind(), io::ErrorKind::InvalidData);

        // u32::MAX, the worst announcement a 4-byte header can make.
        let mut bytes = u32::MAX.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(read_from(&bytes).await.is_err());
    }

    #[tokio::test]
    async fn garbage_body_with_valid_length_rejected() {
        let body = [0xFFu8; 32];
        let mut bytes = (body.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&body);
        let res = read_from(&bytes).await;
        assert_eq!(res.unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[tokio::test]
    async fn split_reads_reassemble_across_chunks() {
        // Deliver one frame byte-by-byte, then in odd-sized chunks: the
        // reader must buffer partial frames and decode exactly one message.
        let frame = encode(&hello()).unwrap();
        for chunk_size in [1usize, 3, 7, frame.len() / 2] {
            let (mut a, mut b) = tokio::io::duplex(64 * 1024);
            let chunks: Vec<Vec<u8>> = frame.chunks(chunk_size).map(|c| c.to_vec()).collect();
            let writer = tokio::spawn(async move {
                for c in chunks {
                    a.write_all(&c).await.unwrap();
                    a.flush().await.unwrap();
                    tokio::task::yield_now().await;
                }
                drop(a);
            });
            let mut buf = BytesMut::new();
            let msg = read_frame(&mut b, &mut buf).await.unwrap().unwrap();
            assert_eq!(msg, hello(), "chunk size {chunk_size}");
            assert!(read_frame(&mut b, &mut buf).await.unwrap().is_none());
            writer.await.unwrap();
        }
    }

    #[tokio::test]
    async fn seeded_random_streams_never_panic() {
        // 64 seeded random byte streams: read_frame must always terminate
        // with Ok or Err, never panic. Seeded so a failure reproduces.
        let mut rng = StdRng::seed_from_u64(0x77_1235);
        for _ in 0..64 {
            let len = rng.gen_range(0..512);
            let mut bytes = vec![0u8; len];
            rng.fill(&mut bytes[..]);
            let _ = read_from(&bytes).await;
        }
    }

    #[tokio::test]
    async fn second_frame_split_mid_header_reassembles() {
        // Two well-formed frames back-to-back split mid-header of the
        // second: the residue must carry over between read_frame calls.
        let f1 = encode(&hello()).unwrap();
        let f2 = encode(&Message::Ping { nonce: 99 }).unwrap();
        let (mut a, mut b) = tokio::io::duplex(64 * 1024);
        let (head, tail) = {
            let mut all = f1.clone();
            all.extend_from_slice(&f2);
            let cut = f1.len() + 2; // 2 bytes into the second header
            (all[..cut].to_vec(), all[cut..].to_vec())
        };
        let writer = tokio::spawn(async move {
            a.write_all(&head).await.unwrap();
            a.flush().await.unwrap();
            tokio::task::yield_now().await;
            a.write_all(&tail).await.unwrap();
            drop(a);
        });
        let mut buf = BytesMut::new();
        assert_eq!(read_frame(&mut b, &mut buf).await.unwrap().unwrap(), hello());
        assert_eq!(
            read_frame(&mut b, &mut buf).await.unwrap().unwrap(),
            Message::Ping { nonce: 99 }
        );
        assert!(read_frame(&mut b, &mut buf).await.unwrap().is_none());
        writer.await.unwrap();
    }
}

/// Frame-level adversarial tests for the settlement-side payloads — the
/// messages the scenario fuzzer's churn campaigns emit ([`WithdrawalNotice`]
/// per party withdrawal, [`SettlementNote`] batches per market epoch). The
/// gossip layer delivers at-least-once, so the codec must round-trip these
/// exactly, reject every truncation, and decode duplicated frames into
/// bit-identical copies (replay protection then happens above the codec,
/// keyed on [`SettlementNote::settlement_id`]).
#[cfg(test)]
mod settlement_frame_fuzz {
    use super::*;
    use crate::crypto::KeyDirectory;
    use crate::messages::{GossipItem, SettlementNote, WithdrawalNotice};
    use std::collections::BTreeMap;

    fn keys() -> KeyDirectory {
        let mut keys = KeyDirectory::new();
        for party in ["party-0", "party-1", "party-2"] {
            keys.register_derived(party, b"wire-frame-fuzz");
        }
        keys
    }

    pub(super) fn withdrawal() -> WithdrawalNotice {
        let keys = keys();
        let (party, sat_ids, effective_s) = ("party-1", vec![3u32, 17, 41], 5400.0);
        let bytes = WithdrawalNotice::signing_bytes(party, &sat_ids, effective_s);
        WithdrawalNotice {
            party: party.to_string(),
            sat_ids,
            effective_s,
            signature: keys.sign(party, &bytes).unwrap(),
        }
    }

    fn settlement_batch() -> Vec<SettlementNote> {
        let keys = keys();
        (0..3u64)
            .map(|epoch| {
                let mut transfers = BTreeMap::new();
                transfers.insert("party-0".to_string(), 12.5 + epoch as f64);
                transfers.insert("party-1".to_string(), -4.25);
                transfers.insert("party-2".to_string(), -(12.5 + epoch as f64) + 4.25);
                SettlementNote::create(&keys, epoch, "party-0", transfers).unwrap()
            })
            .collect()
    }

    #[test]
    fn withdrawal_notice_frame_round_trips() {
        let notice = withdrawal();
        let msg = Message::GossipPayload { items: vec![GossipItem::Withdrawal(notice.clone())] };
        let frame = encode(&msg).unwrap();
        let mut buf = BytesMut::from(&frame[..]);
        let back = decode(&mut buf).unwrap().unwrap();
        assert_eq!(back, msg);
        // The signature must survive the trip verbatim — re-verify it.
        let Message::GossipPayload { items } = back else { panic!("wrong variant") };
        let GossipItem::Withdrawal(w) = &items[0] else { panic!("wrong item") };
        let bytes = WithdrawalNotice::signing_bytes(&w.party, &w.sat_ids, w.effective_s);
        assert!(keys().verify(&w.party, &bytes, &w.signature));
    }

    #[test]
    fn withdrawal_frame_rejects_every_truncation() {
        let msg = Message::GossipPayload { items: vec![GossipItem::Withdrawal(withdrawal())] };
        let frame = encode(&msg).unwrap();
        for cut in 0..frame.len() {
            let mut buf = BytesMut::from(&frame[..cut]);
            // A truncated frame is never a message: either more-bytes-needed
            // (None, residue intact for a later retry) — truncating the JSON
            // body can't produce a shorter valid frame because the length
            // prefix still promises the full body.
            assert!(decode(&mut buf).unwrap().is_none(), "cut {cut} produced a message");
            assert_eq!(buf.len(), cut, "cut {cut} consumed residue bytes");
        }
    }

    #[test]
    fn settlement_batch_frame_round_trips() {
        let batch = settlement_batch();
        let msg = Message::GossipPayload {
            items: batch.iter().cloned().map(GossipItem::Settlement).collect(),
        };
        let frame = encode(&msg).unwrap();
        let mut buf = BytesMut::from(&frame[..]);
        let back = decode(&mut buf).unwrap().unwrap();
        assert_eq!(back, msg);
        let Message::GossipPayload { items } = back else { panic!("wrong variant") };
        for (item, original) in items.iter().zip(&batch) {
            let GossipItem::Settlement(note) = item else { panic!("wrong item") };
            assert_eq!(note, original);
            assert_eq!(note.settlement_id(), original.settlement_id());
            // Zero-sum transfers survive the JSON trip with f64 exactness.
            assert!(note.transfers.values().sum::<f64>().abs() < 1e-9);
        }
    }

    #[test]
    fn duplicated_settlement_frames_decode_bit_identically() {
        // At-least-once gossip can deliver the same settlement frame twice
        // back-to-back; both copies must decode, equal to each other, so the
        // replay guard above the codec sees identical settlement_ids.
        let msg = Message::GossipPayload {
            items: settlement_batch().into_iter().map(GossipItem::Settlement).collect(),
        };
        let frame = encode(&msg).unwrap();
        let mut doubled = frame.clone();
        doubled.extend_from_slice(&frame);
        let mut buf = BytesMut::from(&doubled[..]);
        let first = decode(&mut buf).unwrap().unwrap();
        let second = decode(&mut buf).unwrap().unwrap();
        assert_eq!(first, second);
        assert_eq!(first, msg);
        assert!(buf.is_empty());
        assert!(decode(&mut buf).unwrap().is_none());
    }

    #[test]
    fn duplicated_frame_with_truncated_tail_keeps_the_first_copy() {
        // A full frame followed by a truncated duplicate: the first copy
        // decodes, the tail waits as residue (None), and nothing errors —
        // the stream is merely incomplete, not corrupt.
        let msg = Message::GossipPayload { items: vec![GossipItem::Withdrawal(withdrawal())] };
        let frame = encode(&msg).unwrap();
        for cut in [1usize, 3, 4, frame.len() / 2, frame.len() - 1] {
            let mut bytes = frame.clone();
            bytes.extend_from_slice(&frame[..cut]);
            let mut buf = BytesMut::from(&bytes[..]);
            assert_eq!(decode(&mut buf).unwrap().unwrap(), msg, "cut {cut}");
            assert!(decode(&mut buf).unwrap().is_none(), "cut {cut}");
            assert_eq!(buf.len(), cut, "cut {cut} lost residue");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Arbitrary bytes must never panic the decoder — peers are
        /// untrusted.
        #[test]
        fn decode_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let mut buf = BytesMut::from(&data[..]);
            // Drain until error or need-more-bytes; the loop must terminate.
            for _ in 0..64 {
                match decode(&mut buf) {
                    Ok(Some(_)) => continue,
                    Ok(None) | Err(_) => break,
                }
            }
        }

        /// Any message that encodes must decode to itself, even when the
        /// frame is delivered in arbitrary chunk sizes.
        #[test]
        fn chunked_delivery_reassembles(nonce in any::<u64>(), cut in 1usize..64) {
            let msg = Message::Ping { nonce };
            let frame = encode(&msg).unwrap();
            let mut buf = BytesMut::new();
            let mut decoded = None;
            for chunk in frame.chunks(cut) {
                buf.extend_from_slice(chunk);
                if let Some(m) = decode(&mut buf).unwrap() {
                    decoded = Some(m);
                }
            }
            prop_assert_eq!(decoded, Some(msg));
        }
    }
}
