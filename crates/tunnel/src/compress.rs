//! Template packet compression (§4 of the paper).
//!
//! "Performance testing packets often look similar to one another. They
//! are often generated from the same template, where each packet may
//! have a slight different marking, for example, having a different
//! sequence number. By exploiting the similarities across packets, we
//! could achieve a high compression ratio."
//!
//! The encoder keeps a small ring of recently seen frames per stream.
//! Each new frame is diffed against every same-length frame in the ring;
//! if the densest match patches in fewer bytes than a literal, the frame
//! is sent as `(base index, byte patches)`. The decoder keeps an
//! identical ring (appending every decoded frame), so the two stay
//! synchronized as long as the stream is lossless and ordered — which
//! the TCP tunnel guarantees.

use std::collections::VecDeque;

/// Frames remembered as potential templates.
pub const RING_CAPACITY: usize = 8;

/// Encoding failure (decoder side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressError {
    /// The encoded bytes do not parse.
    Malformed,
    /// A delta references a template the ring no longer holds —
    /// encoder/decoder desynchronization.
    UnknownTemplate,
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::Malformed => write!(f, "compressed frame malformed"),
            CompressError::UnknownTemplate => write!(f, "unknown template reference"),
        }
    }
}

impl std::error::Error for CompressError {}

const TAG_LITERAL: u8 = 0;
const TAG_DELTA: u8 = 1;

/// One contiguous run of differing bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Patch {
    offset: u16,
    bytes: Vec<u8>,
}

fn diff_patches(base: &[u8], frame: &[u8]) -> Vec<Patch> {
    debug_assert_eq!(base.len(), frame.len());
    let mut patches = Vec::new();
    let mut i = 0;
    while i < frame.len() {
        if base[i] != frame[i] {
            let start = i;
            // Extend the run; absorb gaps of up to 2 equal bytes to keep
            // patch-count overhead low.
            let mut end = i + 1;
            let mut gap = 0;
            let mut last_diff = i;
            while end < frame.len() && gap <= 2 {
                if base[end] != frame[end] {
                    last_diff = end;
                    gap = 0;
                } else {
                    gap += 1;
                }
                end += 1;
            }
            let run_end = last_diff + 1;
            patches.push(Patch {
                offset: start as u16,
                bytes: frame[start..run_end].to_vec(),
            });
            i = run_end;
        } else {
            i += 1;
        }
    }
    patches
}

fn patches_encoded_len(patches: &[Patch]) -> usize {
    // tag + base idx + u16 count + per patch (u16 offset + u16 len + bytes)
    4 + patches.iter().map(|p| 4 + p.bytes.len()).sum::<usize>()
}

/// The synchronized template ring used by both encoder and decoder.
#[derive(Debug, Default)]
pub struct TemplateRing {
    frames: VecDeque<Vec<u8>>,
}

impl TemplateRing {
    fn push(&mut self, frame: Vec<u8>) {
        if self.frames.len() == RING_CAPACITY {
            self.frames.pop_back();
        }
        self.frames.push_front(frame);
    }

    /// The buffer the next push will occupy: on a full ring, the slot
    /// that push would evict (its allocation is recycled); otherwise a
    /// fresh one.
    fn take_slot(&mut self) -> Vec<u8> {
        if self.frames.len() == RING_CAPACITY {
            self.frames.pop_back().unwrap_or_default()
        } else {
            Vec::new()
        }
    }
}

/// Walk a delta's patch table (`u16` count, then per patch `u16`
/// offset, `u16` length and the bytes) against a frame of `frame_len`
/// bytes, calling `apply` once per patch. Any truncation, overrun or
/// trailing byte is `Malformed`. A clean walk with a no-op `apply` is
/// the validation pass [`Decompressor::decode_into`] runs before it
/// touches the ring.
fn walk_patches(
    table: &[u8],
    frame_len: usize,
    mut apply: impl FnMut(usize, &[u8]),
) -> Result<(), CompressError> {
    let Some((count, mut rest)) = table.split_first_chunk::<2>() else {
        return Err(CompressError::Malformed);
    };
    for _ in 0..u16::from_be_bytes(*count) {
        let Some((head, tail)) = rest.split_first_chunk::<4>() else {
            return Err(CompressError::Malformed);
        };
        let offset = usize::from(u16::from_be_bytes([head[0], head[1]]));
        let len = usize::from(u16::from_be_bytes([head[2], head[3]]));
        if tail.len() < len || offset + len > frame_len {
            return Err(CompressError::Malformed);
        }
        let (bytes, tail) = tail.split_at(len);
        apply(offset, bytes);
        rest = tail;
    }
    if rest.is_empty() {
        Ok(())
    } else {
        Err(CompressError::Malformed)
    }
}

/// Per-stream encoder.
#[derive(Debug, Default)]
pub struct Compressor {
    ring: TemplateRing,
    bytes_in: u64,
    bytes_out: u64,
}

impl Compressor {
    /// Fresh encoder.
    pub fn new() -> Compressor {
        Compressor::default()
    }

    /// Encode a frame. The result starts with a tag byte: literal frames
    /// pass through with one byte of overhead; template hits shrink to
    /// their byte diffs.
    pub fn encode(&mut self, frame: &[u8]) -> Vec<u8> {
        let mut best: Option<(usize, Vec<Patch>)> = None;
        for (idx, base) in self.ring.frames.iter().enumerate() {
            if base.len() != frame.len() {
                continue;
            }
            let patches = diff_patches(base, frame);
            let cost = patches_encoded_len(&patches);
            match &best {
                Some((_, existing)) if patches_encoded_len(existing) <= cost => {}
                _ => best = Some((idx, patches)),
            }
        }
        let out = match best {
            Some((idx, patches)) if patches_encoded_len(&patches) < frame.len() + 1 => {
                let mut out = Vec::with_capacity(patches_encoded_len(&patches));
                out.push(TAG_DELTA);
                out.push(idx as u8);
                out.extend_from_slice(&(patches.len() as u16).to_be_bytes());
                for p in &patches {
                    out.extend_from_slice(&p.offset.to_be_bytes());
                    out.extend_from_slice(&(p.bytes.len() as u16).to_be_bytes());
                    out.extend_from_slice(&p.bytes);
                }
                out
            }
            _ => {
                let mut out = Vec::with_capacity(frame.len() + 1);
                out.push(TAG_LITERAL);
                out.extend_from_slice(frame);
                out
            }
        };
        self.bytes_in += frame.len() as u64;
        self.bytes_out += out.len() as u64;
        self.ring.push(frame.to_vec());
        out
    }

    /// Cumulative compression ratio: input bytes / output bytes (> 1
    /// means the stream shrank).
    pub fn ratio(&self) -> f64 {
        if self.bytes_out == 0 {
            return 1.0;
        }
        self.bytes_in as f64 / self.bytes_out as f64
    }

    /// (bytes in, bytes out).
    pub fn counters(&self) -> (u64, u64) {
        (self.bytes_in, self.bytes_out)
    }
}

/// Per-stream decoder, mirror of [`Compressor`].
#[derive(Debug, Default)]
pub struct Decompressor {
    ring: TemplateRing,
}

impl Decompressor {
    /// Fresh decoder.
    pub fn new() -> Decompressor {
        Decompressor::default()
    }

    /// Decode one encoded frame, updating the template ring.
    pub fn decode(&mut self, encoded: &[u8]) -> Result<Vec<u8>, CompressError> {
        let mut frame = Vec::new();
        self.decode_into(encoded, &mut frame)?;
        Ok(frame)
    }

    /// Decode one encoded frame, appending it to `out`, and update the
    /// template ring. The new template reuses the ring slot the push
    /// evicts (a delta against that very slot patches it in place), so
    /// once the ring is full and `out` has capacity nothing allocates.
    /// The whole encoding is validated before anything is written: on
    /// `Err`, neither `out` nor the ring has changed.
    pub fn decode_into(&mut self, encoded: &[u8], out: &mut Vec<u8>) -> Result<(), CompressError> {
        let (&tag, rest) = encoded.split_first().ok_or(CompressError::Malformed)?;
        let slot = match tag {
            TAG_LITERAL => {
                let mut slot = self.ring.take_slot();
                slot.clear();
                slot.extend_from_slice(rest);
                slot
            }
            TAG_DELTA => {
                let (&base_idx, table) = rest.split_first().ok_or(CompressError::Malformed)?;
                let base_idx = usize::from(base_idx);
                let base_len = self
                    .ring
                    .frames
                    .get(base_idx)
                    .ok_or(CompressError::UnknownTemplate)?
                    .len();
                walk_patches(table, base_len, |_, _| {})?;
                let evicts_base =
                    self.ring.frames.len() == RING_CAPACITY && base_idx == RING_CAPACITY - 1;
                let mut slot = self.ring.take_slot();
                if !evicts_base {
                    slot.clear();
                    if let Some(base) = self.ring.frames.get(base_idx) {
                        slot.extend_from_slice(base);
                    }
                }
                // Validated above, so this pass cannot fail.
                walk_patches(table, base_len, |offset, bytes| {
                    if let Some(run) = slot.get_mut(offset..offset + bytes.len()) {
                        run.copy_from_slice(bytes);
                    }
                })?;
                slot
            }
            _ => return Err(CompressError::Malformed),
        };
        out.extend_from_slice(&slot);
        self.ring.push(slot);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template_frame(seq: u32, len: usize) -> Vec<u8> {
        let mut f = vec![0xa5u8; len];
        f[20..24].copy_from_slice(&seq.to_be_bytes());
        f
    }

    #[test]
    fn roundtrip_template_stream() {
        let mut enc = Compressor::new();
        let mut dec = Decompressor::new();
        for seq in 0..100 {
            let frame = template_frame(seq, 200);
            let encoded = enc.encode(&frame);
            assert_eq!(dec.decode(&encoded).unwrap(), frame);
        }
        assert!(
            enc.ratio() > 5.0,
            "template traffic should compress well: {}",
            enc.ratio()
        );
    }

    #[test]
    fn first_frame_is_literal() {
        let mut enc = Compressor::new();
        let frame = template_frame(0, 100);
        let encoded = enc.encode(&frame);
        assert_eq!(encoded[0], TAG_LITERAL);
        assert_eq!(encoded.len(), 101);
    }

    #[test]
    fn random_traffic_does_not_shrink_much_but_roundtrips() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut enc = Compressor::new();
        let mut dec = Decompressor::new();
        for _ in 0..50 {
            let len = rng.gen_range(60..300);
            let frame: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            let encoded = enc.encode(&frame);
            assert_eq!(dec.decode(&encoded).unwrap(), frame);
        }
        assert!(
            enc.ratio() <= 1.01,
            "random traffic cannot compress: {}",
            enc.ratio()
        );
    }

    #[test]
    fn mixed_sizes_roundtrip() {
        let mut enc = Compressor::new();
        let mut dec = Decompressor::new();
        for (i, len) in [60usize, 1514, 60, 200, 1514, 60].iter().enumerate() {
            let frame = template_frame(i as u32, *len);
            let encoded = enc.encode(&frame);
            assert_eq!(dec.decode(&encoded).unwrap(), frame);
        }
    }

    #[test]
    fn desync_detected() {
        let mut enc = Compressor::new();
        let mut dec = Decompressor::new();
        // Encoder builds up a ring the decoder never saw.
        let f0 = template_frame(0, 100);
        enc.encode(&f0);
        let encoded = enc.encode(&template_frame(1, 100));
        // This is a delta against a template the decoder lacks.
        assert_eq!(dec.decode(&encoded), Err(CompressError::UnknownTemplate));
    }

    #[test]
    fn malformed_input_rejected() {
        let mut dec = Decompressor::new();
        assert_eq!(dec.decode(&[]), Err(CompressError::Malformed));
        assert_eq!(dec.decode(&[9, 1, 2]), Err(CompressError::Malformed));
        // Delta with truncated patch table.
        assert_eq!(
            dec.decode(&[TAG_DELTA, 0]),
            Err(CompressError::UnknownTemplate)
        );
    }

    /// The clone-based decoder `decode_into` replaced, kept verbatim as
    /// the oracle the equivalence tests compare against.
    fn reference_decode(ring: &mut TemplateRing, encoded: &[u8]) -> Result<Vec<u8>, CompressError> {
        let (&tag, rest) = encoded.split_first().ok_or(CompressError::Malformed)?;
        let frame = match tag {
            TAG_LITERAL => rest.to_vec(),
            TAG_DELTA => {
                let (&base_idx, rest) = rest.split_first().ok_or(CompressError::Malformed)?;
                let base = ring
                    .frames
                    .get(base_idx as usize)
                    .ok_or(CompressError::UnknownTemplate)?;
                let mut frame = base.clone();
                if rest.len() < 2 {
                    return Err(CompressError::Malformed);
                }
                let count = u16::from_be_bytes([rest[0], rest[1]]) as usize;
                let mut pos = 2;
                for _ in 0..count {
                    if rest.len() < pos + 4 {
                        return Err(CompressError::Malformed);
                    }
                    let offset = u16::from_be_bytes([rest[pos], rest[pos + 1]]) as usize;
                    let len = u16::from_be_bytes([rest[pos + 2], rest[pos + 3]]) as usize;
                    pos += 4;
                    if rest.len() < pos + len || offset + len > frame.len() {
                        return Err(CompressError::Malformed);
                    }
                    frame[offset..offset + len].copy_from_slice(&rest[pos..pos + len]);
                    pos += len;
                }
                if pos != rest.len() {
                    return Err(CompressError::Malformed);
                }
                frame
            }
            _ => return Err(CompressError::Malformed),
        };
        ring.push(frame.clone());
        Ok(frame)
    }

    /// Feed one encoding to the oracle, to `decode` and to
    /// `decode_into` (over a scratch that already holds bytes) and
    /// require the same outcome and the same ring from all three.
    fn step_all(
        oracle: &mut TemplateRing,
        owned: &mut Decompressor,
        into: &mut Decompressor,
        encoded: &[u8],
    ) -> Result<Vec<u8>, CompressError> {
        let want = reference_decode(oracle, encoded);
        assert_eq!(owned.decode(encoded), want, "decode diverges");
        let prefix = [0xeeu8, 0x11, 0x22];
        let mut out = prefix.to_vec();
        let got = into.decode_into(encoded, &mut out);
        match &want {
            Ok(frame) => {
                assert_eq!(got, Ok(()));
                assert_eq!(&out[..prefix.len()], &prefix, "prefix clobbered");
                assert_eq!(&out[prefix.len()..], &frame[..], "decode_into bytes");
            }
            Err(e) => {
                assert_eq!(got, Err(*e), "decode_into error variant");
                assert_eq!(out, prefix, "failed decode_into wrote to out");
            }
        }
        assert_eq!(owned.ring.frames, oracle.frames, "decode ring diverges");
        assert_eq!(into.ring.frames, oracle.frames, "decode_into ring diverges");
        want
    }

    /// A ring of `RING_CAPACITY` distinct same-length templates, built
    /// through all three decoders.
    fn full_rings(len: usize) -> (TemplateRing, Decompressor, Decompressor) {
        let (mut oracle, mut owned, mut into) = (
            TemplateRing::default(),
            Decompressor::new(),
            Decompressor::new(),
        );
        for seq in 0..RING_CAPACITY as u32 {
            let mut literal = vec![TAG_LITERAL];
            literal.extend_from_slice(&template_frame(seq * 1000, len));
            step_all(&mut oracle, &mut owned, &mut into, &literal).unwrap();
        }
        assert_eq!(oracle.frames.len(), RING_CAPACITY);
        (oracle, owned, into)
    }

    #[test]
    fn delta_against_the_evicted_slot_matches_the_oracle() {
        let (mut oracle, mut owned, mut into) = full_rings(64);
        let base = oracle.frames[RING_CAPACITY - 1].clone();
        // Two patches against the oldest template — the very slot the
        // push evicts, which decode_into patches in place.
        let encoded = [
            TAG_DELTA,
            (RING_CAPACITY - 1) as u8,
            0,
            2,
            0,
            0,
            0,
            2,
            0x10,
            0x20,
            0,
            63,
            0,
            1,
            0x30,
        ];
        let frame = step_all(&mut oracle, &mut owned, &mut into, &encoded).unwrap();
        let mut want = base;
        want[0] = 0x10;
        want[1] = 0x20;
        want[63] = 0x30;
        assert_eq!(frame, want);
        assert_eq!(into.ring.frames[0], want);
        assert_eq!(into.ring.frames.len(), RING_CAPACITY);
    }

    #[test]
    fn malformed_patch_list_leaves_the_ring_untouched() {
        let (mut oracle, mut owned, mut into) = full_rings(64);
        let before = into.ring.frames.clone();
        let idx = (RING_CAPACITY - 1) as u8;
        let cases: [&[u8]; 5] = [
            // Patch runs past the end of the frame.
            &[TAG_DELTA, idx, 0, 1, 0, 62, 0, 4, 1, 2, 3, 4],
            // Count promises two patches, the table holds one.
            &[TAG_DELTA, 0, 0, 2, 0, 0, 0, 1, 9],
            // Truncated patch header.
            &[TAG_DELTA, idx, 0, 1, 0],
            // Trailing garbage after a valid patch.
            &[TAG_DELTA, idx, 0, 1, 0, 0, 0, 1, 9, 9],
            // No patch table at all.
            &[TAG_DELTA, 3],
        ];
        for encoded in cases {
            assert_eq!(
                step_all(&mut oracle, &mut owned, &mut into, encoded),
                Err(CompressError::Malformed),
                "{encoded:?}"
            );
            assert_eq!(into.ring.frames, before, "ring mutated by {encoded:?}");
        }
    }

    proptest::proptest! {
        /// `decode_into` ≡ `decode` ≡ the clone-based oracle over seeded
        /// template streams with byte-mutated encodings mixed in: same
        /// bytes, same `Ok`/`Err` variant, same ring after every step.
        #[test]
        fn decode_into_matches_decode(
            seed in proptest::prelude::any::<u64>(),
            frames in 1usize..120,
            mutate_pct in 0u64..40,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut enc = Compressor::new();
            let (mut oracle, mut owned, mut into) =
                (TemplateRing::default(), Decompressor::new(), Decompressor::new());
            let lens = [60usize, 64, 200, 1514];
            for seq in 0..frames as u32 {
                let len = lens[rng.gen_range(0..lens.len())];
                let mut frame = template_frame(seq, len);
                for _ in 0..rng.gen_range(0..4) {
                    let at = rng.gen_range(0..len);
                    frame[at] = rng.gen();
                }
                let mut encoded = enc.encode(&frame);
                if rng.gen_range(0..100) < mutate_pct {
                    match rng.gen_range(0..4) {
                        0 => {
                            let at = rng.gen_range(0..encoded.len());
                            encoded[at] = rng.gen();
                        }
                        1 => encoded.truncate(rng.gen_range(0..encoded.len())),
                        2 => encoded.push(rng.gen()),
                        _ => {
                            if encoded.len() > 1 {
                                encoded[1] = rng.gen_range(0..(RING_CAPACITY as u8 + 2));
                            }
                        }
                    }
                }
                let _ = step_all(&mut oracle, &mut owned, &mut into, &encoded);
            }
        }
    }

    #[test]
    fn patch_gap_absorption_produces_few_patches() {
        let base = vec![0u8; 100];
        let mut frame = vec![0u8; 100];
        // Differences at 10, 12, 14 — gaps of 1 → absorbed into one run.
        frame[10] = 1;
        frame[12] = 1;
        frame[14] = 1;
        let patches = diff_patches(&base, &frame);
        assert_eq!(patches.len(), 1);
        assert_eq!(patches[0].offset, 10);
        assert_eq!(patches[0].bytes.len(), 5);
    }
}
