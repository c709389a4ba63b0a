//! Chunking: splitting an encoding into fixed playback-duration chunks.
//!
//! §2: "each encoded bitrate of the video is then broken into chunks (a
//! chunk is a fixed playback-duration portion of the video)". Some
//! publishers instead support byte-range addressing over a single file;
//! both modes are modeled.

use vmp_core::units::{Bytes, Kbps, Seconds};

/// How chunk boundaries are addressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Addressing {
    /// Discrete chunk files (`seg-00001.ts`).
    ChunkFiles,
    /// HTTP byte ranges into one file per encoding.
    ByteRange,
}

/// One chunk of one encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    /// Zero-based index within the encoding.
    pub index: u64,
    /// Playback duration of this chunk (the tail chunk may be shorter).
    pub duration: Seconds,
    /// Encoded size of this chunk.
    pub size: Bytes,
    /// Byte offset within the encoding file (byte-range mode) or within the
    /// concatenated stream (chunk-file mode; informational).
    pub offset: Bytes,
}

/// The chunking plan for one encoding of one title.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkingPlan {
    /// Video bitrate of the encoding.
    pub bitrate: Kbps,
    /// Nominal chunk duration.
    pub chunk_duration: Seconds,
    /// Addressing mode.
    pub addressing: Addressing,
    chunks: Vec<Chunk>,
}

impl ChunkingPlan {
    /// Splits `total` seconds of media at `bitrate` into chunks of
    /// `chunk_duration` (tail chunk truncated). `container_overhead` inflates
    /// sizes for the container format (e.g. MPEG-TS ≈ 1.10, fMP4 ≈ 1.03).
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "non-negative chunk sizes in bytes; `as` saturates"
    )]
    pub fn new(
        bitrate: Kbps,
        total: Seconds,
        chunk_duration: Seconds,
        addressing: Addressing,
        container_overhead: f64,
    ) -> Result<ChunkingPlan, String> {
        if chunk_duration.0 <= 0.0 {
            return Err("chunk duration must be positive".into());
        }
        if total.0 < 0.0 {
            return Err("total duration must be non-negative".into());
        }
        if container_overhead < 1.0 {
            return Err("container overhead cannot shrink media".into());
        }
        let mut chunks = Vec::new();
        let mut remaining = total.0;
        let mut index = 0u64;
        let mut offset = 0u64;
        while remaining > 1e-9 {
            let d = remaining.min(chunk_duration.0);
            let size = (bitrate.bits_per_sec() as f64 * d / 8.0 * container_overhead) as u64;
            chunks.push(Chunk {
                index,
                duration: Seconds(d),
                size: Bytes(size),
                offset: Bytes(offset),
            });
            offset += size;
            remaining -= d;
            index += 1;
        }
        Ok(ChunkingPlan { bitrate, chunk_duration, addressing, chunks })
    }

    /// The chunks in order.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// True when the plan covers zero media.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Total encoded bytes.
    pub fn total_bytes(&self) -> Bytes {
        self.chunks.iter().map(|c| c.size).sum()
    }

    /// Total media duration.
    pub fn total_duration(&self) -> Seconds {
        self.chunks.iter().map(|c| c.duration).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_division() {
        let plan =
            ChunkingPlan::new(Kbps(8000), Seconds(60.0), Seconds(6.0), Addressing::ChunkFiles, 1.0)
                .unwrap();
        assert_eq!(plan.len(), 10);
        // 8000 Kbps * 6 s = 6 MB per chunk.
        assert_eq!(plan.chunks()[0].size, Bytes(6_000_000));
        assert_eq!(plan.total_bytes(), Bytes(60_000_000));
        assert!((plan.total_duration().0 - 60.0).abs() < 1e-9);
    }

    #[test]
    fn tail_chunk_is_short() {
        let plan =
            ChunkingPlan::new(Kbps(1000), Seconds(62.0), Seconds(6.0), Addressing::ChunkFiles, 1.0)
                .unwrap();
        assert_eq!(plan.len(), 11);
        let tail = plan.chunks().last().unwrap();
        assert!((tail.duration.0 - 2.0).abs() < 1e-9);
        assert!((plan.total_duration().0 - 62.0).abs() < 1e-9);
    }

    #[test]
    fn offsets_are_cumulative() {
        let plan =
            ChunkingPlan::new(Kbps(1000), Seconds(18.0), Seconds(6.0), Addressing::ByteRange, 1.0)
                .unwrap();
        let chunks = plan.chunks();
        assert_eq!(chunks[0].offset, Bytes(0));
        assert_eq!(chunks[1].offset, chunks[0].size);
        assert_eq!(chunks[2].offset, Bytes(chunks[0].size.0 + chunks[1].size.0));
    }

    #[test]
    fn container_overhead_inflates() {
        let bare =
            ChunkingPlan::new(Kbps(1000), Seconds(60.0), Seconds(6.0), Addressing::ChunkFiles, 1.0)
                .unwrap();
        let ts =
            ChunkingPlan::new(Kbps(1000), Seconds(60.0), Seconds(6.0), Addressing::ChunkFiles, 1.1)
                .unwrap();
        assert!(ts.total_bytes() > bare.total_bytes());
        let ratio = ts.total_bytes().0 as f64 / bare.total_bytes().0 as f64;
        assert!((ratio - 1.1).abs() < 1e-6);
    }

    #[test]
    fn zero_duration_is_empty() {
        let plan =
            ChunkingPlan::new(Kbps(1000), Seconds(0.0), Seconds(6.0), Addressing::ChunkFiles, 1.0)
                .unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.total_bytes(), Bytes::ZERO);
    }

    #[test]
    fn invalid_plans_rejected() {
        assert!(
            ChunkingPlan::new(Kbps(1), Seconds(1.0), Seconds(0.0), Addressing::ChunkFiles, 1.0)
                .is_err()
        );
        assert!(
            ChunkingPlan::new(Kbps(1), Seconds(-1.0), Seconds(1.0), Addressing::ChunkFiles, 1.0)
                .is_err()
        );
        assert!(
            ChunkingPlan::new(Kbps(1), Seconds(1.0), Seconds(1.0), Addressing::ChunkFiles, 0.5)
                .is_err()
        );
    }
}
