//! Canonical FNV-1a digests shared across the workspace.
//!
//! One seed, one prime, three disciplines:
//!
//! - [`fnv1a`] / [`fnv1a_fold`]: byte-serial FNV-1a. This is the
//!   whole-payload checksum convention — checkpoint metadata CRCs, frame
//!   tables, and flight-record framing all fold with the same constants so
//!   a digest computed on the persist path verifies on the recovery path.
//! - [`chunk_digest`] / [`ChunkDigester`]: word-folding FNV-style mix,
//!   ~8× faster than the byte-serial form. Used wherever digest
//!   throughput bounds a hot loop: the content address every frame
//!   record carries, computed on the persist path and re-checked per
//!   record on restore. Only ever compared against digests produced by
//!   the same function.
//!
//! Every earlier crate carried its own copy of these loops; they are
//! hoisted here so the codec's content-addressed dedup index and the
//! restore-side record checks are guaranteed to agree byte for byte.

/// FNV-1a seed, shared with the checkpoint metadata checksum.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a prime.
pub const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Folds `data` into a running FNV-1a state (start from [`FNV_SEED`]).
pub fn fnv1a_fold(mut h: u64, data: &[u8]) -> u64 {
    for b in data {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a of `data` from the standard seed.
pub fn fnv1a(data: &[u8]) -> u64 {
    fnv1a_fold(FNV_SEED, data)
}

/// Fast per-chunk digest: FNV-style mix folding eight bytes per multiply
/// instead of one.
///
/// Restore verifies one digest per in-flight record *on the read path*,
/// so digest throughput bounds how much verification can overlap I/O —
/// byte-serial FNV-1a (~hundreds of MB/s) would make a multi-reader
/// restore CPU-bound on small hosts. This variant is ~8× faster and only
/// ever compared against digests produced by the same function (frame
/// record content addresses), so it needs no compatibility with the
/// whole-payload FNV-1a disciplines. The length is mixed into the seed so
/// a chunk and its zero-padded extension digest differently.
pub fn chunk_digest(data: &[u8]) -> u64 {
    let mut d = ChunkDigester::new(data.len() as u64);
    d.update(data);
    d.finish()
}

/// [`chunk_digest`] over bytes that arrive in pieces: feeding a chunk's
/// bytes in any split yields the digest of the whole chunk. The chunk's
/// total length must be known up front (it seeds the mix).
#[derive(Debug, Clone)]
pub struct ChunkDigester {
    h: u64,
    tail: [u8; 8],
    tail_len: usize,
}

impl ChunkDigester {
    /// Starts the digest of a `len`-byte chunk.
    pub fn new(len: u64) -> Self {
        ChunkDigester {
            h: FNV_SEED ^ len,
            tail: [0; 8],
            tail_len: 0,
        }
    }

    /// Folds the next `data` bytes of the chunk.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.tail_len > 0 {
            let take = (8 - self.tail_len).min(data.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&data[..take]);
            self.tail_len += take;
            data = &data[take..];
            if self.tail_len < 8 {
                return;
            }
            self.fold_word(self.tail);
            self.tail_len = 0;
        }
        let words = data.len() / 8;
        for w in data[..words * 8].chunks_exact(8) {
            self.fold_word(w.try_into().expect("8-byte window"));
        }
        let rest = &data[words * 8..];
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    fn fold_word(&mut self, w: [u8; 8]) {
        self.h ^= u64::from_le_bytes(w);
        self.h = self.h.wrapping_mul(FNV_PRIME);
    }

    /// The digest of every byte fed so far (byte-serial over a trailing
    /// partial word).
    pub fn finish(self) -> u64 {
        fnv1a_fold(self.h, &self.tail[..self.tail_len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_composes() {
        assert_eq!(fnv1a(&[]), FNV_SEED);
        assert_eq!(fnv1a_fold(fnv1a(b"ab"), b"cd"), fnv1a(b"abcd"));
    }

    #[test]
    fn chunk_digest_mixes_length() {
        // A chunk and its zero-padded extension must not collide.
        let a = [7u8; 16];
        let b = [7u8; 24];
        assert_ne!(chunk_digest(&a[..16]), chunk_digest(&b[..24]));
        assert_ne!(chunk_digest(b""), chunk_digest(&[0u8]));
    }

    #[test]
    fn chunk_digest_covers_tail_bytes() {
        // Lengths that are not multiples of 8 still fold the tail.
        let mut a = [3u8; 13];
        let d0 = chunk_digest(&a);
        a[12] ^= 1;
        assert_ne!(chunk_digest(&a), d0);
    }

    #[test]
    fn digester_matches_chunk_digest_under_any_split() {
        crate::prop::check("digester_matches_chunk_digest_under_any_split", 256, |g| {
            let data = g.bytes(0..300);
            let mut cuts = g.vec(0..6, |g| g.range(0..data.len() + 1));
            cuts.sort_unstable();
            let mut d = ChunkDigester::new(data.len() as u64);
            let mut at = 0;
            for cut in cuts {
                d.update(&data[at..cut]);
                at = cut;
            }
            d.update(&data[at..]);
            assert_eq!(d.finish(), chunk_digest(&data));
        });
    }

    #[test]
    fn known_vector_stability() {
        // Pinned vector: this digest discipline is baked into every
        // on-device format (meta CRCs, extent tables, flight records), so
        // the constant must never drift.
        assert_eq!(fnv1a(b"a"), 0xaf74_d84c_8601_ec8c);
    }
}
