//! Content hashing and raw little-endian scalar codecs — the shared home
//! for the primitives every persistence layer in the workspace builds on.
//!
//! [`fnv1a`] started life inside the snapshot codec as its checksum; the
//! content-addressed result store (`svmsyn-store`) keys records by the same
//! digest, so the hash (and the LE read/write helpers the image container
//! pairs it with) lives here as an exported module instead of being copied
//! per crate. `svmsyn_snap` re-exports [`fnv1a`] at the crate root for
//! compatibility with existing callers.

/// The FNV-1a 64-bit offset basis.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes` — the image checksum, design fingerprint,
/// and store-key digest primitive.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// Streaming FNV-1a 64-bit hasher: feed byte slices incrementally, read the
/// digest out at any point. `Fnv1a::new().update(b).finish()` is defined to
/// equal [`fnv1a`]`(b)`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a {
    state: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A hasher at the offset basis (the hash of the empty string).
    pub fn new() -> Fnv1a {
        Fnv1a {
            state: FNV1A_OFFSET,
        }
    }

    /// Absorbs `bytes`. Splitting input across calls does not change the
    /// digest: the hash is a pure function of the concatenated stream.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV1A_PRIME);
        }
        self
    }

    /// The digest of everything absorbed so far (the hasher stays usable).
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Appends a little-endian u32 to `out`.
pub fn write_u32_le(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian u64 to `out`.
pub fn write_u64_le(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian u32 at `offset`, or `None` when `buf` is too short.
pub fn read_u32_le(buf: &[u8], offset: usize) -> Option<u32> {
    let bytes = buf.get(offset..offset + 4)?;
    Some(u32::from_le_bytes(bytes.try_into().unwrap()))
}

/// Reads a little-endian u64 at `offset`, or `None` when `buf` is too short.
pub fn read_u64_le(buf: &[u8], offset: usize) -> Option<u64> {
    let bytes = buf.get(offset..offset + 8)?;
    Some(u64::from_le_bytes(bytes.try_into().unwrap()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let mut h = Fnv1a::new();
            h.update(&data[..split]).update(&data[split..]);
            assert_eq!(h.finish(), fnv1a(data), "split at {split}");
        }
    }

    #[test]
    fn known_vectors() {
        assert_eq!(fnv1a(b""), FNV1A_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn le_scalar_roundtrip() {
        let mut buf = Vec::new();
        write_u32_le(&mut buf, 0xDEAD_BEEF);
        write_u64_le(&mut buf, u64::MAX - 1);
        assert_eq!(read_u32_le(&buf, 0), Some(0xDEAD_BEEF));
        assert_eq!(read_u64_le(&buf, 4), Some(u64::MAX - 1));
        // Out-of-range reads are None, never a panic.
        assert_eq!(read_u32_le(&buf, 9), None);
        assert_eq!(read_u64_le(&buf, 5), None);
        assert_eq!(read_u64_le(&[], 0), None);
    }
}
