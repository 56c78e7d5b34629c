//! The workspace's stable hashes and its seeded PRNG — one definition each.
//!
//! No bit here may ever change: [`fnv64`] checksums `effpi-store`'s log and
//! the exploration engine's spill segments, [`Fnv128`] mints the persisted
//! [`CacheKey`]s, and [`splitmix64`] / [`SplitMix64`] drive the seeded random
//! walk, the serve fault plans and the property suites' generators.

use std::fmt;

/// 64-bit FNV-1a.
#[inline]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// 128-bit FNV-1a, fed incrementally: stable across processes, platforms and
/// releases (unlike `DefaultHasher`).
pub struct Fnv128(u128);

impl Fnv128 {
    /// The FNV-128 offset basis — the hash of the empty input.
    pub const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;

    /// A hasher at the offset basis.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Fnv128(Self::OFFSET)
    }

    /// Mixes in the UTF-8 bytes of `text`.
    pub fn write(&mut self, text: &str) {
        for byte in text.bytes() {
            self.0 ^= u128::from(byte);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u128 {
        self.0
    }
}

/// SplitMix64's state increment (the 64-bit golden ratio).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 output function applied to `x + γ` — a full-avalanche
/// mixer: every input bit flips each output bit with probability ~1/2, so
/// it doubles as a stateless hash of small counters (`splitmix64(seed ^ n)`).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The SplitMix64 stream: tiny, seedable, and exactly reproducible — equal
/// seeds give equal sequences on every platform.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream whose state starts at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(GAMMA);
        out
    }

    /// The next value reduced into `0..bound` (`bound` must be non-zero).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// A 128-bit content address of a verification request.
///
/// Minted by `effpi::Session::cache_key` (or `effpi::spec_cache_key` when no
/// session is at hand) and stored by `effpi-store`; rendered as 32 lowercase
/// hex digits.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CacheKey(pub u128);

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl CacheKey {
    /// Parses the 32-hex-digit rendering back into a key.
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not exactly 32 hex digits.
    pub fn parse(text: &str) -> Result<CacheKey, String> {
        // `from_str_radix` alone would also admit a leading '+'; require
        // literally 32 hex digits so parsing accepts exactly what Display
        // renders.
        if text.len() != 32 || !text.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("cache key must be 32 hex digits, got {text:?}"));
        }
        u128::from_str_radix(text, 16)
            .map(CacheKey)
            .map_err(|e| format!("malformed cache key {text:?}: {e}"))
    }

    /// The 16-byte little-endian encoding — the fixed-width form persistent
    /// stores (e.g. the `store` crate's record log) embed in binary records.
    pub fn to_bytes(self) -> [u8; 16] {
        self.0.to_le_bytes()
    }

    /// Decodes the [`CacheKey::to_bytes`] encoding.
    pub fn from_bytes(bytes: [u8; 16]) -> CacheKey {
        CacheKey(u128::from_le_bytes(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_the_published_vectors() {
        // On-disk formats (store log, spill segments) are checksummed with
        // this function: a changed bit orphans every existing file.
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv128_matches_the_published_vectors() {
        assert_eq!(Fnv128::new().finish(), Fnv128::OFFSET);
        let mut h = Fnv128::new();
        h.write("a");
        assert_eq!(h.finish(), 0xd228cb696f1a8caf78912b704e4a8964);
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        assert_eq!(splitmix64(0), 0xe220a8397b1dcdaf);
        let mut stream = SplitMix64::new(0);
        assert_eq!(stream.next_u64(), 0xe220a8397b1dcdaf);
        assert_eq!(stream.next_u64(), 0x6e789e6aa1b965f4);
        assert_eq!(stream.next_u64(), 0x06c45d188009454f);
        // `below` is the same stream reduced, not a second generator.
        let mut reduced = SplitMix64::new(0);
        assert_eq!(reduced.below(1000), 0xe220a8397b1dcdaf % 1000);
    }
}
