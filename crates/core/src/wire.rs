//! Byte-exact wire encoding.
//!
//! Digests and MACs are computed over encoded bytes, and the network model
//! charges links for encoded sizes, so the codec is the ground truth for
//! both authentication and performance accounting — exactly the role of
//! BFT's hand-rolled message formats. The format is little-endian, with
//! varint-free fixed-width integers (simple, and the sizes match the
//! paper-era C structs closely enough for the evaluation).

use bft_crypto::md5::Digest;
use bft_crypto::umac::Mac;

/// Encoding/decoding failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated,
    /// A tag or enum discriminant was out of range.
    BadTag(u8),
    /// A length prefix exceeded sanity bounds.
    BadLength(u64),
    /// Input had trailing bytes after a complete message.
    TrailingBytes,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::BadTag(t) => write!(f, "invalid tag byte {t}"),
            WireError::BadLength(l) => write!(f, "implausible length {l}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum length prefix accepted while decoding, to bound allocation on
/// malformed input.
const MAX_LEN: u64 = 64 * 1024 * 1024;

/// A value with a byte-exact wire representation.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes a value from the front of `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] describing the first malformation found.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Encodes into a fresh buffer, pre-sized from [`Wire::wire_len`] so
    /// encoding never reallocates.
    fn to_bytes(&self) -> Vec<u8> {
        let len = self.wire_len();
        let mut buf = Vec::with_capacity(len);
        self.encode(&mut buf);
        debug_assert_eq!(buf.len(), len, "wire_len disagrees with encode");
        buf
    }

    /// Encodes into `buf`, replacing what it held, and returns the bytes:
    /// [`Wire::to_bytes`] for a caller that keeps one buffer across
    /// encodings, so that only the first one allocates.
    fn encode_into<'b>(&self, buf: &'b mut Vec<u8>) -> &'b [u8] {
        buf.clear();
        self.encode(buf);
        buf
    }

    /// Encoded size in bytes. Implementations override this with an
    /// arithmetic computation; the default encodes into a scratch buffer
    /// and counts (correct for any type, but does the work of a full
    /// encode).
    fn wire_len(&self) -> usize {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf.len()
    }

    /// Appends the encodings of `items`, back to back with no length
    /// prefix. The slice-level hooks exist so that a type whose items are
    /// their own encoding (`u8`) can move a whole run at once; the bytes
    /// are always those of the per-item loop.
    fn encode_slice(items: &[Self], buf: &mut Vec<u8>) {
        for item in items {
            item.encode(buf);
        }
    }

    /// Decodes `n` items from the front of `r`. The caller has checked
    /// `n <= r.remaining()`, which bounds the allocation.
    ///
    /// # Errors
    ///
    /// Returns the first item's [`WireError`].
    fn decode_slice(r: &mut Reader<'_>, n: usize) -> Result<Vec<Self>, WireError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Self::decode(r)?);
        }
        Ok(out)
    }

    /// Encoded size of `items` back to back: what
    /// [`Wire::encode_slice`] appends.
    fn slice_wire_len(items: &[Self]) -> usize {
        items.iter().map(Wire::wire_len).sum()
    }

    /// Decodes a complete message, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed or incomplete input.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes);
        }
        Ok(v)
    }
}

/// A cursor over bytes being decoded.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Takes a single byte.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if the input is exhausted.
    pub fn take_byte(&mut self) -> Result<u8, WireError> {
        self.take(1)?.first().copied().ok_or(WireError::Truncated)
    }

    /// Takes exactly `N` bytes as a fixed-size array, so decoders never
    /// need a panicking slice-to-array conversion.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than `N` bytes remain.
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take(N)?.try_into().map_err(|_| WireError::Truncated)
    }
}

impl Wire for u8 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.take_byte()
    }
    fn wire_len(&self) -> usize {
        1
    }
    fn encode_slice(items: &[u8], buf: &mut Vec<u8>) {
        buf.extend_from_slice(items);
    }
    fn decode_slice(r: &mut Reader<'_>, n: usize) -> Result<Vec<u8>, WireError> {
        Ok(r.take(n)?.to_vec())
    }
    fn slice_wire_len(items: &[u8]) -> usize {
        items.len()
    }
}

impl Wire for u32 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(u32::from_le_bytes(r.take_array()?))
    }
    fn wire_len(&self) -> usize {
        4
    }
}

impl Wire for u64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(u64::from_le_bytes(r.take_array()?))
    }
    fn wire_len(&self) -> usize {
        8
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.take_byte()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }
    fn wire_len(&self) -> usize {
        1
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        T::encode_slice(self, buf);
    }
    fn wire_len(&self) -> usize {
        8 + T::slice_wire_len(self)
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = u64::decode(r)?;
        if len > MAX_LEN {
            return Err(WireError::BadLength(len));
        }
        // Guard allocation: items are at least one byte each.
        if len as usize > r.remaining() {
            return Err(WireError::Truncated);
        }
        T::decode_slice(r, len as usize)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.take_byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
    fn wire_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::wire_len)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
    fn wire_len(&self) -> usize {
        self.0.wire_len() + self.1.wire_len()
    }
}

impl Wire for Digest {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Digest(r.take_array()?))
    }
    fn wire_len(&self) -> usize {
        16
    }
}

impl Wire for Mac {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.nonce.encode(buf);
        buf.extend_from_slice(&self.tag);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let nonce = u64::decode(r)?;
        let tag = r.take_array()?;
        Ok(Mac { nonce, tag })
    }
    fn wire_len(&self) -> usize {
        16
    }
}

/// Declares a plain message struct once: the fields, in wire order,
/// generate the struct and its [`Wire`] impl — `encode` and `decode` go
/// field by field, and `wire_len` is the sum of the fields' `wire_len`s,
/// so the field list cannot disagree with the codec or the charged size.
macro_rules! wire_struct {
    ($(#[$meta:meta])* pub struct $name:ident {
        $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)+
    }) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)+
        }

        impl $crate::wire::Wire for $name {
            fn encode(&self, buf: &mut Vec<u8>) {
                $($crate::wire::Wire::encode(&self.$field, buf);)+
            }
            fn decode(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok($name { $($field: <$ty as $crate::wire::Wire>::decode(r)?,)+ })
            }
            fn wire_len(&self) -> usize {
                0 $(+ $crate::wire::Wire::wire_len(&self.$field))+
            }
        }
    };
}
pub(crate) use wire_struct;

/// Declares a tagged message enum from one table of
/// `Variant(Payload) = tag` rows: the enum, `tag()`, `TAG_COUNT`, and a
/// [`Wire`] impl that writes the tag byte then the payload. A tag lives
/// in exactly one row, so the three directions cannot skew, and a tag
/// reused by two rows is a compile error (the second decode arm is
/// unreachable).
macro_rules! wire_enum {
    ($(#[$meta:meta])* pub enum $name:ident {
        $($(#[$vmeta:meta])* $variant:ident($payload:ty) = $tag:literal,)+
    }) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $variant($payload),)+
        }

        impl $name {
            /// Number of variants, hence of wire tags.
            pub const TAG_COUNT: usize = [$($tag),+].len();

            /// The wire tag byte: the first byte of the encoding.
            pub fn tag(&self) -> u8 {
                match self {
                    $($name::$variant(_) => $tag,)+
                }
            }
        }

        impl $crate::wire::Wire for $name {
            fn encode(&self, buf: &mut Vec<u8>) {
                match self {
                    $($name::$variant(m) => {
                        buf.push($tag);
                        $crate::wire::Wire::encode(m, buf);
                    })+
                }
            }
            #[deny(unreachable_patterns)]
            fn decode(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok(match r.take_byte()? {
                    $($tag => $name::$variant(<$payload as $crate::wire::Wire>::decode(r)?),)+
                    t => return Err($crate::wire::WireError::BadTag(t)),
                })
            }
            fn wire_len(&self) -> usize {
                1 + match self {
                    $($name::$variant(m) => $crate::wire::Wire::wire_len(m),)+
                }
            }
        }
    };
}
pub(crate) use wire_enum;

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), v.wire_len());
        assert_eq!(T::from_bytes(&bytes).expect("decodes"), v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX);
        roundtrip(true);
        roundtrip(false);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u8, 2, 3]);
        roundtrip(Vec::<u8>::new());
        roundtrip(vec![7u32, 8, 9]);
        roundtrip(Option::<u32>::None);
        roundtrip(Some(5u64));
        roundtrip((3u32, vec![1u8]));
    }

    #[test]
    fn crypto_types_roundtrip() {
        roundtrip(bft_crypto::digest(b"x"));
        roundtrip(Mac {
            nonce: 42,
            tag: [1, 2, 3, 4, 5, 6, 7, 8],
        });
    }

    #[test]
    fn encode_into_replaces_the_buffer_contents() {
        let mut buf = vec![9u8; 64];
        assert_eq!(7u32.encode_into(&mut buf), 7u32.to_bytes());
        assert_eq!(buf.len(), 4);
        assert!(buf.capacity() >= 64, "the allocation is kept");
    }

    #[test]
    fn truncation_detected() {
        let bytes = 0xabcdu32.to_bytes();
        assert_eq!(u32::from_bytes(&bytes[..3]), Err(WireError::Truncated));
        assert_eq!(u64::from_bytes(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = 1u8.to_bytes();
        bytes.push(0);
        assert_eq!(u8::from_bytes(&bytes), Err(WireError::TrailingBytes));
    }

    #[test]
    fn bad_bool_tag() {
        assert_eq!(bool::from_bytes(&[2]), Err(WireError::BadTag(2)));
    }

    #[test]
    fn huge_length_rejected_without_allocating() {
        let mut bytes = Vec::new();
        u64::MAX.encode(&mut bytes);
        assert_eq!(
            Vec::<u8>::from_bytes(&bytes),
            Err(WireError::BadLength(u64::MAX))
        );
        // A length that passes the sanity bound but exceeds the input is
        // caught as truncation before allocation.
        let mut bytes = Vec::new();
        (1_000_000u64).encode(&mut bytes);
        assert_eq!(Vec::<u32>::from_bytes(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn option_bad_tag() {
        assert_eq!(Option::<u32>::from_bytes(&[9]), Err(WireError::BadTag(9)));
    }
}
