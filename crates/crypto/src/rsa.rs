//! Textbook RSA over [`crate::bignum::UBig`], used only for session-key
//! establishment.
//!
//! In BFT each principal has a public key; a replica or client periodically
//! sends a `NEW-KEY` message containing fresh symmetric session keys, each
//! encrypted under the recipient's public key, and signs the whole message.
//! That is the *only* use of public-key cryptography in the system — the
//! point the paper makes against Rampart and SecureRing, which signed every
//! protocol message and were orders of magnitude slower.
//!
//! Security notes: this is deliberately *textbook* RSA with a deterministic
//! digest pad — adequate for a research reproduction whose adversary model
//! is exercised via fault injection in tests, not for production use.

use crate::bignum::UBig;
use crate::md5;
use crate::CryptoError;
use rand::Rng;

/// The public half of an RSA keypair.
#[derive(Clone, PartialEq, Eq)]
pub struct PublicKey {
    n: UBig,
    e: UBig,
}

impl std::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PublicKey({} bits)", self.n.bits())
    }
}

/// A full RSA keypair.
#[derive(Clone)]
pub struct KeyPair {
    public: PublicKey,
    d: UBig,
}

impl std::fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KeyPair({} bits)", self.public.n.bits())
    }
}

/// An RSA signature (big-endian bytes of the signature integer).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Signature(pub Vec<u8>);

impl KeyPair {
    /// Generates a keypair with a modulus of about `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 32`.
    pub fn generate<R: Rng>(rng: &mut R, bits: usize) -> KeyPair {
        assert!(bits >= 32, "modulus too small");
        let e = UBig::from(65537u64);
        loop {
            let p = UBig::random_prime(rng, bits / 2);
            let q = UBig::random_prime(rng, bits - bits / 2);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let phi = p.sub(&UBig::one()).mul(&q.sub(&UBig::one()));
            if let Some(d) = e.mod_inv(&phi) {
                return KeyPair {
                    public: PublicKey { n, e },
                    d,
                };
            }
        }
    }

    /// Returns the public key.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Signs a message: pad(MD5(msg))^d mod n.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let m = pad_digest(msg, &self.public.n);
        Signature(m.mod_pow(&self.d, &self.public.n).to_bytes_be())
    }

    /// Decrypts a ciphertext produced by [`PublicKey::encrypt`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Malformed`] if the ciphertext is out of range
    /// or the recovered plaintext does not carry the expected framing.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let c = UBig::from_bytes_be(ciphertext);
        if c >= self.public.n {
            return Err(CryptoError::Malformed);
        }
        let m = c.mod_pow(&self.d, &self.public.n);
        let bytes = m.to_bytes_be();
        // Framing: 0x01 marker, one length byte, payload, random filler.
        if bytes.len() < 2 || bytes[0] != 0x01 {
            return Err(CryptoError::Malformed);
        }
        let len = bytes[1] as usize;
        if bytes.len() < 2 + len {
            return Err(CryptoError::Malformed);
        }
        Ok(bytes[2..2 + len].to_vec())
    }
}

impl PublicKey {
    /// Verifies a signature over `msg`.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), CryptoError> {
        let s = UBig::from_bytes_be(&sig.0);
        if s >= self.n {
            return Err(CryptoError::BadSignature);
        }
        let recovered = s.mod_pow(&self.e, &self.n);
        if recovered == pad_digest(msg, &self.n) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }

    /// Encrypts a short payload (e.g. a 16-byte session key).
    ///
    /// # Panics
    ///
    /// Panics if the payload is too long for the modulus (payload must fit
    /// in `modulus_bytes - 3` bytes).
    pub fn encrypt<R: Rng>(&self, rng: &mut R, payload: &[u8]) -> Vec<u8> {
        let cap = self.n.bits() / 8;
        assert!(
            payload.len() + 3 <= cap,
            "payload of {} bytes too long for {}-bit modulus",
            payload.len(),
            self.n.bits()
        );
        assert!(payload.len() < 256, "length byte overflow");
        let mut framed = Vec::with_capacity(cap - 1);
        framed.push(0x01);
        framed.push(payload.len() as u8);
        framed.extend_from_slice(payload);
        // Random filler keeps the integer large and un-guessable.
        while framed.len() < cap - 1 {
            framed.push(rng.gen::<u8>() | 1);
        }
        let m = UBig::from_bytes_be(&framed);
        debug_assert!(m < self.n);
        m.mod_pow(&self.e, &self.n).to_bytes_be()
    }
}

/// Deterministic digest padding: 0x02 marker, repeated digest to fill the
/// modulus width minus one byte.
fn pad_digest(msg: &[u8], n: &UBig) -> UBig {
    let d = md5::digest(msg);
    let cap = n.bits() / 8;
    let mut padded = Vec::with_capacity(cap - 1);
    padded.push(0x02);
    while padded.len() < cap.saturating_sub(1) {
        let take = (cap - 1 - padded.len()).min(16);
        padded.extend_from_slice(&d.as_bytes()[..take]);
    }
    UBig::from_bytes_be(&padded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> (KeyPair, StdRng) {
        let mut rng = StdRng::seed_from_u64(0x5161);
        let kp = KeyPair::generate(&mut rng, 256);
        (kp, rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (kp, _) = keypair();
        let sig = kp.sign(b"new-key message");
        kp.public().verify(b"new-key message", &sig).expect("valid");
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let (kp, _) = keypair();
        let sig = kp.sign(b"new-key message");
        assert_eq!(
            kp.public().verify(b"other message", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let (kp, mut rng) = keypair();
        let other = KeyPair::generate(&mut rng, 256);
        let sig = kp.sign(b"msg");
        assert!(other.public().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn verify_rejects_out_of_range_signature() {
        let (kp, _) = keypair();
        let huge = Signature(vec![0xff; 64]);
        assert!(kp.public().verify(b"msg", &huge).is_err());
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (kp, mut rng) = keypair();
        let session_key = [0xabu8; 16];
        let ct = kp.public().encrypt(&mut rng, &session_key);
        assert_eq!(kp.decrypt(&ct).expect("valid"), session_key);
    }

    #[test]
    fn encrypt_is_randomized() {
        let (kp, mut rng) = keypair();
        let a = kp.public().encrypt(&mut rng, &[1, 2, 3]);
        let b = kp.public().encrypt(&mut rng, &[1, 2, 3]);
        assert_ne!(a, b);
        assert_eq!(kp.decrypt(&a).expect("a"), kp.decrypt(&b).expect("b"));
    }

    #[test]
    fn decrypt_rejects_garbage() {
        let (kp, _) = keypair();
        assert!(kp.decrypt(&[0xff; 64]).is_err());
    }

    #[test]
    fn empty_payload_roundtrip() {
        let (kp, mut rng) = keypair();
        let ct = kp.public().encrypt(&mut rng, &[]);
        assert_eq!(kp.decrypt(&ct).expect("valid"), Vec::<u8>::new());
    }
}
