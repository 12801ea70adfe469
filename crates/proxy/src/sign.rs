//! Keyed signatures binding proxy transformations to code.
//!
//! In environments where integrity between the proxy and clients cannot be
//! assumed, "digital signatures attached by the static service components
//! can ensure that the checks are inseparable from applications" (§2). We
//! use an HMAC-style nested keyed digest over MD5; clients redirect
//! incorrectly signed or unsigned code back to the centralized services.

use crate::md5::Md5;

/// Length of an attached signature.
pub const TAG_LEN: usize = 16;

/// Signs and verifies class bytes with a shared organization key.
#[derive(Debug, Clone)]
pub struct Signer {
    key: Vec<u8>,
}

/// Outcome of checking a possibly-signed blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignatureCheck {
    /// Correctly signed by this organization's key.
    Valid,
    /// Carries a tag that does not verify.
    Invalid,
    /// Too short to carry a tag at all.
    Unsigned,
}

impl Signer {
    /// Creates a signer from the organization key.
    pub fn new(key: &[u8]) -> Signer {
        Signer { key: key.to_vec() }
    }

    /// Computes the tag for `data` (HMAC-style nested construction):
    /// `md5(key ‖ md5(key ‖ data))`, streamed — nothing is concatenated.
    pub fn tag(&self, data: &[u8]) -> [u8; TAG_LEN] {
        let mut inner = Md5::new();
        inner.update(&self.key);
        inner.update(data);
        let inner_digest = inner.finalize();
        let mut outer = Md5::new();
        outer.update(&self.key);
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// Appends the tag to `data`, producing the signed wire form.
    pub fn attach(&self, mut data: Vec<u8>) -> Vec<u8> {
        let tag = self.tag(&data);
        data.extend_from_slice(&tag);
        data
    }

    /// Checks a signed blob, returning the verdict and (when valid) the
    /// payload without its tag.
    pub fn detach<'a>(&self, signed: &'a [u8]) -> (SignatureCheck, Option<&'a [u8]>) {
        if signed.len() < TAG_LEN {
            return (SignatureCheck::Unsigned, None);
        }
        let (payload, tag) = signed.split_at(signed.len() - TAG_LEN);
        if self.tag(payload) == tag {
            (SignatureCheck::Valid, Some(payload))
        } else {
            (SignatureCheck::Invalid, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_verifies() {
        let s = Signer::new(b"org-key");
        let signed = s.attach(b"class bytes".to_vec());
        let (check, payload) = s.detach(&signed);
        assert_eq!(check, SignatureCheck::Valid);
        assert_eq!(payload, Some(b"class bytes".as_ref()));
    }

    #[test]
    fn tampering_is_detected() {
        let s = Signer::new(b"org-key");
        let mut signed = s.attach(b"class bytes".to_vec());
        signed[3] ^= 0x40;
        let (check, payload) = s.detach(&signed);
        assert_eq!(check, SignatureCheck::Invalid);
        assert!(payload.is_none());
    }

    #[test]
    fn wrong_key_fails() {
        let s1 = Signer::new(b"org-key");
        let s2 = Signer::new(b"other-key");
        let signed = s1.attach(b"x".to_vec());
        assert_eq!(s2.detach(&signed).0, SignatureCheck::Invalid);
    }

    #[test]
    fn short_input_is_unsigned() {
        let s = Signer::new(b"k");
        assert_eq!(s.detach(&[1, 2, 3]).0, SignatureCheck::Unsigned);
    }

    /// The concatenating construction `tag` replaced, kept as the oracle.
    fn concatenated_tag(key: &[u8], data: &[u8]) -> [u8; TAG_LEN] {
        let mut inner = key.to_vec();
        inner.extend_from_slice(data);
        let inner_digest = crate::md5::md5(&inner);
        let mut outer = key.to_vec();
        outer.extend_from_slice(&inner_digest);
        crate::md5::md5(&outer)
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn streamed_tag_equals_the_concatenated_construction(
            key in proptest::collection::vec(any::<u8>(), 0..=130),
            data in proptest::collection::vec(any::<u8>(), 0..=400),
        ) {
            let signer = Signer::new(&key);
            prop_assert_eq!(signer.tag(&data), concatenated_tag(&key, &data));
        }
    }

    #[test]
    fn empty_and_block_sized_keys_match_the_concatenated_construction() {
        let data = b"class bytes".repeat(40);
        for len in [0usize, 1, 55, 56, 63, 64, 65, 100, 128, 200] {
            let key = vec![0x5c; len];
            assert_eq!(
                Signer::new(&key).tag(&data),
                concatenated_tag(&key, &data),
                "key len {len}"
            );
        }
    }
}
