//! SHA3-256 (FIPS 202) over Keccak-f[1600].
//!
//! Transaction identifiers in SmartchainDB are `sha3_hexdigest` values of
//! the canonical JSON serialization of the transaction body (Fig. 5 of the
//! paper constrains the schema's `id` field to this format).

/// Keccak round constants for the 24 rounds of Keccak-f[1600].
const RC: [u64; 24] = [
    0x0000000000000001,
    0x0000000000008082,
    0x800000000000808a,
    0x8000000080008000,
    0x000000000000808b,
    0x0000000080000001,
    0x8000000080008081,
    0x8000000000008009,
    0x000000000000008a,
    0x0000000000000088,
    0x0000000080008009,
    0x000000008000000a,
    0x000000008000808b,
    0x800000000000008b,
    0x8000000000008089,
    0x8000000000008003,
    0x8000000000008002,
    0x8000000000000080,
    0x000000000000800a,
    0x800000008000000a,
    0x8000000080008081,
    0x8000000000008080,
    0x0000000080000001,
    0x8000000080008008,
];

/// Rotation offsets indexed by lane `(x, y)` as `ROTC[x + 5*y]`.
const ROTC: [u32; 25] = [
    0, 1, 62, 28, 27, // y = 0
    36, 44, 6, 55, 20, // y = 1
    3, 10, 43, 25, 39, // y = 2
    41, 45, 15, 21, 8, // y = 3
    18, 2, 61, 56, 14, // y = 4
];

/// Rate in bytes for SHA3-256: (1600 - 2*256) / 8.
const RATE: usize = 136;

fn keccak_f(state: &mut [u64; 25]) {
    for &rc in &RC {
        // θ
        let mut c = [0u64; 5];
        for x in 0..5 {
            c[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                state[x + 5 * y] ^= d;
            }
        }
        // ρ and π
        let mut b = [0u64; 25];
        for x in 0..5 {
            for y in 0..5 {
                // B[y, 2x+3y] = rot(A[x, y], r[x, y])
                b[y + 5 * ((2 * x + 3 * y) % 5)] = state[x + 5 * y].rotate_left(ROTC[x + 5 * y]);
            }
        }
        // χ
        for y in 0..5 {
            for x in 0..5 {
                state[x + 5 * y] =
                    b[x + 5 * y] ^ (!b[(x + 1) % 5 + 5 * y] & b[(x + 2) % 5 + 5 * y]);
            }
        }
        // ι
        state[0] ^= rc;
    }
}

/// Sponge with a caller-chosen domain-separation byte: `0x06` for the
/// FIPS 202 SHA-3 family, `0x01` for the original Keccak submission
/// (which Ethereum standardized on before FIPS 202 was finalized).
fn sponge_256(data: &[u8], domain: u8) -> [u8; 32] {
    let mut state = [0u64; 25];

    // Absorb full rate-sized blocks.
    let mut chunks = data.chunks_exact(RATE);
    for block in &mut chunks {
        absorb(&mut state, block);
        keccak_f(&mut state);
    }

    // Final block with domain padding: `domain` ... 0x80.
    let rem = chunks.remainder();
    let mut last = [0u8; RATE];
    last[..rem.len()].copy_from_slice(rem);
    last[rem.len()] ^= domain;
    last[RATE - 1] ^= 0x80;
    absorb(&mut state, &last);
    keccak_f(&mut state);

    // Squeeze 32 bytes.
    let mut out = [0u8; 32];
    for i in 0..4 {
        out[i * 8..(i + 1) * 8].copy_from_slice(&state[i].to_le_bytes());
    }
    out
}

/// Computes the SHA3-256 digest of `data`.
pub fn sha3_256(data: &[u8]) -> [u8; 32] {
    sponge_256(data, 0x06)
}

/// Computes the legacy Keccak-256 digest of `data` — the variant
/// Ethereum uses for storage-slot addressing, mapping keys and ABI
/// function selectors (the ETH-SC baseline of §5).
pub fn keccak_256(data: &[u8]) -> [u8; 32] {
    sponge_256(data, 0x01)
}

fn absorb(state: &mut [u64; 25], block: &[u8]) {
    debug_assert_eq!(block.len(), RATE);
    for (lane, chunk) in state.iter_mut().zip(block.as_chunks::<8>().0) {
        *lane ^= u64::from_le_bytes(*chunk);
    }
}

/// SHA3-256 digest as a lowercase hex string — the paper's
/// `sha3_hexdigest` transaction-id format.
pub fn sha3_256_hex(data: &[u8]) -> String {
    crate::hex::encode(&sha3_256(data))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            sha3_256_hex(b""),
            "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            sha3_256_hex(b"abc"),
            "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
        assert_eq!(
            sha3_256_hex(msg),
            "41c0dba2a9d6240849100376a8235e2c82e1b9998a999e21db32dd97496d3376"
        );
    }

    #[test]
    fn rate_boundary_lengths() {
        // One byte below / exactly / above the 136-byte rate.
        for len in [135usize, 136, 137, 271, 272, 273] {
            let data = vec![0x5au8; len];
            assert_eq!(sha3_256(&data), sha3_256(&data), "len={len}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha3_256(b"CREATE"), sha3_256(b"TRANSFER"));
        assert_ne!(sha3_256(b""), sha3_256(b"\x00"));
    }

    #[test]
    fn keccak_vector_empty() {
        // Ethereum's well-known empty-input digest (e.g. the hash of
        // empty account code).
        assert_eq!(
            crate::hex::encode(&keccak_256(b"")),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        );
    }

    #[test]
    fn keccak_vector_selector_source() {
        // keccak("transfer(address,uint256)") — the first 4 bytes are the
        // canonical ERC-20 transfer selector a9059cbb.
        let digest = keccak_256(b"transfer(address,uint256)");
        assert_eq!(crate::hex::encode(&digest[..4]), "a9059cbb");
    }

    #[test]
    fn keccak_differs_from_sha3() {
        assert_ne!(keccak_256(b"abc"), sha3_256(b"abc"));
        assert_eq!(
            crate::hex::encode(&keccak_256(b"abc")),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            crate::hex::encode(&sha3_256(&data)),
            "5c8875ae474a3634ba4fd55ec85bffd661f32aca75c6d699d0cdcb6c115891c1"
        );
    }
}
