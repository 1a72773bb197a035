//! The table-driven CRC-32 behind every `SNIA-*` frame against the
//! bitwise loop it replaced, and a pin of the on-disk stamp format.
//!
//! `framing::crc32` folds eight bytes per step through eight lookup
//! tables. The oracle below is the original bit-at-a-time loop. They must
//! agree on every input: at every length, every start offset within an
//! eight-byte word, and so every remainder the tail loop handles. The
//! stamp pin checks that a render-cache entry keeps its file name and
//! header, so a cache directory written before the table CRC still hits.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use snia_repro::dataset::cache::{self, render_stamp, stamp_key, STAMP_MAGIC, STAMP_VERSION};
use snia_repro::dataset::framing::{crc32, decode_framed, encode_framed};
use snia_repro::dataset::{Dataset, DatasetConfig};

/// The bitwise CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`),
/// kept as the oracle.
fn oracle_crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn random_bytes(rng: &mut StdRng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.gen()).collect()
}

#[test]
fn check_value_and_empty_input() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(oracle_crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}

#[test]
fn every_short_length_and_offset_matches_the_oracle() {
    // Lengths 0..=64 from each of the eight start offsets cover every
    // remainder 0..=7 with zero to eight full words in front of it.
    let mut rng = StdRng::seed_from_u64(0xC3C3);
    let buf = random_bytes(&mut rng, 80);
    for offset in 0..8 {
        for len in 0..=64 {
            let s = &buf[offset..offset + len];
            assert_eq!(crc32(s), oracle_crc32(s), "offset {offset}, len {len}");
        }
    }
    // Single set bits exercise every table entry's polynomial folding.
    for len in 1..=16 {
        for bit in 0..len * 8 {
            let mut s = vec![0u8; len];
            s[bit / 8] = 1 << (bit % 8);
            assert_eq!(crc32(&s), oracle_crc32(&s), "len {len}, bit {bit}");
        }
    }
    // Every byte value, alone and in every position of a word.
    for b in 0..=255u8 {
        for pos in 0..8 {
            let mut s = [0xA5u8; 8];
            s[pos] = b;
            assert_eq!(crc32(&s), oracle_crc32(&s), "byte {b:#04x} at {pos}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn table_crc_matches_bitwise_oracle(
        seed in any::<u64>(),
        len in 0usize..20_001,
        offset in 0usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let buf = random_bytes(&mut rng, len + offset);
        let s = &buf[offset..];
        prop_assert_eq!(crc32(s), oracle_crc32(s));
        // Trimming 0..=7 bytes off the end hands the tail loop every
        // remainder 0..=7.
        for trim in 1..8.min(s.len() + 1) {
            let t = &s[..s.len() - trim];
            prop_assert_eq!(crc32(t), oracle_crc32(t));
        }
    }

    #[test]
    fn frames_round_trip_and_carry_the_oracle_crc(
        seed in any::<u64>(),
        len in 0usize..4_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let body = random_bytes(&mut rng, len);
        let framed = encode_framed("SNIA-PROP", 1, &body);
        let header = format!("SNIA-PROP v1 crc32={:08x} len={len}\n", oracle_crc32(&body));
        prop_assert_eq!(&framed[..header.len()], header.as_bytes());
        prop_assert_eq!(decode_framed("SNIA-PROP", 1, &framed), Ok(&body[..]));
        if len > 0 {
            let mut bad = framed.clone();
            let i = header.len() + rng.gen_range(0..len);
            bad[i] ^= 1 << rng.gen_range(0..8);
            prop_assert!(decode_framed("SNIA-PROP", 1, &bad).is_err());
        }
    }
}

#[test]
fn stamp_entries_keep_their_name_and_header() {
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: 1,
        catalog_size: 30,
        seed: 17,
    });
    let spec = &ds.samples[0];
    let crop = 36;
    let dir = std::env::temp_dir().join(format!("snia-framing-props-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    cache::configure(Some(&dir)).expect("cache dir");
    let px = cache::stamp_pixels(spec, 1, crop, true);
    let key = stamp_key(spec, 1, crop, true);
    let path = dir.join(format!("{key:016x}.stamp"));
    let bytes = std::fs::read(&path);
    cache::configure(None).expect("disable cache");
    let _ = std::fs::remove_dir_all(&dir);
    let bytes = bytes.expect("entry named {stamp_key:016x}.stamp");

    // The key (and so the file name) of this spec is part of the format:
    // a different value would orphan every existing cache directory.
    assert_eq!(key, 0x847b_9cb0_f774_df1d, "stamp key changed");
    assert_eq!(px, render_stamp(spec, 1, crop, true));
    let body: Vec<u8> = px.iter().flat_map(|p| p.to_le_bytes()).collect();
    assert_eq!(body.len(), crop * crop * 4);
    let header = format!(
        "{STAMP_MAGIC} v{STAMP_VERSION} crc32={:08x} len={}\n",
        oracle_crc32(&body),
        crop * crop * 4
    );
    assert!(header.starts_with("SNIA-STAMP v1 crc32="));
    assert_eq!(&bytes[..header.len()], header.as_bytes());
    assert_eq!(&bytes[header.len()..], &body[..]);
}
