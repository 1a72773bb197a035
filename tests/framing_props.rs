//! The table-driven CRC-32 behind every `SNIA-*` frame against the
//! bitwise loop it replaced, the coverage of the render-cache key, and a
//! pin of the on-disk stamp format.
//!
//! `framing::crc32` folds eight bytes per step through eight lookup
//! tables. The oracle below is the original bit-at-a-time loop. They must
//! agree on every input: at every length, every start offset within an
//! eight-byte word, and so every remainder the tail loop handles.
//!
//! `cache::stamp_key` hashes the spec field by field. The coverage
//! property perturbs one leaf of a spec's serialised tree at a time and
//! requires a new key, so a field the hash forgets fails here without the
//! test listing the fields again. The stamp pin checks that a render-cache
//! entry keeps its file name and header.

use std::collections::HashSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

use snia_repro::dataset::cache::{self, render_stamp, stamp_key, STAMP_MAGIC, STAMP_VERSION};
use snia_repro::dataset::framing::{crc32, decode_framed, encode_framed};
use snia_repro::dataset::{Dataset, DatasetConfig, SampleSpec};
use snia_repro::lightcurve::{Band, SnType};

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

fn one_spec(seed: u64) -> SampleSpec {
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: 1,
        catalog_size: 30,
        seed,
    });
    ds.samples[0].clone()
}

/// Every node of `v` with its path (child indices), in pre-order.
fn nodes<'a>(v: &'a Value, path: &mut Vec<usize>, out: &mut Vec<(Vec<usize>, &'a Value)>) {
    out.push((path.clone(), v));
    let children: Vec<&Value> = match v {
        Value::Seq(items) => items.iter().collect(),
        Value::Map(fields) => fields.iter().map(|(_, f)| f).collect(),
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        path.push(i);
        nodes(child, path, out);
        path.pop();
    }
}

fn node_mut<'a>(v: &'a mut Value, path: &[usize]) -> &'a mut Value {
    path.iter().fold(v, |node, &i| match node {
        Value::Seq(items) => &mut items[i],
        Value::Map(fields) => &mut fields[i].1,
        other => panic!("no child {i} in {other:?}"),
    })
}

/// The one-step perturbations of a node: the next float up, an integer
/// plus one, every other enum variant, a sequence one element shorter.
fn perturb(node: &Value) -> Vec<Value> {
    match node {
        Value::F64(x) => vec![Value::F64(x.next_up())],
        Value::U64(u) => vec![Value::U64(u.wrapping_add(1))],
        Value::I64(i) => vec![Value::I64(i.wrapping_add(1))],
        Value::Bool(b) => vec![Value::Bool(!b)],
        Value::Str(_) => Band::ALL
            .iter()
            .map(Serialize::to_value)
            .chain(SnType::ALL.iter().map(Serialize::to_value))
            .filter(|c| c != node)
            .collect(),
        Value::Seq(items) if !items.is_empty() => {
            vec![Value::Seq(items[..items.len() - 1].to_vec())]
        }
        Value::Seq(_) | Value::Map(_) => Vec::new(),
        Value::Null => panic!("a generated spec has no null"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every leaf of the spec moved one step, and every `Vec` shortened by
    /// one, gives a spec with a different key.
    #[test]
    fn stamp_key_covers_every_field_of_the_spec(
        seed in any::<u64>(),
        obs in 0usize..20,
    ) {
        let spec = one_spec(seed);
        let key = stamp_key(&spec, obs, 60, true);
        let tree = spec.to_value();
        let mut all = Vec::new();
        nodes(&tree, &mut Vec::new(), &mut all);
        let (mut leaves, mut shortened) = (0, 0);
        for (path, node) in all {
            let mut decoded = 0;
            for replacement in perturb(node) {
                let mut changed = tree.clone();
                *node_mut(&mut changed, &path) = replacement;
                // A tuple or fixed-size array one element shorter, and a
                // variant of the other enum, are not specs.
                let Ok(other) = SampleSpec::from_value(&changed) else {
                    continue;
                };
                prop_assert!(other != spec);
                prop_assert!(
                    stamp_key(&other, obs, 60, true) != key,
                    "perturbing {:?} at {:?} kept the key",
                    node,
                    path
                );
                decoded += 1;
            }
            match node {
                Value::Seq(_) | Value::Map(_) => shortened += decoded,
                _ => {
                    prop_assert!(decoded > 0, "leaf {:?} at {:?} not perturbed", node, path);
                    leaves += 1;
                }
            }
        }
        // 6 spec + 10 galaxy + 6 sn + 3 schedule scalars, 20 × 2
        // observation leaves, 25 × 3 condition leaves.
        prop_assert_eq!(leaves, 140);
        // `observations` and `obs_conditions`.
        prop_assert_eq!(shortened, 2);
    }
}

#[test]
fn stamp_key_tells_nan_from_infinity() {
    // JSON writes every non-finite float as `null`, so a key over the
    // spec's JSON could not tell these apart.
    let spec = one_spec(5);
    let keys: HashSet<u64> = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
        .into_iter()
        .map(|x| {
            let mut s = spec.clone();
            s.sn_dx = x;
            stamp_key(&s, 0, 60, true)
        })
        .collect();
    assert_eq!(keys.len(), 3, "non-finite offsets share a key");
}

#[test]
fn stamp_keys_are_distinct_over_a_dataset() {
    let ds = Dataset::generate(&DatasetConfig {
        n_samples: 100,
        catalog_size: 200,
        seed: 18,
    });
    let mut keys = HashSet::new();
    let mut n = 0;
    for spec in &ds.samples {
        for obs in 0..spec.schedule.observations.len() {
            for crop in [36, 60] {
                for stretch in [false, true] {
                    keys.insert(stamp_key(spec, obs, crop, stretch));
                    n += 1;
                }
            }
        }
    }
    assert_eq!(n, 8000);
    assert_eq!(keys.len(), n, "stamp keys collide");
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

    // The key (and so the file name) of this spec is part of the format.
    // It is pinned under the `snia-stamp-key/2` scheme tag: a change to
    // the key's layout must bump the tag and this pin together, since a
    // new value orphans every existing cache directory.
    assert_eq!(key, 0xe9f3_f845_3fbc_bc47, "stamp key changed");
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
