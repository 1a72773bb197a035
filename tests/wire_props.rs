//! Differential properties of the JSONL request decoder.
//!
//! `parse_request_line` decodes a line in one pass. The oracle below is
//! the decoder it replaced: parse the whole line into a `serde_json`
//! `Value`, then read the fields from it. On every generated line, every
//! single-byte mutation and truncation of one, and arbitrary bytes, both
//! must agree: the same `id` and `to_bits`-equal arrays, or the same
//! error message (so syntax errors keep their `invalid json:` prefix),
//! and neither may panic.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde_json::Value;

use snia_repro::serve::{parse_request_line, Request, RequestInput};

fn oracle_f32_array(v: &Value, key: &str) -> Result<Vec<f32>, String> {
    let arr = v
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("\"{key}\" must be an array of numbers"))?;
    arr.iter()
        .map(|x| {
            x.as_f64()
                .map(|f| f as f32)
                .ok_or_else(|| format!("\"{key}\" must contain only numbers"))
        })
        .collect()
}

/// The `Value`-based request parser, kept as the oracle.
fn oracle(line: &str) -> Result<Request, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("invalid json: {e}"))?;
    let id = value
        .get("id")
        .and_then(Value::as_u64)
        .ok_or("missing or non-integer \"id\"")?;
    let input = if value.get("features").is_some() {
        RequestInput::Features(oracle_f32_array(&value, "features")?)
    } else if value.get("images").is_some() || value.get("dates").is_some() {
        RequestInput::Cutouts {
            images: oracle_f32_array(&value, "images")?,
            dates: oracle_f32_array(&value, "dates")?,
        }
    } else {
        return Err("request needs \"features\" or \"images\"+\"dates\"".into());
    };
    Ok(Request { id, input })
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn input_bits(input: &RequestInput) -> (u8, Vec<u32>, Vec<u32>) {
    match input {
        RequestInput::Features(f) => (0, bits(f), Vec::new()),
        RequestInput::Cutouts { images, dates } => (1, bits(images), bits(dates)),
    }
}

/// Both decoders agree on `line`.
fn agree(line: &str) -> Result<(), TestCaseError> {
    match (parse_request_line(line), oracle(line)) {
        (Ok(got), Ok(want)) => {
            prop_assert_eq!(got.id, want.id, "line {:?}", line);
            prop_assert!(
                input_bits(&got.input) == input_bits(&want.input),
                "line {:?}: decoded {:?}, oracle {:?}",
                line,
                got.input,
                want.input
            );
        }
        (Err(got), Err(want)) => prop_assert_eq!(got, want, "line {:?}", line),
        (got, want) => {
            prop_assert!(false, "line {line:?}: decoded {got:?}, oracle {want:?}");
        }
    }
    Ok(())
}

fn pick<'a>(rng: &mut StdRng, options: &[&'a str]) -> &'a str {
    options.choose(rng).expect("non-empty options")
}

/// Whitespace between tokens: usually none or one space.
fn ws(rng: &mut StdRng) -> &'static str {
    pick(rng, &["", "", "", " ", " ", "\t", "\n", "\r\n ", "  "])
}

fn scaled(rng: &mut StdRng) -> f64 {
    let magnitude = 10f64.powi(rng.gen_range(-12i32..12));
    let x = rng.gen::<f64>() * magnitude;
    if rng.gen_bool(0.5) {
        -x
    } else {
        x
    }
}

/// `count` random digits.
fn digits(rng: &mut StdRng, count: usize) -> String {
    (0..count)
        .map(|_| char::from(b'0' + rng.gen_range(0u8..10)))
        .collect()
}

/// One number token, from the shapes a client sends and the edge cases
/// of the tokenizer.
fn number(rng: &mut StdRng) -> String {
    match rng.gen_range(0u32..16) {
        // What serializers write: shortest round-trip f32 and f64.
        0..=3 => format!("{}", scaled(rng) as f32),
        4 | 5 => format!("{}", scaled(rng)),
        6 => format!("{}", rng.gen_range(-1_000_000i64..1_000_000)),
        7 => format!("{}", rng.gen::<u64>()),
        8 => pick(
            rng,
            &[
                "-0", "-00", "0", "007", "-0.0", "0.0", "-0e0", "00.5", "-00.125",
            ],
        )
        .to_string(),
        // Exponent forms.
        9 => {
            let e = pick(rng, &["e", "E"]);
            let sign = pick(rng, &["", "+", "-"]);
            format!("{}{e}{sign}{}", scaled(rng) as f32, rng.gen_range(0u32..40))
        }
        // Either side of the exact path's limits: 15 significant digits
        // and 19 digits in all, leading zeros included.
        10 => {
            let int = rng.gen_range(1usize..10);
            let frac = rng.gen_range(1usize..30);
            format!("{}.{}", digits(rng, int), digits(rng, frac))
        }
        11 => format!("0.{}{}", "0".repeat(rng.gen_range(15..30)), digits(rng, 3)),
        // Just above a tie between two f32s: f64 rounds it onto the tie,
        // which `as f32` breaks to even; only f64-then-f32 gets it right.
        12 => {
            let x = rng.gen_range(1e-3f32..1e3);
            let tie = (f64::from(x) + f64::from(f32::from_bits(x.to_bits() + 1))) / 2.0;
            let mut text = format!("{tie:.50}");
            text.pop();
            text.push('1');
            text
        }
        // Integers past i64 and u64, and values past f32 or f64.
        13 => format!("{}{}", rng.gen_range(1u32..10), digits(rng, 20)),
        14 => pick(
            rng,
            &["1e400", "-1e400", "1e39", "3.5e38", "1e-50", "4e-46"],
        )
        .to_string(),
        _ => format!("{}", rng.gen_range(0u32..100_000) as f64 / 1000.0),
    }
}

fn numbers(rng: &mut StdRng, count: usize) -> String {
    let sep = format!("{},{}", ws(rng), ws(rng));
    let items: Vec<String> = (0..count).map(|_| number(rng)).collect();
    format!("[{}{}{}]", ws(rng), items.join(&sep), ws(rng))
}

/// A string literal with escapes and a non-ASCII character now and then.
fn string(rng: &mut StdRng) -> String {
    let parts = [
        "a",
        "id",
        "x y",
        "\\\"",
        "\\\\",
        "\\/",
        "\\n",
        "\\t",
        "\\u0041",
        "\\ud83d\\ude00",
        "é",
        "\\b\\f\\r",
    ];
    let body: String = (0..rng.gen_range(0usize..4))
        .map(|_| pick(rng, &parts))
        .collect();
    format!("\"{body}\"")
}

/// Any JSON value, nested up to `depth` more levels.
fn value(rng: &mut StdRng, depth: u32) -> String {
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.gen_range(0u32..kinds) {
        0 => pick(rng, &["null", "true", "false"]).to_string(),
        1 | 2 => number(rng),
        3 | 4 => string(rng),
        5 => {
            let items: Vec<String> = (0..rng.gen_range(0usize..4))
                .map(|_| value(rng, depth - 1))
                .collect();
            format!("[{}]", items.join(","))
        }
        _ => {
            let entries: Vec<String> = (0..rng.gen_range(0usize..4))
                .map(|_| format!("{}:{}{}", string(rng), ws(rng), value(rng, depth - 1)))
                .collect();
            format!("{{{}}}", entries.join(","))
        }
    }
}

/// A key, sometimes spelled with escapes that decode to the same name.
fn key(rng: &mut StdRng, name: &str) -> String {
    if rng.gen_bool(0.15) {
        let first = name.chars().next().expect("non-empty key");
        format!("\"\\u{:04x}{}\"", first as u32, &name[1..])
    } else {
        format!("\"{name}\"")
    }
}

/// A request-shaped line: the fields a request needs, sometimes ill-typed
/// or duplicated, unknown keys, keys in any order, whitespace anywhere,
/// and now and then trailing bytes.
fn request_line(rng: &mut StdRng) -> String {
    let mut entries: Vec<(String, String)> = Vec::new();
    let id = match rng.gen_range(0u32..8) {
        0 => value(rng, 1),
        1 => pick(
            rng,
            &[
                "-0",
                "-1",
                "1.0",
                "18446744073709551615",
                "18446744073709551616",
            ],
        )
        .to_string(),
        _ => format!("{}", rng.gen::<u64>() >> rng.gen_range(0u32..64)),
    };
    if rng.gen_bool(0.95) {
        entries.push(("id".into(), id));
    }
    let len = rng.gen_range(0usize..24);
    match rng.gen_range(0u32..3) {
        0 => entries.push(("features".into(), numbers(rng, len))),
        1 => {
            entries.push(("images".into(), numbers(rng, len)));
            entries.push(("dates".into(), numbers(rng, 5)));
        }
        _ => {
            entries.push(("features".into(), numbers(rng, len)));
            entries.push(("images".into(), numbers(rng, 3)));
        }
    }
    // Ill-typed payloads: a non-array, or a non-number element.
    if rng.gen_bool(0.1) {
        let i = rng.gen_range(0..entries.len());
        entries[i].1 = if rng.gen_bool(0.5) {
            value(rng, 1)
        } else {
            format!("[1,{},2]", value(rng, 1))
        };
    }
    // Duplicates: the first occurrence must win.
    for _ in 0..rng.gen_range(0usize..3) {
        let name = pick(rng, &["id", "features", "images", "dates"]).to_string();
        let v = if rng.gen_bool(0.5) {
            numbers(rng, 2)
        } else {
            value(rng, 1)
        };
        entries.push((name, v));
    }
    for _ in 0..rng.gen_range(0usize..3) {
        let name = pick(rng, &["meta", "x", "band", "Id", "ids"]).to_string();
        let v = value(rng, 3);
        entries.push((name, v));
    }
    entries.shuffle(rng);
    let body: Vec<String> = entries
        .iter()
        .map(|(name, v)| {
            format!(
                "{}{}{}:{}{}{}",
                ws(rng),
                key(rng, name),
                ws(rng),
                ws(rng),
                v,
                ws(rng)
            )
        })
        .collect();
    let mut line = format!("{}{{{}}}{}", ws(rng), body.join(","), ws(rng));
    if rng.gen_bool(0.05) {
        line.push_str(pick(rng, &["x", "}", "]", "{}", ",", "1", "\"", "[1]"]));
    }
    line
}

/// Bytes worth putting where another byte was.
const MUTATIONS: &[u8] = b"{}[]:,\"\\-+.eE0159 \tnulltruefalsex\x00\xc3\xa9";

fn mutate(rng: &mut StdRng, line: &str) -> String {
    let mut bytes = line.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    let at = rng.gen_range(0..bytes.len());
    match rng.gen_range(0u32..3) {
        0 => bytes[at] = *MUTATIONS.choose(rng).expect("non-empty"),
        1 => {
            bytes.remove(at);
        }
        _ => bytes.insert(at, *MUTATIONS.choose(rng).expect("non-empty")),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn truncate(rng: &mut StdRng, line: &str) -> String {
    let at = rng.gen_range(0..=line.len());
    String::from_utf8_lossy(&line.as_bytes()[..at]).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn decoder_matches_value_oracle(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let line = request_line(&mut rng);
        agree(&line)?;
        for _ in 0..8 {
            agree(&mutate(&mut rng, &line))?;
        }
        for _ in 0..4 {
            agree(&truncate(&mut rng, &line))?;
        }
    }

    #[test]
    fn decoder_matches_value_oracle_on_arbitrary_bytes(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(0usize..48);
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                if rng.gen_bool(0.7) {
                    *MUTATIONS.choose(&mut rng).expect("non-empty")
                } else {
                    rng.gen::<u8>()
                }
            })
            .collect();
        agree(&String::from_utf8_lossy(&bytes))?;
    }
}

#[test]
fn full_size_cutout_line_matches_value_oracle() {
    // The shape a joint request takes at crop 60: 5·60·60 pixels written
    // as shortest round-trip f32s, plus five dates.
    let mut rng = StdRng::seed_from_u64(11);
    let pixels: Vec<String> = (0..5 * 60 * 60)
        .map(|_| format!("{}", rng.gen_range(-1.0f32..1.0)))
        .collect();
    let line = format!(
        "{{\"id\":7,\"images\":[{}],\"dates\":[0.1,0.25,0.5,0.75,1]}}",
        pixels.join(",")
    );
    agree(&line).expect("decoder agrees with the oracle");
}
