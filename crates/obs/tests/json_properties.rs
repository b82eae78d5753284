//! Property tests for the hand-rolled JSON codec: serialized trees parse
//! back to themselves, escaped and raw spellings of a string agree,
//! arbitrary input never panics, and decoding stays linear in the input
//! length.

use flow3d_obs::Json;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::time::{Duration, Instant};

/// Characters that exercise every escaping path: quotes, backslashes,
/// the solidus, C0 controls, DEL, and one-, two-, three- and four-byte
/// UTF-8 (including the scalars next to the surrogate range).
const PALETTE: &str = "aZ0 \"\\/\n\r\t\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}éß中\u{d7ff}\u{e000}\u{fffd}\u{ffff}😀𝄞\u{10ffff}";

/// A string of up to 24 palette characters.
struct ArbString;

impl Strategy for ArbString {
    type Value = String;

    fn new_value(&self, rng: &mut TestRng) -> String {
        let palette: Vec<char> = PALETTE.chars().collect();
        (0..rng.below(25))
            .map(|_| palette[rng.below(palette.len() as u64) as usize])
            .collect()
    }
}

/// A finite number: small integers, fractions, extreme exponents and
/// negative zero, all of which must print and parse back bit-exactly.
fn arb_number(rng: &mut TestRng) -> f64 {
    match rng.below(5) {
        0 => rng.below(1 << 20) as f64 - (1 << 19) as f64,
        1 => (rng.unit_f64() - 0.5) * 1e6,
        2 => f64::from_bits(rng.next_u64() & !(0x7ff << 52) | (rng.below(0x7ff) << 52)),
        3 => [0.0, -0.0, f64::MIN_POSITIVE, 5e-324, f64::MAX, -f64::MAX][rng.below(6) as usize],
        _ => (1u64 << 53) as f64,
    }
}

/// A random JSON tree at most `depth` containers deep.
struct ArbJson {
    depth: u32,
}

impl Strategy for ArbJson {
    type Value = Json;

    fn new_value(&self, rng: &mut TestRng) -> Json {
        let kinds = if self.depth == 0 { 4 } else { 6 };
        let inner = ArbJson {
            depth: self.depth.saturating_sub(1),
        };
        match rng.below(kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            2 => Json::num(arb_number(rng)),
            3 => Json::Str(ArbString.new_value(rng)),
            4 => Json::Arr((0..rng.below(5)).map(|_| inner.new_value(rng)).collect()),
            _ => Json::Obj(
                (0..rng.below(5))
                    .map(|_| (ArbString.new_value(rng), inner.new_value(rng)))
                    .collect(),
            ),
        }
    }
}

/// `s` as a JSON string literal with every character spelled as a `\u`
/// escape (astral characters as surrogate pairs).
fn all_escaped(s: &str) -> String {
    let mut out = String::from("\"");
    for unit in s.encode_utf16() {
        out.push_str(&format!("\\u{unit:04X}"));
    }
    out.push('"');
    out
}

/// Bytes drawn from the JSON alphabet, so soup reaches deep into the
/// parser rather than failing on the first byte.
const JSONISH: &[u8] = b"[]{}\",:\\/u0123456789abcdefABCDEF-+.eE truenlsx\n\t";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn trees_round_trip_through_text(tree in ArbJson { depth: 4 }) {
        let text = tree.to_string();
        let back = Json::parse(&text).unwrap_or_else(|e| panic!("{e} in {text:?}"));
        prop_assert_eq!(&back, &tree);
        // Serialization is canonical: a second trip prints the same bytes.
        prop_assert_eq!(back.to_string(), text);
    }

    #[test]
    fn escaped_and_raw_strings_decode_alike(s in ArbString) {
        let raw = Json::Str(s.clone()).to_string();
        prop_assert_eq!(Json::parse(&raw).unwrap(), Json::Str(s.clone()));
        prop_assert_eq!(Json::parse(&all_escaped(&s)).unwrap(), Json::Str(s));
    }

    #[test]
    fn byte_soup_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn jsonish_soup_never_panics(
        picks in proptest::collection::vec(0usize..JSONISH.len(), 0..256)
    ) {
        let text: String = picks.iter().map(|&i| JSONISH[i] as char).collect();
        if let Ok(v) = Json::parse(&text) {
            // Whatever parses must re-serialize to something that parses
            // back to the same value.
            prop_assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        }
    }
}

/// Decoding is linear: a 4 MiB one-string document (mixed ASCII,
/// multi-byte UTF-8 and escapes) parses well inside 2 s even unoptimized.
/// A parser that rescans the rest of the input per character would take
/// hours here.
#[test]
fn four_mib_string_decodes_in_linear_time() {
    let chunk = "placement row 17: cell é 中 😀 \\\"q\\\" \\n \\u00e9 \\ud83d\\ude00 ";
    let mut text = String::from("\"");
    while text.len() < 4 << 20 {
        text.push_str(chunk);
    }
    text.push('"');

    let start = Instant::now();
    let value = Json::parse(&text).unwrap();
    let parse = start.elapsed();
    assert!(
        parse < Duration::from_secs(2),
        "parsing {} bytes took {parse:?}",
        text.len()
    );

    let decoded = value.as_str().unwrap();
    assert!(decoded.starts_with("placement row 17: cell é 中 😀 \"q\" \n é 😀 "));
    let start = Instant::now();
    let printed = value.to_string();
    let print = start.elapsed();
    assert!(print < Duration::from_secs(2), "printing took {print:?}");
    assert_eq!(Json::parse(&printed).unwrap(), value);
}
