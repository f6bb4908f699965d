//! The exact number scan behind [`Dataset::load_csv`](crate::Dataset::load_csv).
//!
//! [`scan_line`] reads a line of the shape `save_csv` writes,
//! `[0-9]{1,19}(,-?[0-9]+(\.[0-9]+)?)+` (Rust's `{}` never writes an
//! exponent), in one pass, eight digits at a time. Each coordinate comes
//! out with the bits `str::parse::<f64>` gives it:
//!
//! - **Clinger's fast path.** A mantissa `w ≤ 2⁵³` of at most 19
//!   significant digits with `k ≤ 22` fraction digits is `w / 10^k`. Both
//!   operands are exact doubles, so the one correctly rounded IEEE
//!   division is the correctly rounded value.
//! - **Eisel–Lemire** (Lemire, "Number Parsing at a Gigabyte per Second",
//!   arXiv:2101.11408) for any other nonzero mantissa of at most 19 digits
//!   with `k ≤ 27`. Every `5^-k` it needs is inside the algorithm's
//!   safe-exponent range `[-27, 55]`, so it always decides; the values lie
//!   in `[10⁻²⁷, 10¹⁹)`, so no subnormal or infinite case arises.
//! - **`str::parse`** on the field's own bytes for anything else.
//!
//! A line outside the grammar (spaces, `\r`, `+`, an exponent, a missing
//! digit, a 20-digit id, non-ASCII) is refused whole, and the loader parses
//! it with `split(',')`, `trim` and `str::parse` as before.

/// Digits a `u64` accumulator holds without overflow.
const MAX_DIGITS: usize = 19;
/// The largest mantissa Clinger's path takes: every integer up to it is a
/// double.
const CLINGER_MAX_MANTISSA: u64 = 1 << 53;
/// The powers of ten that are doubles: `5^22 < 2⁵³`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];
/// The longest fraction Eisel–Lemire is run on: `5^27 < 2⁶⁴`.
const LEMIRE_MAX_FRACTION: usize = 27;
/// `POW5[27 - k]` is `5^-k` as fast_float's 128-bit table holds it, as
/// `(high, low)` words.
const POW5: [(u64, u64); LEMIRE_MAX_FRACTION + 1] = pow5_table();

/// fast_float's rule for `q ∈ [-27, 0]`: `5^0` is `2¹²⁷`, and `5^q` for
/// `q < 0` is `⌊2^(z+127) / 5^-q⌋ + 1`, where `z` is the bit length of
/// `5^-q`, so the top bit is set.
const fn pow5_table() -> [(u64, u64); LEMIRE_MAX_FRACTION + 1] {
    let mut table = [(1 << 63, 0); LEMIRE_MAX_FRACTION + 1];
    let mut p: u64 = 1;
    let mut k = 1;
    while k <= LEMIRE_MAX_FRACTION {
        p *= 5;
        // 2^b / p by long division, one quotient bit at a time
        let b = 64 - p.leading_zeros() + 127;
        let (mut quotient, mut rest) = (0u128, 1u128);
        let mut i = 0;
        while i < b {
            quotient <<= 1;
            rest <<= 1;
            if rest >= p as u128 {
                rest -= p as u128;
                quotient |= 1;
            }
            i += 1;
        }
        let c = quotient + 1;
        table[LEMIRE_MAX_FRACTION - k] = ((c >> 64) as u64, c as u64);
        k += 1;
    }
    table
}

/// Scans `line` as `id,coord,…`, pushing the coordinates onto `row` and
/// returning the id, or `None` if the line is outside the grammar (`row`
/// then holds a prefix of them).
pub(crate) fn scan_line(line: &[u8], row: &mut Vec<f64>) -> Option<u64> {
    let mut id = 0;
    let rest = digits(line, &mut id);
    if !(1..=MAX_DIGITS).contains(&(line.len() - rest.len())) {
        return None;
    }
    let mut rest = rest.strip_prefix(b",")?;
    loop {
        let (v, tail) = scan_number(rest)?;
        row.push(v);
        match tail.split_first() {
            None => return Some(id),
            Some((b',', next)) => rest = next,
            Some(_) => return None,
        }
    }
}

/// Scans `-?[0-9]+(\.[0-9]+)?` from the front of `s`: the value and the
/// bytes after it.
fn scan_number(s: &[u8]) -> Option<(f64, &[u8])> {
    let (negative, body) = match s.split_first() {
        Some((b'-', body)) => (true, body),
        _ => (false, s),
    };
    let int = skip_zeros(body);
    let mut w = 0;
    let rest = digits(int, &mut w);
    if rest.len() == body.len() {
        return None;
    }
    let int_digits = int.len() - rest.len();
    // `sig` counts the digits from the first nonzero one, `k` the fraction's
    let (sig, k, rest) = match rest.strip_prefix(b".") {
        None => (int_digits, 0, rest),
        Some(frac) => {
            let from = if int_digits == 0 {
                skip_zeros(frac)
            } else {
                frac
            };
            let after = digits(from, &mut w);
            if after.len() == frac.len() {
                return None;
            }
            (
                int_digits + from.len() - after.len(),
                frac.len() - after.len(),
                after,
            )
        }
    };
    let v = match exact(w, sig, k) {
        Some(v) if negative => -v,
        Some(v) => v,
        None => std::str::from_utf8(&s[..s.len() - rest.len()])
            .ok()?
            .parse()
            .ok()?,
    };
    Some((v, rest))
}

/// `w · 10^-k` correctly rounded, for a mantissa of `sig` significant
/// digits, or `None` where neither fast path applies.
fn exact(w: u64, sig: usize, k: usize) -> Option<f64> {
    if sig > MAX_DIGITS {
        None
    } else if w <= CLINGER_MAX_MANTISSA && k < POW10.len() {
        Some(w as f64 / POW10[k])
    } else if w != 0 && k <= LEMIRE_MAX_FRACTION {
        Some(eisel_lemire(w, k))
    } else {
        None
    }
}

/// Eisel–Lemire for `w ≠ 0`, `k ≤ 27`, as Rust's `core::num::dec2flt`
/// runs it for a double, without the branches this range never takes.
fn eisel_lemire(w: u64, k: usize) -> f64 {
    const MANTISSA_BITS: u64 = 52;
    // the product's top bits are the mantissa, the hidden bit, a rounding
    // bit and a possible leading zero; the rest is below them
    const SHIFT: u64 = 64 - MANTISSA_BITS - 3;
    const LOW_MASK: u64 = (1 << SHIFT) - 1;
    let lz = w.leading_zeros();
    let w = w << lz;
    let (hi5, lo5) = POW5[LEMIRE_MAX_FRACTION - k];
    let (mut lo, mut hi) = mul(w, hi5);
    if hi & LOW_MASK == LOW_MASK {
        // the truncated low word could carry into the bits kept
        let (_, carry) = mul(w, lo5);
        lo = lo.wrapping_add(carry);
        if carry > lo {
            hi += 1;
        }
    }
    let upper = hi >> 63;
    let mut mantissa = hi >> (upper + SHIFT);
    // the biased exponent: ⌊log2(10^-k)⌋ + 63 by a fixed-point log, and
    // the normalisation shifts; positive, as the value is at least 10⁻²⁷
    let q = -(k as i32);
    let mut exponent = ((q * (152_170 + 65_536)) >> 16) + 63 + upper as i32 - lz as i32 + 1023;
    // Exactly halfway between two doubles, which only a power of five
    // that fits one word can give: round to even.
    if lo <= 1 && k <= 4 && mantissa & 3 == 1 && mantissa << (upper + SHIFT) == hi {
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2 << MANTISSA_BITS {
        mantissa = 1 << MANTISSA_BITS;
        exponent += 1;
    }
    mantissa &= !(1 << MANTISSA_BITS);
    f64::from_bits(mantissa | (exponent as u64) << MANTISSA_BITS)
}

/// The full product `a · b` as `(low, high)` words.
fn mul(a: u64, b: u64) -> (u64, u64) {
    let r = u128::from(a) * u128::from(b);
    (r as u64, (r >> 64) as u64)
}

/// `s` after its leading `'0'`s.
fn skip_zeros(s: &[u8]) -> &[u8] {
    let n = s.iter().take_while(|&&b| b == b'0').count();
    &s[n..]
}

/// Reads the decimal digits at the front of `s` into `w` (`w·10 + d`,
/// wrapping), eight at a time while eight are left, and returns the bytes
/// after them.
fn digits<'a>(mut s: &'a [u8], w: &mut u64) -> &'a [u8] {
    while let Some(chunk) = s.first_chunk::<8>() {
        let v = u64::from_le_bytes(*chunk);
        // every byte in b'0'..=b'9': neither `b - '0'` nor `b + 0x46`
        // reaches the byte's top bit
        if (v.wrapping_sub(0x3030_3030_3030_3030) | v.wrapping_add(0x4646_4646_4646_4646))
            & 0x8080_8080_8080_8080
            != 0
        {
            break;
        }
        *w = w.wrapping_mul(100_000_000).wrapping_add(eight_digits(v));
        s = &s[8..];
    }
    while let Some((&b, rest)) = s.split_first() {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        *w = w.wrapping_mul(10).wrapping_add(u64::from(d));
        s = rest;
    }
    s
}

/// The value of eight ASCII digits loaded little-endian, the first digit
/// in the low byte: pairs, then quads, then the whole, by multiply-adds.
fn eight_digits(v: u64) -> u64 {
    const MASK: u64 = 0x0000_00ff_0000_00ff;
    const MUL1: u64 = 100 + (1_000_000 << 32);
    const MUL2: u64 = 1 + (10_000 << 32);
    let v = v - 0x3030_3030_3030_3030;
    let v = v * 10 + (v >> 8);
    let v1 = (v & MASK).wrapping_mul(MUL1);
    let v2 = ((v >> 16) & MASK).wrapping_mul(MUL2);
    (v1.wrapping_add(v2) >> 32) & 0xffff_ffff
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole of `s` as one number, or `None` outside the grammar.
    fn scan_f64(s: &str) -> Option<f64> {
        match scan_number(s.as_bytes())? {
            (v, []) => Some(v),
            _ => None,
        }
    }

    /// `-?[0-9]+(\.[0-9]+)?`, checked without the scanner.
    fn in_grammar(s: &str) -> bool {
        let body = s.strip_prefix('-').unwrap_or(s);
        let (int, frac) = body
            .split_once('.')
            .map_or((body, None), |(i, f)| (i, Some(f)));
        let digits = |t: &str| !t.is_empty() && t.bytes().all(|b| b.is_ascii_digit());
        digits(int) && frac.is_none_or(digits)
    }

    /// The scanner gives std's bits for every string of the grammar, and
    /// refuses every other.
    fn assert_matches_std(s: &str) {
        match (scan_f64(s), s.parse::<f64>()) {
            (Some(v), Ok(want)) => assert_eq!(v.to_bits(), want.to_bits(), "{s:?}: {v:e}"),
            (Some(v), Err(_)) => panic!("{s:?}: scanned {v:e} where str::parse errs"),
            (None, _) => assert!(!in_grammar(s), "{s:?}: refused a string of the grammar"),
        }
    }

    #[test]
    fn pow5_table_matches_fast_float() {
        assert_eq!(POW5[27], (0x8000_0000_0000_0000, 0));
        assert_eq!(POW5[26], (0xcccc_cccc_cccc_cccc, 0xcccc_cccc_cccc_cccd));
        assert_eq!(POW5[25], (0xa3d7_0a3d_70a3_d70a, 0x3d70_a3d7_0a3d_70a4));
        assert_eq!(POW5[24], (0x8312_6e97_8d4f_df3b, 0x645a_1cac_0831_26ea));
        assert_eq!(POW5[0], (0x9e74_d1b7_91e0_7e48, 0x775e_a264_cf55_347e));
    }

    #[test]
    fn named_cases_match_str_parse() {
        let cases = [
            "0",
            "00",
            "-0",
            "-0.0",
            "0.000",
            "007.50",
            "1",
            "9007199254740992",
            "9007199254740993",
            "9007199254740995",
            "9007199254740993.0000",
            "9007199254740993.0001",
            "4503599627370497.5",
            "4503599627370497.50",
            "4503599627370497.500",
            "2251799813685248.25",
            "2251799813685248.75",
            "1125899906842624.125",
            "562949953421312.0625",
            // mantissas in (2⁵³, 2⁵⁴] that `w as f64 / 10^k` rounds twice
            "1305585773959.1493",
            "1340141935310810.9",
            "13018890676345.433",
            "18446744073709551615",
            "18446744073709551616",
            "9999999999999999999",
            "99999999999999999999",
            "12345678901234567890",
            "1.2345678901234567890",
            "0.1234567890123456789012",
            "0.12345678901234567890123",
            "0.1234567890123456789012345678",
            "0.000000000000000000000000001",
            "0.0000000000000000000000000001",
            "1.000000000000000000000000000",
            "0.1",
            "0.2",
            "0.3",
            "123.456",
            "-17.25",
            "1e308",
            "1e-324",
            "1E5",
            "+1.5",
            ".5",
            "5.",
            "-",
            "-.5",
            "--1",
            "1..2",
            "1.2.3",
            "",
            " 1",
            "1 ",
            "1\r",
            "inf",
            "-inf",
            "NaN",
            "0x10",
            "\u{661}",
        ];
        for s in cases {
            assert_matches_std(s);
        }
        // every fraction length through the Clinger and Eisel–Lemire limits
        for k in 0..32 {
            assert_matches_std(&format!("1.{}", "3".repeat(k)));
            assert_matches_std(&format!("0.{}7", "0".repeat(k)));
        }
    }

    /// A decimal exactly halfway between two doubles: `t / 2^j` for an odd
    /// `t` in `[2⁵³, 2⁵⁴)`, written out with its `j` fraction digits.
    fn halfway(t: u64, j: u32) -> String {
        let int = t >> j;
        if j == 0 {
            return int.to_string();
        }
        let frac = (t & ((1 << j) - 1)) * 5u64.pow(j);
        format!("{int}.{frac:0width$}", width = j as usize)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(1000))]

        #[test]
        fn scanner_matches_str_parse_bit_for_bit(
            seed in 0u64..u64::MAX,
            sign in 0u8..2,
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let minus = if sign == 0 { "" } else { "-" };
            // 1–20 digits, the point anywhere (or nowhere), leading zeros
            // as drawn; 17–20 digits twice as often
            for _ in 0..24 {
                let n = if rng.gen_bool(0.5) { rng.gen_range(17..=20) } else { rng.gen_range(1..=20) };
                let digits: String = (0..n).map(|_| char::from(b'0' + rng.gen_range(0..10u8))).collect();
                let at = rng.gen_range(0..=n);
                let s = if at == n { digits } else { format!("{}.{}", &digits[..at], &digits[at..]) };
                assert_matches_std(&format!("{minus}{s}"));
            }
            // halfway cases at and just above 2⁵³ and their scaled
            // copies, ending in 5 or 50…0, and a hair above them
            for j in 0..=4 {
                let t = rng.gen_range(1u64 << 52..1 << 53) * 2 + 1;
                let s = halfway(t, j);
                let pad = if j == 0 { "." } else { "" };
                assert_matches_std(&s);
                assert_matches_std(&format!("{minus}{s}{pad}{}", "0".repeat(rng.gen_range(1..4))));
                assert_matches_std(&format!("{s}{pad}{}1", "0".repeat(rng.gen_range(0..3))));
            }
            // `{}` of random doubles over the batch workloads' ranges:
            // anti-correlated in [0, 1], QWS attributes up to ~5000
            for _ in 0..1000 {
                let hi = [1.0, 100.0, 5000.0][rng.gen_range(0..3usize)];
                let v: f64 = rng.gen_range(0.0..hi);
                let s = format!("{minus}{v}");
                let got = scan_f64(&s).map(f64::to_bits);
                assert_eq!(got, Some(s.parse::<f64>().unwrap().to_bits()), "{s}");
            }
        }
    }

    #[test]
    fn lines_outside_the_grammar_are_refused() {
        let mut row = Vec::new();
        assert_eq!(scan_line(b"7,2.5,-3", &mut row), Some(7));
        assert_eq!(row, [2.5, -3.0]);
        assert_eq!(
            scan_line(b"9999999999999999999,0", &mut Vec::new()),
            Some(9_999_999_999_999_999_999)
        );
        for line in [
            &b""[..],
            b"1",
            b"1,",
            b",1",
            b"1,2,",
            b"1,,2",
            b"1 ,2",
            b" 1,2",
            b"1,2\r",
            b"1,2 ",
            b"+1,2",
            b"-1,2",
            b"1,+2",
            b"1,2e3",
            b"1,-",
            b"1,.5",
            b"1,5.",
            b"18446744073709551615,1",
            b"1,2\xc3\xa9",
        ] {
            assert_eq!(scan_line(line, &mut Vec::new()), None, "{line:?}");
        }
    }
}
