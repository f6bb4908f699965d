//! The exact number scanner behind [`Dataset::load_csv`](crate::Dataset::load_csv).
//!
//! [`scan_row`] reads one line of a split buffer in the shape `save_csv`
//! writes, `[0-9]{1,19}(,-?[0-9]+(\.[0-9]+)?)+` ended by `\n` or by the
//! end of the split (Rust's `{}` never writes an exponent). It walks the
//! buffer itself, one 8-byte word at a time, with no loop over bytes:
//!
//! - A SWAR non-digit mask and `trailing_zeros` give the length of each
//!   digit run. The run is read at that length by [`eight_digits`], one
//!   word per eight digits and one shift for the partial last word.
//! - The byte after a run is the field's terminator: `.`, `,`, `\n` or the
//!   split's end. The line ends at its last field's terminator.
//! - The split carries [`PADDING`] zero bytes after its end, so every word
//!   load is in bounds, and a zero byte ends every run.
//!
//! It accepts only the bytes `[0-9,.\-\n]`, so every line it accepts is
//! ASCII. Each coordinate, a mantissa `w` with `k` fraction digits, comes
//! out with the bits `str::parse::<f64>` gives it:
//!
//! - **Eisel–Lemire** (Lemire, "Number Parsing at a Gigabyte per Second",
//!   arXiv:2101.11408) for a nonzero `w` of at most 19 significant digits
//!   with `k ≤ 27`. Every `5^-k` it needs is inside the algorithm's
//!   safe-exponent range `[-27, 55]`, so it always decides; the values lie
//!   in `[10⁻²⁷, 10¹⁹)`, so no subnormal or infinite case arises. It also
//!   takes the mantissas Clinger's `w / 10^k` would: it gives the same
//!   bits, and one path has no data-dependent branch between two.
//! - **Zero** for `w = 0` (with its sign).
//! - **`str::parse`** on the field's own bytes for anything else.
//!
//! A line outside the grammar (spaces, `\r`, `+`, an exponent, a missing
//! digit, a 20-digit id, non-ASCII) is refused whole, and the loader parses
//! it with `split(',')`, `trim` and `str::parse` as before.

/// Zero bytes a split buffer carries after its end. A run starts at most
/// one byte past the end, and its first word load reads 8 bytes.
pub(crate) const PADDING: usize = 32;

/// Digits a `u64` accumulator holds without overflow.
const MAX_DIGITS: usize = 19;
/// Eight ASCII `'0'`s, as one word.
const ZEROS: u64 = 0x3030_3030_3030_3030;
/// `10^n` for the digits of a partial word.
const POW10: [u64; 8] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];
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

/// Scans the line at `buf[at..]` as `id,coord,…`, ended by `\n` or by
/// `end`, pushing the coordinates onto `row`. Returns the id and the
/// offset after the line, or `None` if the line is outside the grammar
/// (`row` then holds a prefix of them).
///
/// `buf[end..]` must be at least [`PADDING`] zero bytes.
pub(crate) fn scan_row(
    buf: &[u8],
    at: usize,
    end: usize,
    row: &mut Vec<f64>,
) -> Option<(u64, usize)> {
    let (n, id) = digit_run(buf, at, 0);
    if !(1..=MAX_DIGITS).contains(&n) {
        return None;
    }
    let mut at = at + n;
    loop {
        if buf[at] != b',' {
            return None;
        }
        let (v, after) = scan_number(buf, at + 1)?;
        row.push(v);
        at = after;
        match buf[at] {
            b'\n' => return Some((id, at + 1)),
            _ if at == end => return Some((id, at)),
            // a `,` goes on to the next field; any other byte is refused
            _ => {}
        }
    }
}

/// Scans `-?[0-9]+(\.[0-9]+)?` at `buf[at..]`: the value and the offset
/// after it. `buf` ends in a zero byte, which no run reads past.
fn scan_number(buf: &[u8], at: usize) -> Option<(f64, usize)> {
    let negative = buf[at] == b'-';
    let int_at = at + usize::from(negative);
    let (int_digits, w) = digit_run(buf, int_at, 0);
    if int_digits == 0 {
        return None;
    }
    let mut after = int_at + int_digits;
    // `k` counts the fraction's digits
    let (k, w) = if buf[after] == b'.' {
        let (k, w) = digit_run(buf, after + 1, w);
        if k == 0 {
            return None;
        }
        after += 1 + k;
        (k, w)
    } else {
        (0, w)
    };
    // the significant digits start at the first nonzero one; leading
    // zeros matter only where they could bring the count under the limit
    let mut sig = int_digits + k;
    if sig > MAX_DIGITS {
        let mut zeros = leading_zeros(buf, int_at, int_digits);
        if zeros == int_digits {
            zeros += leading_zeros(buf, int_at + int_digits + 1, k);
        }
        sig -= zeros;
    }
    let v = match exact(w, sig, k) {
        Some(v) if negative => -v,
        Some(v) => v,
        None => std::str::from_utf8(&buf[at..after]).ok()?.parse().ok()?,
    };
    Some((v, after))
}

/// `w · 10^-k` correctly rounded, for a mantissa of `sig` significant
/// digits, or `None` outside Eisel–Lemire's range.
fn exact(w: u64, sig: usize, k: usize) -> Option<f64> {
    if sig > MAX_DIGITS || k > LEMIRE_MAX_FRACTION {
        None
    } else if w == 0 {
        Some(0.0)
    } else {
        Some(eisel_lemire(w, k))
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

/// The eight bytes at `buf[at..]`, the first in the low byte.
#[inline]
fn word(buf: &[u8], at: usize) -> u64 {
    let mut bytes = [0; 8];
    bytes.copy_from_slice(&buf[at..at + 8]);
    u64::from_le_bytes(bytes)
}

/// The run of decimal digits at `buf[at..]`: its length, and `w` with the
/// run's digits appended (`w·10ⁿ + run`, wrapping).
#[inline]
fn digit_run(buf: &[u8], mut at: usize, mut w: u64) -> (usize, u64) {
    let start = at;
    loop {
        let v = word(buf, at);
        // a byte outside b'0'..=b'9' sets its top bit in `b - '0'` or in
        // `b + 0x46`; the digits below the first such byte carry nothing
        // into it
        let non_digits =
            (v.wrapping_sub(ZEROS) | v.wrapping_add(0x4646_4646_4646_4646)) & 0x8080_8080_8080_8080;
        if non_digits == 0 {
            w = w.wrapping_mul(100_000_000).wrapping_add(eight_digits(v));
            at += 8;
            continue;
        }
        // the partial word: its `n` digits shifted to the top and `'0'`s
        // shifted in below them, with no branch on `n`
        let n = (non_digits.trailing_zeros() / 8) as usize;
        let v = v.checked_shl(64 - 8 * n as u32).unwrap_or(0) | ZEROS >> (8 * n);
        w = w.wrapping_mul(POW10[n]).wrapping_add(eight_digits(v));
        return (at + n - start, w);
    }
}

/// How many of the `len` digits at `buf[at..]` lead with `'0'`. The byte
/// after them is not a digit, so the count stops there at the latest.
fn leading_zeros(buf: &[u8], mut at: usize, len: usize) -> usize {
    let mut zeros = 0;
    while zeros < len {
        let z = ((word(buf, at) ^ ZEROS).trailing_zeros() / 8) as usize;
        zeros += z;
        if z < 8 {
            break;
        }
        at += 8;
    }
    zeros
}

/// The value of eight ASCII digits loaded little-endian, the first digit
/// in the low byte: pairs, then quads, then the whole, by multiply-adds.
fn eight_digits(v: u64) -> u64 {
    const MASK: u64 = 0x0000_00ff_0000_00ff;
    const MUL1: u64 = 100 + (1_000_000 << 32);
    const MUL2: u64 = 1 + (10_000 << 32);
    let v = v - ZEROS;
    let v = v * 10 + (v >> 8);
    let v1 = (v & MASK).wrapping_mul(MUL1);
    let v2 = ((v >> 16) & MASK).wrapping_mul(MUL2);
    (v1.wrapping_add(v2) >> 32) & 0xffff_ffff
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `bytes` followed by the zero padding a split carries.
    fn padded(bytes: &[u8]) -> Vec<u8> {
        [bytes, &[0; PADDING]].concat()
    }

    /// The whole of `s` as one number, or `None` outside the grammar.
    fn scan_f64(s: &str) -> Option<f64> {
        match scan_number(&padded(s.as_bytes()), 0)? {
            (v, after) if after == s.len() => Some(v),
            _ => None,
        }
    }

    /// The whole of `line`, the last of its split, as one row: its id,
    /// or `None` if the scanner refused it.
    fn scan_whole_line(line: &[u8], row: &mut Vec<f64>) -> Option<u64> {
        match scan_row(&padded(line), 0, line.len(), row)? {
            (id, after) if after == line.len() => Some(id),
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
        // every fraction length through Eisel–Lemire's limit and past it
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
        assert_eq!(scan_whole_line(b"7,2.5,-3", &mut row), Some(7));
        assert_eq!(row, [2.5, -3.0]);
        assert_eq!(
            scan_whole_line(b"9999999999999999999,0", &mut Vec::new()),
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
            assert_eq!(scan_whole_line(line, &mut Vec::new()), None, "{line:?}");
        }
    }

    /// One line's scan: the id and every coordinate's bits, or `None`.
    type Scanned = Option<(u64, Vec<u64>)>;

    /// What the loader must make of one line: `None` outside the grammar,
    /// where the scanner is to refuse it, else the id and `str::parse`'s
    /// bits of every coordinate.
    fn reference_row(line: &[u8]) -> Scanned {
        let line = std::str::from_utf8(line).ok()?;
        let mut fields = line.split(',');
        let id = fields.next()?;
        let coords: Vec<&str> = fields.collect();
        let id_ok = (1..=MAX_DIGITS).contains(&id.len()) && id.bytes().all(|b| b.is_ascii_digit());
        if !id_ok || coords.is_empty() || !coords.iter().all(|f| in_grammar(f)) {
            return None;
        }
        let bits = coords.iter().map(|f| f.parse::<f64>().unwrap().to_bits());
        Some((id.parse().unwrap(), bits.collect()))
    }

    /// `reference_row` of every line `split_terminator('\n')` cuts.
    fn reference_split(text: &[u8]) -> Vec<Scanned> {
        let mut lines: Vec<&[u8]> = text.split(|&b| b == b'\n').collect();
        if text.is_empty() || text.ends_with(b"\n") {
            lines.pop();
        }
        lines.into_iter().map(reference_row).collect()
    }

    /// Walks `text` as the loader walks a split: each line's scan, and a
    /// refused line skipped to its `\n`.
    fn scan_split(text: &[u8]) -> Vec<Scanned> {
        let buf = padded(text);
        let (mut at, mut out) = (0, Vec::new());
        while at < text.len() {
            let mut row = Vec::new();
            out.push(match scan_row(&buf, at, text.len(), &mut row) {
                Some((id, next)) => {
                    at = next;
                    Some((id, row.iter().map(|v| v.to_bits()).collect()))
                }
                None => {
                    at = text[at..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(text.len(), |nl| at + nl + 1);
                    None
                }
            });
        }
        out
    }

    /// Random decimal digits, as many as drawn from `len`, the first of
    /// them nonzero if `lead`.
    fn random_digits(
        rng: &mut rand::rngs::StdRng,
        len: std::ops::RangeInclusive<usize>,
        lead: bool,
    ) -> String {
        use rand::Rng;
        (0..rng.gen_range(len))
            .map(|i| char::from(b'0' + rng.gen_range(u8::from(lead && i == 0)..10)))
            .collect()
    }

    /// A random line of the grammar: an id of 1–19 digits (8–19 half the
    /// time) and 1–6 coordinates of the shapes the scanner must read
    /// exactly.
    fn random_line(rng: &mut rand::rngs::StdRng) -> String {
        use rand::Rng;
        let id_digits = if rng.gen_bool(0.5) { 8..=19 } else { 1..=19 };
        let mut line = random_digits(rng, id_digits, false);
        for _ in 0..rng.gen_range(1..=6) {
            let minus = if rng.gen_bool(0.3) { "-" } else { "" };
            let field = match rng.gen_range(0..5) {
                // `{}` of a double over the batch workloads' ranges
                0 => {
                    let hi = [1.0, 100.0, 5000.0][rng.gen_range(0..3usize)];
                    format!("{}", rng.gen_range(0.0..hi))
                }
                // a leading-zero fraction of 17–21 significant digits
                1 => format!(
                    "0.{}{}",
                    "0".repeat(rng.gen_range(0..6)),
                    random_digits(rng, 17..=21, true)
                ),
                // an 8–19-digit integer part, with or without a fraction
                2 => {
                    let int = random_digits(rng, 8..=19, false);
                    match rng.gen_range(0..13) {
                        0 => int,
                        k => format!("{int}.{}", random_digits(rng, k..=k, false)),
                    }
                }
                // zeros, which `-` makes negative
                3 => ["0", "0.0", "00.000", "0.0000000000000000000000000000"]
                    [rng.gen_range(0..4usize)]
                .to_string(),
                // 1–24 digits with the point anywhere inside them
                _ => {
                    let digits = random_digits(rng, 1..=24, false);
                    match rng.gen_range(0..digits.len()) {
                        0 => digits,
                        at => format!("{}.{}", &digits[..at], &digits[at..]),
                    }
                }
            };
            line.push_str(&format!(",{minus}{field}"));
        }
        line
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// The scanner walking a split buffer agrees with `str::parse`,
        /// bit for bit on every line of the grammar and refusal for
        /// refusal on every other, with the line ends where `\n` puts them.
        #[test]
        fn split_scanner_matches_str_parse_line_for_line(seed in 0u64..u64::MAX) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let lines: Vec<String> = (0..rng.gen_range(1..=3)).map(|_| random_line(&mut rng)).collect();
            let mut text = lines.join("\n").into_bytes();
            // without a final `\n` the last field ends at the split's end,
            // and its word loads reach into the padding
            if rng.gen_bool(0.5) {
                text.push(b'\n');
            }
            let scanned = scan_split(&text);
            assert!(scanned.iter().all(Option::is_some), "{lines:?}");
            assert_eq!(scanned, reference_split(&text));
            // a stray byte put before, or in place of, each byte of the
            // first line, and after its last
            let strays: [&[u8]; 11] = [
                b"\r", b" ", b"+", b"e", "\u{e9}".as_bytes(), b"\xff", b"\0", b",", b".", b"-", b"\n",
            ];
            for stray in strays {
                for i in 0..=lines[0].len() {
                    for cut in [i..i, i..(i + 1).min(lines[0].len())] {
                        let mut hostile = text.clone();
                        hostile.splice(cut, stray.iter().copied());
                        assert_eq!(
                            scan_split(&hostile),
                            reference_split(&hostile),
                            "{:?}",
                            String::from_utf8_lossy(&hostile)
                        );
                    }
                }
            }
        }
    }
}
