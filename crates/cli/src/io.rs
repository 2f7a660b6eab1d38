//! Stream-file parsing: whitespace-separated records, `#` comments and
//! blank lines ignored. The input grammar is stated once, in README.md
//! beside the command-line examples.
//!
//! Every reader runs on one byte-level scanner. It reads the input a
//! fixed chunk at a time and keeps only the unfinished last line of a
//! chunk, never the whole input. A plain `digits digits` line is parsed
//! in the same pass that finds its end. Any other line is checked as
//! UTF-8, cut at `#`, trimmed and tokenised through `str`, as the
//! parsers the scanner replaced did. The differential tests below pin
//! every reader to those parsers: same values, same errors, same first
//! error.

use hindex_stream::Paper;
use std::io::{ErrorKind, Read};

/// Bytes requested from the reader per call. The buffer grows past
/// this only to hold a single line longer than a chunk.
const CHUNK: usize = 64 * 1024;

/// What `BufRead::lines` reports for a line that is not UTF-8.
const NOT_UTF8: &str = "stream did not contain valid UTF-8";

/// One meaningful line: comment cut, whitespace trimmed, never empty,
/// always valid UTF-8.
struct Line<'a> {
    /// 1-based line number in the input.
    no: usize,
    bytes: &'a [u8],
    /// The two values of a plain line (see [`plain`]); `None` for
    /// every other line.
    pair: Option<(u64, u64)>,
}

impl<'a> Line<'a> {
    /// The scanner only hands out slices of UTF-8 it has checked (or
    /// that are digits and a space), so this cannot fail.
    fn text(&self) -> &'a str {
        std::str::from_utf8(self.bytes).expect("the scanner yields only valid UTF-8")
    }
}

/// Parses the common record in one pass: at the start of `bytes`, a
/// plain line of two runs of ASCII digits separated by one space and
/// ended by `\n`. Returns both values and the line's length without its
/// `\n`; `None` for any other line, which then takes the general path.
fn plain(bytes: &[u8]) -> Option<(u64, u64, usize)> {
    let (first, i) = digit_run(bytes)?;
    if bytes.get(i) != Some(&b' ') {
        return None;
    }
    let (second, len) = digit_run(&bytes[i + 1..])?;
    let end = i + 1 + len;
    (bytes.get(end) == Some(&b'\n')).then_some((first, second, end))
}

/// A leading run of 1 to 19 ASCII digits (so it fits in a `u64`): its
/// value and length.
fn digit_run(bytes: &[u8]) -> Option<(u64, usize)> {
    let len = bytes
        .iter()
        .take(20)
        .take_while(|b| b.is_ascii_digit())
        .count();
    if len == 0 || len == 20 {
        return None;
    }
    let value = bytes[..len]
        .iter()
        .fold(0, |v, &b| v * 10 + u64::from(b - b'0'));
    Some((value, len))
}

/// Classifies one raw line (without its `\n`) as a [`Line`], or `None`
/// when only whitespace and comment remain.
fn meaningful(raw: &[u8], no: usize) -> Result<Option<Line<'_>>, String> {
    let text =
        std::str::from_utf8(raw).map_err(|_| format!("I/O error on line {no}: {NOT_UTF8}"))?;
    let bytes = text.split('#').next().unwrap_or("").trim().as_bytes();
    let line = Line {
        no,
        bytes,
        pair: None,
    };
    Ok((!bytes.is_empty()).then_some(line))
}

/// Hands every meaningful line of `input` to `each`, in order, and
/// stops at the first error.
fn scan(
    input: &mut dyn Read,
    mut each: impl FnMut(Line<'_>) -> Result<(), String>,
) -> Result<(), String> {
    let mut buf = vec![0u8; CHUNK];
    // `buf[..filled]` holds the unfinished line carried over (no `\n`)
    // followed by the bytes of the latest read.
    let mut filled = 0;
    let mut no = 0;
    loop {
        if filled == buf.len() {
            buf.resize(2 * buf.len(), 0);
        }
        let n = match input.read(&mut buf[filled..]) {
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("I/O error on line {}: {e}", no + 1)),
        };
        let mut start = 0;
        let mut search = filled;
        filled += n;
        loop {
            // `start` is at the start of a line.
            while let Some((first, second, len)) = plain(&buf[start..filled]) {
                no += 1;
                let bytes = &buf[start..start + len];
                let pair = Some((first, second));
                each(Line { no, bytes, pair })?;
                start += len + 1;
            }
            search = search.max(start);
            let Some(at) = buf[search..filled].iter().position(|&b| b == b'\n') else {
                break;
            };
            no += 1;
            if let Some(line) = meaningful(&buf[start..search + at], no)? {
                each(line)?;
            }
            start = search + at + 1;
        }
        if n == 0 {
            if start < filled {
                if let Some(line) = meaningful(&buf[start..filled], no + 1)? {
                    each(line)?;
                }
            }
            return Ok(());
        }
        buf.copy_within(start..filled, 0);
        filled -= start;
    }
}

fn trailing(line: &Line<'_>) -> String {
    format!("line {}: trailing tokens in `{}`", line.no, line.text())
}

/// Parses one `paper_id delta` record.
fn update(line: &Line<'_>) -> Result<(u64, i64), String> {
    if let Some((paper, delta)) = line.pair {
        if let Ok(delta) = i64::try_from(delta) {
            return Ok((paper, delta));
        }
    }
    let bad = || {
        format!(
            "line {}: expected `paper delta`, got `{}`",
            line.no,
            line.text()
        )
    };
    let mut parts = line.text().split_whitespace();
    let paper = parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad)?;
    let delta = parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad)?;
    if parts.next().is_some() {
        return Err(trailing(line));
    }
    Ok((paper, delta))
}

/// Parses an aggregate stream: one citation count per line.
///
/// # Errors
///
/// Reports the offending line number on malformed input.
pub fn read_counts(input: &mut dyn Read) -> Result<Vec<u64>, String> {
    let mut out = Vec::new();
    scan(input, |line| {
        let v = line
            .text()
            .parse()
            .map_err(|_| format!("line {}: expected a count, got `{}`", line.no, line.text()))?;
        out.push(v);
        Ok(())
    })?;
    Ok(out)
}

/// Parses a turnstile stream: `paper_id delta` per line, where delta
/// may be negative.
///
/// # Errors
///
/// Reports the offending line number on malformed input.
pub fn read_updates(input: &mut dyn Read) -> Result<Vec<(u64, i64)>, String> {
    let mut out = Vec::new();
    scan(input, |line| {
        out.push(update(&line)?);
        Ok(())
    })?;
    Ok(out)
}

/// Parses a cash-register stream (`paper_id delta` per line, no
/// negative delta) straight into the engine's `(paper, delta)` items.
///
/// # Errors
///
/// Reports the first malformed line, as [`read_updates`] does; failing
/// that, returns `negative` if any delta is negative.
pub fn read_cash_updates(input: &mut dyn Read, negative: &str) -> Result<Vec<(u64, u64)>, String> {
    let mut out = Vec::new();
    let mut saw_negative = false;
    scan(input, |line| {
        let (paper, delta) = update(&line)?;
        // A malformed line further on still wins, so keep scanning.
        match u64::try_from(delta) {
            Ok(delta) => out.push((paper, delta)),
            Err(_) => saw_negative = true,
        }
        Ok(())
    })?;
    if saw_negative {
        return Err(negative.to_string());
    }
    Ok(out)
}

/// Parses a paper stream: `paper_id author[,author…] citations` per
/// line.
///
/// # Errors
///
/// Reports the offending line number on malformed input.
pub fn read_papers(input: &mut dyn Read) -> Result<Vec<Paper>, String> {
    let mut out = Vec::new();
    scan(input, |line| {
        let no = line.no;
        let bad = || {
            format!(
                "line {no}: expected `paper authors citations`, got `{}`",
                line.text()
            )
        };
        let mut parts = line.text().split_whitespace();
        let paper = parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad)?;
        let authors_field = parts.next().ok_or_else(bad)?;
        let citations = parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad)?;
        if parts.next().is_some() {
            return Err(trailing(&line));
        }
        // `split` yields at least one field, so every paper has an author.
        let authors = authors_field
            .split(',')
            .map(|a| {
                a.parse()
                    .map_err(|_| format!("line {no}: bad author id `{a}`"))
            })
            .collect::<Result<Vec<u64>, String>>()?;
        out.push(Paper::with_authors(paper, &authors, citations));
        Ok(())
    })?;
    Ok(out)
}

/// The `str`-based parsers the scanner replaced, kept as the reference
/// the differential tests compare against.
#[cfg(test)]
mod oracle {
    use hindex_stream::Paper;
    use std::io::{BufRead, BufReader, Read};

    /// Iterates the meaningful lines of a reader.
    fn lines(input: &mut dyn Read) -> impl Iterator<Item = Result<(usize, String), String>> + '_ {
        BufReader::new(input)
            .lines()
            .enumerate()
            .filter_map(|(no, line)| match line {
                Err(e) => Some(Err(format!("I/O error on line {}: {e}", no + 1))),
                Ok(l) => {
                    let trimmed = l.split('#').next().unwrap_or("").trim().to_string();
                    if trimmed.is_empty() {
                        None
                    } else {
                        Some(Ok((no + 1, trimmed)))
                    }
                }
            })
    }

    pub fn read_counts(input: &mut dyn Read) -> Result<Vec<u64>, String> {
        let mut out = Vec::new();
        for item in lines(input) {
            let (no, line) = item?;
            let v: u64 = line
                .parse()
                .map_err(|_| format!("line {no}: expected a count, got `{line}`"))?;
            out.push(v);
        }
        Ok(out)
    }

    pub fn read_updates(input: &mut dyn Read) -> Result<Vec<(u64, i64)>, String> {
        let mut out = Vec::new();
        for item in lines(input) {
            let (no, line) = item?;
            let mut parts = line.split_whitespace();
            let paper: u64 = parts
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| format!("line {no}: expected `paper delta`, got `{line}`"))?;
            let delta: i64 = parts
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| format!("line {no}: expected `paper delta`, got `{line}`"))?;
            if parts.next().is_some() {
                return Err(format!("line {no}: trailing tokens in `{line}`"));
            }
            out.push((paper, delta));
        }
        Ok(out)
    }

    /// What the cash-register commands did before `read_cash_updates`:
    /// parse everything, then check signs.
    pub fn read_cash_updates(
        input: &mut dyn Read,
        negative: &str,
    ) -> Result<Vec<(u64, u64)>, String> {
        let raw = read_updates(input)?;
        if raw.iter().any(|&(_, d)| d < 0) {
            return Err(negative.into());
        }
        Ok(raw.iter().map(|&(p, d)| (p, d as u64)).collect())
    }

    pub fn read_papers(input: &mut dyn Read) -> Result<Vec<Paper>, String> {
        let mut out = Vec::new();
        for item in lines(input) {
            let (no, line) = item?;
            let mut parts = line.split_whitespace();
            let bad = || format!("line {no}: expected `paper authors citations`, got `{line}`");
            let paper: u64 = parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad)?;
            let authors_field = parts.next().ok_or_else(bad)?;
            let citations: u64 = parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad)?;
            if parts.next().is_some() {
                return Err(format!("line {no}: trailing tokens in `{line}`"));
            }
            let authors: Result<Vec<u64>, String> = authors_field
                .split(',')
                .map(|a| {
                    a.parse::<u64>()
                        .map_err(|_| format!("line {no}: bad author id `{a}`"))
                })
                .collect();
            let authors = authors?;
            if authors.is_empty() {
                return Err(format!("line {no}: a paper needs at least one author"));
            }
            out.push(Paper::with_authors(paper, &authors, citations));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hindex_stream::AuthorId;
    use proptest::prelude::ProptestConfig;

    fn cursor(s: &str) -> std::io::Cursor<Vec<u8>> {
        std::io::Cursor::new(s.as_bytes().to_vec())
    }

    #[test]
    fn counts_with_comments_and_blanks() {
        let mut input = cursor("10\n\n# header\n20 # trailing\n0\n");
        assert_eq!(read_counts(&mut input).unwrap(), vec![10, 20, 0]);
    }

    #[test]
    fn counts_bad_line_reports_number() {
        let mut input = cursor("1\nnope\n");
        let err = read_counts(&mut input).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn updates_parse() {
        let mut input = cursor("5 1\n5 3\n9 -2\n");
        assert_eq!(
            read_updates(&mut input).unwrap(),
            vec![(5, 1), (5, 3), (9, -2)]
        );
    }

    #[test]
    fn updates_trailing_tokens_rejected() {
        let mut input = cursor("5 1 7\n");
        assert!(read_updates(&mut input).unwrap_err().contains("trailing"));
    }

    #[test]
    fn papers_parse_multi_author() {
        let mut input = cursor("0 3 10\n1 4,5 7\n");
        let papers = read_papers(&mut input).unwrap();
        assert_eq!(papers.len(), 2);
        assert_eq!(papers[1].authors, vec![AuthorId(4), AuthorId(5)]);
        assert_eq!(papers[1].citations, 7);
    }

    #[test]
    fn papers_bad_author_rejected() {
        let mut input = cursor("0 x,2 5\n");
        assert!(read_papers(&mut input)
            .unwrap_err()
            .contains("bad author id"));
    }

    #[test]
    fn cash_updates_reject_negatives_after_every_line_parses() {
        let neg = "no negative deltas";
        assert_eq!(
            read_cash_updates(&mut cursor("1 2\n3 -0\n"), neg),
            Ok(vec![(1, 2), (3, 0)])
        );
        assert_eq!(
            read_cash_updates(&mut cursor("1 -2\n3 4\n"), neg),
            Err(neg.to_string())
        );
        let err = read_cash_updates(&mut cursor("1 -2\n3 x\n"), neg).unwrap_err();
        assert!(err.starts_with("line 2: expected"), "{err}");
    }

    /// Hands out at most `step` bytes per call, so lines straddle
    /// reads, and fails every call once `fail_at` bytes are spent.
    struct Dribble<'a> {
        bytes: &'a [u8],
        step: usize,
        fail_at: Option<usize>,
        spent: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.fail_at.is_some_and(|at| self.spent >= at) {
                return Err(std::io::Error::other("disk on fire"));
            }
            let room = self.fail_at.map_or(usize::MAX, |at| at - self.spent);
            let n = self.step.min(out.len()).min(self.bytes.len()).min(room);
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            self.spent += n;
            Ok(n)
        }
    }

    const NEGATIVE: &str = "negative delta";

    /// Runs all four readers and their oracles on `bytes`, feeding the
    /// scanner `step` bytes per read.
    fn assert_matches_oracle(bytes: &[u8], step: usize, fail_at: Option<usize>) {
        let fresh = |s: usize| Dribble {
            bytes,
            step: s,
            fail_at,
            spent: 0,
        };
        let shown = String::from_utf8_lossy(bytes);
        assert_eq!(
            read_counts(&mut fresh(step)),
            oracle::read_counts(&mut fresh(usize::MAX)),
            "counts: {shown:?}"
        );
        assert_eq!(
            read_updates(&mut fresh(step)),
            oracle::read_updates(&mut fresh(usize::MAX)),
            "updates: {shown:?}"
        );
        assert_eq!(
            read_cash_updates(&mut fresh(step), NEGATIVE),
            oracle::read_cash_updates(&mut fresh(usize::MAX), NEGATIVE),
            "cash updates: {shown:?}"
        );
        assert_eq!(
            read_papers(&mut fresh(step)).map(|p| format!("{p:?}")),
            oracle::read_papers(&mut fresh(usize::MAX)).map(|p| format!("{p:?}")),
            "papers: {shown:?}"
        );
    }

    #[test]
    fn named_edge_cases_match_the_oracle() {
        let cases: &[&[u8]] = &[
            b"",
            b"\n\n",
            b"# only a comment\n",
            b"1 2\r\n3 4\r\n",
            b"1 2\r\n3 4",
            b"1\t2\n3 \t 4 # c\n",
            b"1\x0B2\n",
            b"1\x0C2\x0B\n",
            b"\x0B7\n",
            "1\u{a0}2\n".as_bytes(),
            "1\u{3000}2\u{3000}3\n".as_bytes(),
            "\u{85}5 6\u{a0}#x\n".as_bytes(),
            "1 2 # caf\u{e9}\n".as_bytes(),
            b"+1 +2\n",
            b"-0 -0\n",
            b"1 -0\n",
            b"18446744073709551615 9223372036854775807\n",
            b"18446744073709551616 1\n",
            b"1 9223372036854775808\n",
            b"1 -9223372036854775808\n",
            b"1 -9223372036854775809\n",
            b"99999999999999999999 1\n",
            b"9999999999999999999 9999999999999999999\n",
            b"1 9999999999999999999\n",
            b"1 2\n3\n4 5 6\n",
            b"000000000000000000000000042 1\n",
            b"1 +-2\n",
            b"1 -+2\n",
            b"+ 1\n",
            b"1 -\n",
            b"1 2,3 4\n5 6,,7 8\n",
            b"1 2, 3\n",
            b"1 2 3 4\n",
            b"x 1\n1 \xff\n",
            b"1 1\n1 \xff\n1 x\n",
            b"1 1\n1 2 # \xc3\n",
            b"1 -1\n\xfe\n",
            b"1 -1\n",
            b"1 2\r",
            b"\r",
        ];
        for case in cases {
            for step in [1, 2, 3, 7, CHUNK] {
                assert_matches_oracle(case, step, None);
            }
        }
    }

    #[test]
    fn first_error_in_line_order_wins() {
        // Whichever bad line comes first is reported: a line that is
        // not UTF-8, or a malformed one.
        let bytes = b"1 1\n\xff\nx y\n";
        let err = read_updates(&mut &bytes[..]).unwrap_err();
        assert_eq!(err, format!("I/O error on line 2: {NOT_UTF8}"));
        assert_eq!(Err(err), oracle::read_updates(&mut &bytes[..]));
        let bytes = b"1 1\nx y\n\xff\n";
        let err = read_updates(&mut &bytes[..]).unwrap_err();
        assert_eq!(err, "line 2: expected `paper delta`, got `x y`");
        assert_eq!(Err(err), oracle::read_updates(&mut &bytes[..]));
    }

    #[test]
    fn read_errors_match_the_oracle() {
        let bytes = b"1 2\n3 4\n5 x\n7 8\n";
        for fail_at in 0..bytes.len() {
            for step in [1, 3, CHUNK] {
                assert_matches_oracle(bytes, step, Some(fail_at));
            }
        }
    }

    #[test]
    fn lines_longer_than_a_chunk_match_the_oracle() {
        let mut long = b"1 2\n".to_vec();
        long.extend(vec![b' '; 3 * CHUNK]);
        long.extend_from_slice(b"3 4 #");
        long.extend(vec![b'c'; CHUNK + 17]);
        long.extend_from_slice(b"\n5 6");
        assert_eq!(
            read_updates(&mut &long[..]),
            Ok(vec![(1, 2), (3, 4), (5, 6)])
        );
        assert_matches_oracle(&long, CHUNK, None);
        assert_matches_oracle(&long, 4099, None);
    }

    /// Pieces the generated inputs are assembled from: record fields,
    /// every whitespace class, comments, line endings, and bytes that
    /// are not UTF-8.
    const PIECES: &[&[u8]] = &[
        b"0",
        b"7",
        b"42",
        b"+5",
        b"-0",
        b"-3",
        b"+",
        b"-",
        b"x",
        b"18446744073709551615",
        b"18446744073709551616",
        b"9223372036854775807",
        b"9223372036854775808",
        b"-9223372036854775808",
        b"-9223372036854775809",
        b"99999999999999999999",
        b"1,2",
        b"3,",
        b",",
        b" ",
        b" ",
        b"\t",
        b"\x0B",
        b"\x0C",
        b"\r",
        "\u{a0}".as_bytes(),
        "\u{3000}".as_bytes(),
        "\u{e9}".as_bytes(),
        b"#",
        b"# note",
        b"\n",
        b"\n",
        b"\r\n",
        b"\xff",
        b"\xc3",
    ];

    /// Whitespace that separates fields of a well-formed record.
    const SPACES: &[&[u8]] = &[
        b" ",
        b"\t",
        b"\x0B",
        b"\x0C",
        b"\r",
        b"  ",
        "\u{a0}".as_bytes(),
        "\u{3000}".as_bytes(),
    ];

    /// Field values of a well-formed record, around the integer limits.
    const NUMBERS: &[&[u8]] = &[
        b"0",
        b"1",
        b"+8",
        b"-0",
        b"-4",
        b"123456",
        b"9999999999999999999",
        b"18446744073709551615",
        b"9223372036854775807",
        b"-9223372036854775808",
    ];

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(1500))]

        #[test]
        fn scanner_matches_oracle_on_soup(
            picks in proptest::collection::vec(0..PIECES.len(), 0..40),
            step in 1usize..9,
        ) {
            let bytes: Vec<u8> = picks.iter().flat_map(|&i| PIECES[i].iter().copied()).collect();
            assert_matches_oracle(&bytes, step, None);
        }

        #[test]
        fn scanner_matches_oracle_on_records(
            lines in proptest::collection::vec(
                (0..NUMBERS.len(), 0..NUMBERS.len(), 0..SPACES.len(), 0..SPACES.len(), 0u8..8),
                0..12,
            ),
            step in 1usize..9,
        ) {
            // Mostly well-formed `a b` lines with varied separators,
            // comments and endings, so the readers also return `Ok`.
            let mut bytes = Vec::new();
            for &(a, b, s, t, shape) in &lines {
                if shape == 0 {
                    bytes.extend_from_slice(SPACES[t]);
                }
                bytes.extend_from_slice(NUMBERS[a]);
                bytes.extend_from_slice(SPACES[s]);
                bytes.extend_from_slice(NUMBERS[b]);
                match shape {
                    1 => bytes.extend_from_slice(b" # comment"),
                    2 => bytes.extend_from_slice(SPACES[t]),
                    3 => bytes.extend_from_slice(b"\r"),
                    _ => {}
                }
                bytes.push(b'\n');
            }
            if lines.last().is_some_and(|l| l.4 == 4) {
                bytes.pop();
            }
            assert_matches_oracle(&bytes, step, None);
        }
    }
}
