//! The record codec shared by the `mrworld 1`, `mrserve 1`, `mrwal 1` and
//! `mrobs 1` readers (writers stay plain `writeln!` lines), plus the
//! FNV-1a seal.
//!
//! One rule set: a versioned header opens a body and an `end` record
//! closes it; a record is one line of whitespace-separated fields, tag
//! first; fields are typed, `-` is `None`; index fields are range-checked
//! ([`Record::below`]); nested texts are counted blocks
//! (`<tag…> <line_count>` + body, [`write_block`]/[`Reader::block`]);
//! fields a later version appended are an all-or-nothing
//! [`Record::tail`]; trailing fields and duplicate singleton records
//! ([`Record::once`]) are refusals. Every fallible call returns a
//! [`RecordError`] naming the record and field.

use std::fmt::Write as _;
use std::str::FromStr;

/// A malformed record or truncated body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordError(pub String);

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RecordError {}

impl From<RecordError> for String {
    fn from(e: RecordError) -> Self {
        e.0
    }
}

/// FNV-1a 64-bit hash of `text` — the workspace's snapshot integrity
/// checksum. Dependency-free and byte-stable across platforms.
pub fn fnv1a_64(text: &str) -> u64 {
    fnv1a_64_bytes(text.as_bytes())
}

/// FNV-1a 64-bit over raw bytes — the binary-payload variant of
/// [`fnv1a_64`], used by the `mrnet 1` wire frames where the checksummed
/// content is not UTF-8 text.
pub fn fnv1a_64_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends the integrity trailer (`sum <16-hex-digits>`) to a snapshot
/// body. Every versioned snapshot format in the workspace (`mrworld 1`,
/// `mrserve 1`) is sealed this way on write.
pub fn seal_snapshot(mut body: String) -> String {
    let sum = fnv1a_64(&body);
    let _ = writeln!(body, "sum {sum:016x}");
    body
}

/// Verifies and strips the integrity trailer, returning the body it
/// covers.
///
/// # Errors
///
/// Returns a description when the trailer is missing, malformed, or does
/// not match the body — the caller maps it into its typed snapshot error.
/// Any truncation or bit-flip of a sealed snapshot lands here: either the
/// body no longer hashes to the recorded sum, or the trailer itself is
/// damaged.
pub fn open_snapshot(text: &str) -> Result<&str, String> {
    let missing = || "missing checksum trailer".to_owned();
    let rest = text.strip_suffix('\n').ok_or_else(missing)?;
    let (head, last) = rest.rsplit_once('\n').ok_or_else(missing)?;
    let hex = last.strip_prefix("sum ").ok_or_else(missing)?;
    let expect =
        u64::from_str_radix(hex, 16).map_err(|_| format!("bad checksum trailer `{last}`"))?;
    let body = &text[..head.len() + 1];
    let got = fnv1a_64(body);
    if got != expect {
        return Err(format!(
            "checksum mismatch: trailer says {expect:016x}, content hashes to {got:016x}"
        ));
    }
    Ok(body)
}

/// Writes a counted block: `{tag} {line_count}`, then each line of `text`
/// terminated by exactly one `\n`.
pub fn write_block(out: &mut String, tag: &str, text: &str) {
    let _ = writeln!(out, "{tag} {}", text.lines().count());
    for l in text.lines() {
        out.push_str(l);
        out.push('\n');
    }
}

/// One record: its tag and the fields not read yet.
#[derive(Debug, Clone, Copy)]
pub struct Record<'a> {
    /// The first field of the line (empty for a blank line).
    pub tag: &'a str,
    rest: &'a str,
}

impl<'a> Record<'a> {
    /// Splits `line` into its tag and fields.
    pub fn new(line: &'a str) -> Self {
        let mut r = Record {
            tag: "",
            rest: line,
        };
        r.tag = r.next_token().unwrap_or("");
        r
    }

    /// An error naming this record.
    pub fn fail(&self, why: impl std::fmt::Display) -> RecordError {
        RecordError(format!("`{}` record: {why}", self.tag))
    }

    fn next_token(&mut self) -> Option<&'a str> {
        let s = self.rest.trim_start();
        let end = s.find(char::is_whitespace).unwrap_or(s.len());
        self.rest = &s[end..];
        (end > 0).then(|| &s[..end])
    }

    /// The next field, untyped.
    pub fn token(&mut self, what: &str) -> Result<&'a str, RecordError> {
        self.next_token()
            .ok_or_else(|| self.fail(format!("missing {what}")))
    }

    /// The next field, parsed as `T`.
    pub fn field<T: FromStr>(&mut self, what: &str) -> Result<T, RecordError> {
        let tok = self.token(what)?;
        tok.parse()
            .map_err(|_| self.fail(format!("bad {what} `{tok}`")))
    }

    /// An optional field: `-` is `None`, anything else is read by `read`.
    pub fn opt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, RecordError>,
    ) -> Result<Option<T>, RecordError> {
        let mut peek = *self;
        if peek.next_token() == Some("-") {
            *self = peek;
            return Ok(None);
        }
        read(self).map(Some)
    }

    /// The next field as an index into a collection of `n` items.
    pub fn below<T>(&mut self, n: usize, what: &str) -> Result<T, RecordError>
    where
        T: FromStr + Copy + std::fmt::Display,
        usize: TryFrom<T>,
    {
        let v: T = self.field(what)?;
        match usize::try_from(v) {
            Ok(i) if i < n => Ok(v),
            _ => Err(self.fail(format!("{what} {v} out of range (must be below {n})"))),
        }
    }

    /// Splits off the fields before the marker field `word` as a record
    /// of their own, and continues after the marker.
    pub fn until(&mut self, word: &str) -> Result<Record<'a>, RecordError> {
        let start = self.rest;
        loop {
            let before = self.rest;
            match self.next_token() {
                Some(tok) if tok == word => {
                    let rest = &start[..start.len() - before.len()];
                    return Ok(Record {
                        tag: self.tag,
                        rest,
                    });
                }
                Some(_) => {}
                None => return Err(self.fail(format!("missing `{word}` marker"))),
            }
        }
    }

    /// Reads the remaining fields as a list, one `each` call per item.
    pub fn all<T>(
        &mut self,
        mut each: impl FnMut(&mut Self) -> Result<T, RecordError>,
    ) -> Result<Vec<T>, RecordError> {
        let mut out = Vec::new();
        while !self.rest.trim_start().is_empty() {
            out.push(each(self)?);
        }
        Ok(out)
    }

    /// The `N` fields a later format version appended: `None` when all are
    /// absent; a partial tail is an error.
    pub fn tail<T: FromStr + Copy + Default, const N: usize>(
        &mut self,
        what: &str,
    ) -> Result<Option<[T; N]>, RecordError> {
        let present = self.rest.split_whitespace().count();
        if present == 0 {
            return Ok(None);
        }
        if present != N {
            return Err(self.fail(format!("partial {what} ({present} of {N} fields)")));
        }
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = self.field(what)?;
        }
        Ok(Some(out))
    }

    /// Reads this singleton record's value into `slot` with `read`; a
    /// second copy of the record is an error.
    pub fn once<T>(
        &mut self,
        slot: &mut Option<T>,
        read: impl FnOnce(&mut Self) -> Result<T, RecordError>,
    ) -> Result<(), RecordError> {
        if slot.is_some() {
            return Err(RecordError(format!("duplicate `{}` record", self.tag)));
        }
        *slot = Some(read(self)?);
        Ok(())
    }

    /// Checks that no fields trail the ones read.
    pub fn finish(&self) -> Result<(), RecordError> {
        match self.rest.trim() {
            "" => Ok(()),
            rest => Err(self.fail(format!("trailing fields `{rest}`"))),
        }
    }
}

/// Reads records, and the raw lines of counted blocks, from a text body.
pub struct Reader<'a> {
    lines: std::str::Lines<'a>,
}

impl<'a> Reader<'a> {
    /// A reader over `text`, which has no header.
    pub fn new(text: &'a str) -> Self {
        Reader {
            lines: text.lines(),
        }
    }

    /// A reader over a versioned body whose first line must be `header`.
    pub fn open(body: &'a str, header: &str) -> Result<Self, RecordError> {
        let mut r = Reader::new(body);
        if r.lines.next() != Some(header) {
            return Err(RecordError(format!("missing `{header}` header")));
        }
        Ok(r)
    }

    /// The next raw line.
    pub fn line(&mut self, what: &str) -> Result<&'a str, RecordError> {
        self.lines
            .next()
            .ok_or_else(|| RecordError(format!("text ends before the {what}")))
    }

    /// The next line, as a record that must carry `tag`.
    pub fn expect(&mut self, tag: &str) -> Result<Record<'a>, RecordError> {
        let line = self.line(tag)?;
        let r = Record::new(line);
        if r.tag != tag {
            return Err(RecordError(format!("expected `{tag}`, found `{line}`")));
        }
        Ok(r)
    }

    /// The next non-blank record; `None` at the `end` record, an error
    /// when the body ends without one (truncation).
    pub fn next_record(&mut self) -> Result<Option<Record<'a>>, RecordError> {
        for line in self.lines.by_ref() {
            let r = Record::new(line);
            match r.tag {
                "" => continue,
                "end" => return Ok(None),
                _ => return Ok(Some(r)),
            }
        }
        Err(RecordError("truncated body (missing `end`)".to_owned()))
    }

    /// The next `n` raw lines, each terminated by `\n`.
    pub fn lines_block(&mut self, n: usize, what: &str) -> Result<String, RecordError> {
        let mut body = String::new();
        for _ in 0..n {
            body.push_str(self.line(what)?);
            body.push('\n');
        }
        Ok(body)
    }

    /// The body of a counted block whose line count is `header`'s last
    /// field.
    pub fn block(&mut self, header: &mut Record<'a>) -> Result<String, RecordError> {
        let n: usize = header.field("line count")?;
        header.finish()?;
        self.lines_block(n, header.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_trailer_seals_and_opens() {
        let sealed = seal_snapshot("mrworld 1\nend\n".to_owned());
        assert!(sealed.ends_with('\n'));
        assert_eq!(
            open_snapshot(&sealed).expect("valid seal"),
            "mrworld 1\nend\n"
        );
        // Flipping any single byte of the sealed text breaks verification.
        for i in 0..sealed.len() {
            let mut bytes = sealed.clone().into_bytes();
            bytes[i] ^= 0x01;
            let corrupt = String::from_utf8_lossy(&bytes).into_owned();
            assert!(
                open_snapshot(&corrupt).is_err(),
                "flip at byte {i} accepted"
            );
        }
        // Any truncation breaks it too.
        for i in 0..sealed.len() {
            assert!(
                open_snapshot(&sealed[..i]).is_err(),
                "truncation at {i} accepted"
            );
        }
    }

    #[test]
    fn typed_fields_optionals_and_ranges() {
        let mut r = Record::new("team 3 - 2.5 7 x");
        assert_eq!(r.tag, "team");
        assert_eq!(r.field::<u32>("a"), Ok(3));
        assert_eq!(r.opt(|r| r.field::<u32>("b")), Ok(None));
        assert_eq!(r.opt(|r| r.field::<f64>("c")), Ok(Some(2.5)));
        assert!(r.below::<u32>(7, "d").is_err(), "7 is not below 7");
        assert!(r.field::<u32>("e").is_err(), "`x` is not a u32");
        assert!(r.field::<u32>("f").is_err(), "missing field");
        assert!(Record::new("w -1").field::<u32>("v").is_err());
        assert!(Record::new("w -").field::<u32>("v").is_err());
        assert_eq!(Record::new("w -1").opt(|r| r.field("v")), Ok(Some(-1i64)));
        assert!(Record::new("w 1 2").finish().is_err(), "trailing fields");
    }

    #[test]
    fn tail_is_all_or_nothing() {
        let tail = |line: &str| {
            let mut r = Record::new(line);
            r.field::<u64>("head")?;
            r.tail::<u64, 3>("tail")
        };
        assert_eq!(tail("resil 0"), Ok(None));
        assert_eq!(tail("resil 0 1 2 3"), Ok(Some([1, 2, 3])));
        assert!(tail("resil 0 1").is_err(), "partial tail");
        assert!(tail("resil 0 1 2 3 4").is_err(), "overlong tail");
        assert!(tail("resil 0 1 x 3").is_err(), "malformed tail");
    }

    #[test]
    fn markers_lists_and_singletons() {
        let mut r = Record::new("team route 4 5 onboard 1");
        r.until("route").unwrap().finish().unwrap();
        let route = r.until("onboard").unwrap().all(|r| r.below::<u32>(6, "s"));
        assert_eq!(route, Ok(vec![4, 5]));
        assert_eq!(r.all(|r| r.field::<u32>("id")), Ok(vec![1]));
        assert!(Record::new("team 1 2").until("onboard").is_err());
        let mut slot = None;
        let mut rec = Record::new("epochs 3");
        assert!(rec.once(&mut slot, |r| r.field::<u32>("count")).is_ok());
        assert_eq!(slot, Some(3));
        assert!(
            rec.once(&mut slot, |_| Ok(4)).is_err(),
            "duplicate singleton"
        );
    }

    #[test]
    fn reader_frames_blocks_and_end() {
        let mut body = String::from("mrx 1\n\n");
        write_block(&mut body, "shard 0", "a b\nc");
        assert_eq!(body, "mrx 1\n\nshard 0 2\na b\nc\n");
        body.push_str("end\n");
        let mut reader = Reader::open(&body, "mrx 1").unwrap();
        let mut rec = reader.next_record().unwrap().expect("shard record");
        assert_eq!(rec.tag, "shard");
        assert_eq!(rec.field::<usize>("index"), Ok(0));
        assert_eq!(reader.block(&mut rec).unwrap(), "a b\nc\n");
        assert!(reader.next_record().unwrap().is_none(), "end reached");

        assert!(Reader::open("mry 1\nend\n", "mrx 1").is_err());
        let mut truncated = Reader::open("mrx 1\nshard 0 5\nx\n", "mrx 1").unwrap();
        let mut rec = truncated.next_record().unwrap().unwrap();
        rec.field::<usize>("index").unwrap();
        assert!(truncated.block(&mut rec).is_err(), "short block body");
        let mut no_end = Reader::open("mrx 1\nfoo\n", "mrx 1").unwrap();
        assert!(no_end.next_record().unwrap().is_some());
        assert!(no_end.next_record().is_err(), "missing `end`");
    }
}
