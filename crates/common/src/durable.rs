//! Durable files: the one way this workspace writes state that must
//! survive a crash ([`write_atomic`]), and the one record format every
//! checkpoint, spill, store and dump is stored in:
//!
//! ```text
//! {"kind":"<file kind>","version":<n>}
//! {"key":"<key>","check":<fnv64>,"value":{...}}
//! ```
//!
//! Entry lines are sorted by key, so the bytes are a pure function of the
//! records; `check` is FNV-1a 64 over the value's canonical JSON as
//! written on the line. [`read`] holds the one corruption policy.

use crate::hash::fnv1a64_str;
use serde::{Deserialize, Serialize, Value};
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Writes `bytes` to `path` so that a crash — of the process or of the
/// machine — leaves the previous file or the new one, never a torn mix.
///
/// The bytes land in a sibling temporary file named after the process id
/// and a process-wide sequence number (unique across concurrent writers to
/// one path), which is synced and renamed into place; then the directory,
/// created if missing, is synced. On error the temporary file is removed.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    fs::create_dir_all(dir)?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let written = File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .and_then(|()| fs::rename(&tmp, path));
    if written.is_err() {
        fs::remove_file(&tmp).ok();
    }
    written?;
    File::open(dir)?.sync_all()
}

/// Serializes a value to canonical JSON: nested object keys are sorted
/// (recursively), so two values that differ only in field order encode —
/// and therefore hash — identically.
pub fn canonical_json(value: &(impl Serialize + ?Sized)) -> String {
    let mut value = value.to_value();
    sort_keys(&mut value);
    value.to_string()
}

/// Recursively sorts object keys; arrays keep their order, which is
/// semantic.
fn sort_keys(value: &mut Value) {
    match value {
        Value::Object(map) => {
            map.sort_keys();
            map.values_mut().for_each(sort_keys);
        }
        Value::Array(items) => items.iter_mut().for_each(sort_keys),
        _ => {}
    }
}

/// A record file's first line, without its newline.
fn header(kind: &str, version: u32) -> String {
    let kind = Value::String(kind.to_string());
    format!("{{\"kind\":{kind},\"version\":{version}}}")
}

/// Everything an entry line holds before its value text.
fn line_prefix(key: &str, check: u64) -> String {
    let key = Value::String(key.to_string());
    format!("{{\"key\":{key},\"check\":{check},\"value\":")
}

/// Renders a record file of `kind` at `version`: the header line, then one
/// checksummed line per `(key, value)` record, in the given (key) order.
pub fn encode<'a, V: Serialize + 'a>(
    kind: &str,
    version: u32,
    records: impl IntoIterator<Item = (String, &'a V)>,
) -> String {
    let mut out = header(kind, version) + "\n";
    for (key, value) in records {
        let text = canonical_json(value);
        out += &line_prefix(&key, fnv1a64_str(&text));
        out += &text;
        out += "}\n";
    }
    out
}

/// [`encode`]s the records and writes them to `path` with
/// [`write_atomic`].
pub fn write<'a, V: Serialize + 'a>(
    path: &Path,
    kind: &str,
    version: u32,
    records: impl IntoIterator<Item = (String, &'a V)>,
) -> io::Result<()> {
    write_atomic(path, encode(kind, version, records).as_bytes())
}

fn invalid(path: &Path, message: String) -> io::Error {
    let message = format!("{}: {message}", path.display());
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Reads a record file written by [`encode`], returning the accepted
/// records in file order and the number of entry lines skipped.
///
/// A header of another kind or version is an [`io::ErrorKind::InvalidData`]
/// error: that is a different file. An entry line that is not UTF-8, does
/// not parse or fails its checksum is skipped and counted: that is a
/// damaged file, and a damaged line costs its record, never a wrong value.
/// Each intact entry goes to `accept`, which maps it to a record or refuses
/// it with `None` (a key or schema the caller cannot use) — counted as
/// skipped too.
pub fn read<V: Deserialize, T>(
    path: &Path,
    kind: &str,
    version: u32,
    mut accept: impl FnMut(String, V) -> Option<T>,
) -> io::Result<(Vec<T>, u64)> {
    let bytes = fs::read(path)?;
    let mut lines = bytes.split(|&b| b == b'\n');
    if lines.next() != Some(header(kind, version).as_bytes()) {
        let message = format!("header is not kind {kind:?} version {version}");
        return Err(invalid(path, message));
    }
    let mut records = Vec::new();
    let mut skipped = 0;
    for line in lines.filter(|line| !line.trim_ascii().is_empty()) {
        match entry(line).and_then(|(key, value)| accept(key, value)) {
            Some(record) => records.push(record),
            None => skipped += 1,
        }
    }
    Ok((records, skipped))
}

/// Parses and verifies one entry line; `None` when it is damaged.
fn entry<V: Deserialize>(line: &[u8]) -> Option<(String, V)> {
    let line = std::str::from_utf8(line).ok()?;
    let parsed = serde::parse(line).ok()?;
    let map = parsed.as_object()?;
    let key = map.get("key")?.as_str()?;
    let check = map.get("check")?.as_u64()?;
    // The checksum covers the value text as written: the rest of the line
    // after the prefix rebuilt from the parsed key and check.
    let text = line
        .strip_prefix(line_prefix(key, check).as_str())?
        .strip_suffix('}')?;
    if fnv1a64_str(text) != check {
        return None;
    }
    let value = V::from_value(map.get("value")?).ok()?;
    Some((key.to_string(), value))
}

/// [`read`] for a file that holds exactly one record: anything but one
/// accepted record — an empty, damaged or refused entry — is an error.
pub fn read_one<V: Deserialize, T>(
    path: &Path,
    kind: &str,
    version: u32,
    accept: impl FnMut(String, V) -> Option<T>,
) -> io::Result<T> {
    match read(path, kind, version, accept)? {
        (mut records, 0) if records.len() == 1 => Ok(records.remove(0)),
        (records, skipped) => {
            let found = records.len();
            Err(invalid(
                path,
                format!("{found} intact records, {skipped} damaged; expected one"),
            ))
        }
    }
}
