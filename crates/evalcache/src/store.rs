//! The persistent store: a [`relm_common::durable`] record file with one
//! entry per cached value, keyed by its [`EvalKey`] hex. A damaged entry
//! line is skipped and counted: it costs one re-evaluation and never
//! replays a wrong value.

use crate::cache::EvalCache;
use crate::key::EvalKey;
use relm_common::durable;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;
use std::time::Instant;

/// Store format version; bumped whenever the line layout changes.
pub const STORE_VERSION: u32 = 1;
/// The `kind` tag every store file starts with.
pub const STORE_KIND: &str = "relm-evalcache";

/// Writes the cache to `path` atomically and durably; the bytes depend
/// only on the cache contents, not on insertion order or worker count.
pub fn save<V: Serialize>(cache: &EvalCache<V>, path: &Path) -> io::Result<()> {
    let entries = cache.entries();
    let records = entries
        .iter()
        .map(|(key, value)| (key.hex(), value.as_ref()));
    durable::write(path, STORE_KIND, STORE_VERSION, records)
}

/// Reads a store file: its verified entries in file order, and the number
/// of damaged entry lines skipped.
pub fn read<V: Deserialize>(path: &Path) -> io::Result<(Vec<(EvalKey, V)>, u64)> {
    durable::read(path, STORE_KIND, STORE_VERSION, |key, value| {
        Some((EvalKey::from_hex(&key)?, value))
    })
}

/// Loads a store file into the cache, returning how many entries were
/// restored and how many damaged entry lines were skipped. Restored
/// entries do not count as inserts; the wall-clock cost, the file size and
/// the skips land on `evalcache.{load_ms,bytes,skipped}`.
pub fn load<V: Serialize + Deserialize>(
    cache: &EvalCache<V>,
    path: &Path,
) -> io::Result<(usize, u64)> {
    let start = Instant::now();
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let (entries, skipped) = read::<V>(path)?;
    let restored = entries.len();
    for (key, value) in entries {
        cache.restore(key, value);
    }
    let obs = cache.obs();
    obs.add("evalcache.load_ms", start.elapsed().as_secs_f64() * 1e3);
    obs.add("evalcache.bytes", bytes as f64);
    if skipped > 0 {
        obs.add("evalcache.skipped", skipped as f64);
    }
    Ok((restored, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyBuilder;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "relm-evalcache-store-{}-{name}.jsonl",
            std::process::id()
        ))
    }

    fn sample_cache() -> EvalCache<Vec<f64>> {
        let cache = EvalCache::new();
        for n in 0..5u64 {
            let key = KeyBuilder::new("t").field("n", &n).finish();
            cache.insert(key, vec![n as f64, 0.5]);
        }
        cache
    }

    #[test]
    fn save_load_round_trips() {
        let path = tmp_path("roundtrip");
        let cache = sample_cache();
        save(&cache, &path).unwrap();
        let restored: EvalCache<Vec<f64>> = EvalCache::new();
        assert_eq!(load(&restored, &path).unwrap(), (5, 0));
        assert_eq!(restored.len(), 5);
        for (key, value) in cache.entries() {
            assert_eq!(restored.get(&key).unwrap().as_ref(), value.as_ref());
        }
        // Restores are not inserts.
        assert_eq!(restored.stats().inserts, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_is_versioned_and_checked() {
        let path = tmp_path("header");
        save(&sample_cache(), &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let header = text.lines().next().unwrap();
        assert!(header.contains("\"relm-evalcache\""));
        assert!(header.contains("\"version\":1"));

        let bumped = text.replacen("\"version\":1", "\"version\":99", 1);
        std::fs::write(&path, bumped).unwrap();
        let err = read::<Vec<f64>>(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_values_are_skipped_and_counted() {
        let path = tmp_path("corrupt");
        save(&sample_cache(), &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Flip a digit inside the first entry's value array.
        let corrupted = text.replacen("0.5", "0.75", 1);
        assert_ne!(text, corrupted);
        std::fs::write(&path, corrupted).unwrap();
        let restored: EvalCache<Vec<f64>> = EvalCache::instrumented(relm_obs::Obs::enabled());
        assert_eq!(load(&restored, &path).unwrap(), (4, 1));
        assert_eq!(restored.obs().counter_value("evalcache.skipped"), 1.0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn save_is_atomic_no_tmp_left_behind() {
        let path = tmp_path("atomic");
        save(&sample_cache(), &path).unwrap();
        let dir = path.parent().unwrap();
        let stem = path.file_name().unwrap().to_string_lossy().to_string();
        let leftovers: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().to_string())
            .filter(|n| n.starts_with(&stem) && n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "leaked tmp files: {leftovers:?}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_is_independent_of_insertion_order() {
        let a = EvalCache::new();
        let b = EvalCache::new();
        let keys: Vec<EvalKey> = (0..6u64)
            .map(|n| KeyBuilder::new("t").field("n", &n).finish())
            .collect();
        for &k in &keys {
            a.insert(k, 1u64);
        }
        for &k in keys.iter().rev() {
            b.insert(k, 1u64);
        }
        let (pa, pb) = (tmp_path("order-a"), tmp_path("order-b"));
        save(&a, &pa).unwrap();
        save(&b, &pb).unwrap();
        assert_eq!(
            std::fs::read(&pa).unwrap(),
            std::fs::read(&pb).unwrap(),
            "store bytes must not depend on insertion order"
        );
        std::fs::remove_file(&pa).unwrap();
        std::fs::remove_file(&pb).unwrap();
    }
}
