//! Property tests for the persistent store: load → save → load must be
//! idempotent (same entries, same bytes), regardless of what was cached
//! or in what order, and a corrupted entry must be skipped and counted
//! while every other entry loads bit-exact.

use proptest::prelude::*;
use relm_evalcache::{store, EvalCache, KeyBuilder};
use serde::{Deserialize, Serialize};

/// A payload shaped like the tuning pipeline's cached evaluations:
/// numbers, strings, and a counter-delta list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Payload {
    runtime_ms: f64,
    aborted: bool,
    retries: u32,
    counters: Vec<(String, f64)>,
}

fn payload(seed: u64) -> Payload {
    Payload {
        runtime_ms: seed as f64 * 13.5 + 0.25,
        aborted: seed.is_multiple_of(3),
        retries: (seed % 5) as u32,
        counters: vec![
            ("env.stress_tests".to_string(), 1.0),
            ("faults.injected".to_string(), (seed % 4) as f64),
        ],
    }
}

/// A payload with every float replaced by its bit pattern, so equality is
/// bit-exact.
fn bits(p: &Payload) -> (u64, bool, u32, Vec<(String, u64)>) {
    let counters = p
        .counters
        .iter()
        .map(|(n, v)| (n.clone(), v.to_bits()))
        .collect();
    (p.runtime_ms.to_bits(), p.aborted, p.retries, counters)
}

/// Derives `n` distinct entry seeds from one case seed (the vendored
/// proptest has no collection strategies, so collections are expanded
/// from scalar draws).
fn distinct_seeds(base: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| {
            base.wrapping_mul(6364136223846793005)
                .wrapping_add(i.wrapping_mul(2654435761))
        })
        .collect()
}

fn tmp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "relm-evalcache-prop-{}-{tag}.jsonl",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn load_save_load_is_idempotent(
        base in 0u64..100_000,
        n in 0usize..24,
        case in 0u64..1_000_000,
    ) {
        let seeds = distinct_seeds(base, n);
        let original: EvalCache<Payload> = EvalCache::new();
        for &seed in &seeds {
            let key = KeyBuilder::new("prop").field("seed", &seed).finish();
            original.insert(key, payload(seed));
        }

        let first_path = tmp_path(&format!("{case}-first"));
        let second_path = tmp_path(&format!("{case}-second"));
        store::save(&original, &first_path).unwrap();

        // load → save: the re-saved file must be byte-identical.
        let restored: EvalCache<Payload> = EvalCache::new();
        let loaded = store::load(&restored, &first_path).unwrap();
        prop_assert_eq!(loaded, (seeds.len(), 0));
        store::save(&restored, &second_path).unwrap();
        let first = std::fs::read(&first_path).unwrap();
        let second = std::fs::read(&second_path).unwrap();
        prop_assert_eq!(first, second, "save(load(f)) must reproduce f byte-for-byte");

        // → load again: same verified entries.
        let again: EvalCache<Payload> = EvalCache::new();
        store::load(&again, &second_path).unwrap();
        prop_assert_eq!(again.len(), seeds.len());
        for (key, value) in original.entries() {
            let got = again.get(&key).expect("entry survives two round trips");
            prop_assert_eq!(got.as_ref(), value.as_ref());
        }

        std::fs::remove_file(&first_path).ok();
        std::fs::remove_file(&second_path).ok();
    }

    #[test]
    fn a_flipped_entry_is_skipped_and_the_rest_load_bit_exact(
        base in 1u64..1_000,
        n in 1usize..6,
        case in 0u64..1_000_000,
        pick in 0usize..64,
    ) {
        let cache: EvalCache<Payload> = EvalCache::new();
        for &seed in &distinct_seeds(base, n) {
            let key = KeyBuilder::new("prop").field("seed", &seed).finish();
            cache.insert(key, payload(seed));
        }
        let saved = cache.entries();
        let path = tmp_path(&format!("{case}-flip"));
        store::save(&cache, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();

        // Corrupt one digit inside one entry's value payload. Line 0 is
        // the header, so pick among the n entry lines after it.
        let lines: Vec<&str> = text.lines().collect();
        let entry_idx = 1 + pick % (lines.len() - 1);
        let entry = lines[entry_idx];
        let value_at = entry.find("\"value\"").unwrap();
        let digit_at = entry[value_at..]
            .char_indices()
            .find(|(_, c)| c.is_ascii_digit())
            .map(|(i, _)| value_at + i)
            .expect("every payload serializes at least one digit");
        let mut bytes = entry.as_bytes().to_vec();
        bytes[digit_at] = if bytes[digit_at] == b'9' { b'0' } else { bytes[digit_at] + 1 };
        let corrupted_entry = String::from_utf8(bytes).unwrap();
        let corrupted: String = lines
            .iter()
            .enumerate()
            .map(|(i, l)| if i == entry_idx { corrupted_entry.as_str() } else { *l })
            .collect::<Vec<&str>>()
            .join("\n");
        std::fs::write(&path, corrupted).unwrap();

        // Entry lines are key-sorted, so line `entry_idx` holds the
        // `entry_idx - 1`-th saved entry.
        let (entries, skipped) = store::read::<Payload>(&path).unwrap();
        prop_assert_eq!(skipped, 1);
        prop_assert_eq!(entries.len(), saved.len() - 1);
        let flipped = saved[entry_idx - 1].0;
        prop_assert!(entries.iter().all(|(key, _)| *key != flipped), "the flipped entry is absent");
        for (key, value) in &entries {
            let original = &saved.iter().find(|(k, _)| k == key).expect("a saved key").1;
            prop_assert_eq!(bits(value), bits(original), "intact entries load bit-exact");
        }
        std::fs::remove_file(&path).ok();
    }
}
