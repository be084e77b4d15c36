//! Crash/corruption matrix for every durable file kind: the evalcache
//! store, the memory store, the session checkpoint, the digest sidecar and
//! the flight dump.
//!
//! Each kind writes a small file through its real save path, then the file
//! is truncated at every byte offset and, separately, has one bit flipped
//! at every byte offset (bit = offset mod 8). Every load must return an
//! error, or records each bit-identical to the one saved under its key,
//! with damaged lines counted as skipped — never a panic, never a wrong
//! record. A leftover temporary file beside a good file must not change
//! what loads.

use relm_common::{Mem, MemoryConfig};
use relm_evalcache::{store, EvalCache, KeyBuilder};
use relm_memory::{DigestObs, MemoryStore, SessionDigest, DIGEST_VERSION};
use relm_obs::{read_dump, save_dump, FlightEvent, FlightRecorder, Obs};
use relm_tune::SessionCheckpoint;
use std::path::{Path, PathBuf};

/// What one load returned: `(key, record JSON)` pairs in file order and
/// the count of skipped lines, or the load error.
type Loaded = Result<(Vec<(String, String)>, u64), String>;

fn json(value: &impl serde::Serialize) -> String {
    // Shortest round-trip float formatting: equal text means equal bits.
    serde_json::to_string(value).expect("test records serialize")
}

fn scratch_dir(kind: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("relm-durable-matrix-{}-{kind}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(n: u32) -> MemoryConfig {
    MemoryConfig {
        containers_per_node: n,
        heap: Mem::mb(2048.0 + f64::from(n) * 0.25),
        task_concurrency: 2,
        cache_fraction: 0.4,
        shuffle_fraction: 0.1,
        new_ratio: 3,
        survivor_ratio: 8,
    }
}

fn digest(seed: u64) -> SessionDigest {
    SessionDigest {
        version: DIGEST_VERSION,
        workload: "wordcount".to_string(),
        base_seed: seed,
        evaluations: 1,
        profiled: 0,
        stats: None,
        observations: vec![DigestObs {
            config: config(1 + seed as u32),
            score_mins: 7.5 + seed as f64 / 3.0,
            censored: false,
        }],
    }
}

/// Byte spans `[start, end)` of each line, newline excluded.
fn line_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            spans.push((start, i));
            start = i + 1;
        }
    }
    spans
}

/// One file kind under test: the good file's path and bytes, the records
/// saved into it in file order, and how to load it.
struct Kind {
    name: &'static str,
    path: PathBuf,
    bytes: Vec<u8>,
    saved: Vec<(String, String)>,
    load: fn(&Path) -> Loaded,
}

impl Kind {
    fn new(
        name: &'static str,
        path: PathBuf,
        saved: Vec<(String, String)>,
        load: fn(&Path) -> Loaded,
    ) -> Self {
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.len() <= 2048, "{name}: {} bytes", bytes.len());
        let kind = Kind {
            name,
            path,
            bytes,
            saved,
            load,
        };
        assert_eq!(kind.load_bytes(&kind.bytes), Ok((kind.saved.clone(), 0)));
        kind
    }

    fn load_bytes(&self, bytes: &[u8]) -> Loaded {
        std::fs::write(&self.path, bytes).unwrap();
        (self.load)(&self.path)
    }

    fn entries(&self) -> Vec<(usize, usize)> {
        line_spans(&self.bytes)[1..].to_vec()
    }

    fn header_end(&self) -> usize {
        line_spans(&self.bytes)[0].1
    }

    fn truncate_everywhere(&self) {
        let entries = self.entries();
        for cut in 0..self.bytes.len() {
            let got = self.load_bytes(&self.bytes[..cut]);
            let complete = entries.iter().filter(|&&(_, end)| end <= cut).count();
            let partial = entries.iter().any(|&(start, end)| start < cut && cut < end);
            let expected = if cut < self.header_end() {
                None
            } else if self.saved.len() == 1 {
                // A one-record file loads whole or not at all.
                (complete == 1).then(|| (self.saved.clone(), 0))
            } else {
                Some((self.saved[..complete].to_vec(), u64::from(partial)))
            };
            match (got, expected) {
                (Ok(got), Some(expected)) => {
                    assert_eq!(got, expected, "{}: truncated at {cut}", self.name)
                }
                (Err(_), None) => {}
                (got, expected) => panic!(
                    "{}: truncated at {cut}: got {got:?}, expected {expected:?}",
                    self.name
                ),
            }
        }
    }

    /// Flips bit `offset % 8` at every offset. `orphans` allows a record
    /// under a key that was never saved, but only when the flipped bit is
    /// inside that entry's key text and the value is the one saved there.
    fn flip_everywhere(&self, orphans: bool) {
        let entries = self.entries();
        for offset in 0..self.bytes.len() {
            let mut bytes = self.bytes.clone();
            bytes[offset] ^= 1 << (offset % 8);
            let (records, skipped) = match self.load_bytes(&bytes) {
                Ok(loaded) => loaded,
                Err(_) if offset <= self.header_end() || self.saved.len() == 1 => continue,
                Err(e) => panic!("{}: flip at {offset} failed the load: {e}", self.name),
            };
            for (key, record) in &records {
                match self.saved.iter().find(|(k, _)| k == key) {
                    Some((_, saved)) => assert_eq!(
                        record, saved,
                        "{}: flip at {offset} returned a wrong record for {key}",
                        self.name
                    ),
                    None => {
                        let line = entries
                            .iter()
                            .position(|&(start, end)| start <= offset && offset < end)
                            .unwrap_or_else(|| {
                                panic!("{}: flip at {offset} invented {key}", self.name)
                            });
                        let (start, _) = entries[line];
                        let key_text = start + "{\"key\":\"".len();
                        assert!(
                            orphans
                                && (key_text..key_text + key.len()).contains(&offset)
                                && *record == self.saved[line].1,
                            "{}: flip at {offset} returned a record under unsaved key {key}",
                            self.name
                        );
                    }
                }
            }
            if records.len() < self.saved.len() {
                assert!(
                    skipped >= 1,
                    "{}: flip at {offset} lost a record silently",
                    self.name
                );
            }
            assert!(
                records.len() + 2 >= self.saved.len(),
                "{}: flip at {offset} cost more than two records",
                self.name
            );
        }
    }

    fn ignores_leftover_tmp(&self) {
        let mut tmp = self.path.as_os_str().to_owned();
        tmp.push(".999.0.tmp");
        std::fs::write(&tmp, &self.bytes[..self.bytes.len() / 2]).unwrap();
        assert_eq!(
            self.load_bytes(&self.bytes),
            Ok((self.saved.clone(), 0)),
            "{}: a leftover tmp file changed what loads",
            self.name
        );
        std::fs::remove_file(&tmp).unwrap();
    }

    fn run(&self, orphans: bool) {
        self.truncate_everywhere();
        self.flip_everywhere(orphans);
        self.ignores_leftover_tmp();
        std::fs::remove_dir_all(self.path.parent().unwrap()).ok();
    }
}

#[test]
fn evalcache_store() {
    let cache: EvalCache<Vec<f64>> = EvalCache::new();
    for n in 0..4u64 {
        let key = KeyBuilder::new("matrix").field("n", &n).finish();
        cache.insert(key, vec![n as f64 * 1.5, 0.1 + n as f64]);
    }
    let path = scratch_dir("evalcache").join("cache.jsonl");
    store::save(&cache, &path).unwrap();
    let saved = cache
        .entries()
        .iter()
        .map(|(k, v)| (k.hex(), json(v.as_ref())))
        .collect();
    // The evalcache's checksum covers the value only, and its keys are
    // content hashes no value can be checked against: a flipped key digit
    // files the intact value under a key no evaluation hashes to.
    Kind::new("evalcache", path, saved, |p| {
        let (entries, skipped) = store::read::<Vec<f64>>(p).map_err(|e| e.to_string())?;
        Ok((
            entries.iter().map(|(k, v)| (k.hex(), json(v))).collect(),
            skipped,
        ))
    })
    .run(true);
}

#[test]
fn memory_store() {
    let mut memory = MemoryStore::new();
    for seed in 0..3 {
        memory.ingest(digest(seed));
    }
    let path = scratch_dir("memory").join("memory.jsonl");
    memory.save(&path).unwrap();
    let saved = memory
        .sessions()
        .map(|(k, d)| (k.clone(), json(d)))
        .collect();
    Kind::new("memory", path, saved, |p| {
        let store = MemoryStore::load(p, Obs::disabled()).map_err(|e| e.to_string())?;
        let records = store
            .sessions()
            .map(|(k, d)| (k.clone(), json(d)))
            .collect();
        Ok((records, store.skipped()))
    })
    .run(false);
}

#[test]
fn session_checkpoint() {
    let engine = relm_app::Engine::new(relm_cluster::ClusterSpec::cluster_a());
    let env = relm_tune::TuningEnv::new(engine, relm_workloads::wordcount(), 11);
    let ckpt = SessionCheckpoint::capture(&env);
    let path = scratch_dir("checkpoint").join("s-0001.ckpt.json");
    ckpt.save(&path).unwrap();
    let saved = vec![(ckpt.app.name.clone(), json(&ckpt))];
    Kind::new("checkpoint", path, saved, |p| {
        let ckpt = SessionCheckpoint::load(p).map_err(|e| e.to_string())?;
        Ok((vec![(ckpt.app.name.clone(), json(&ckpt))], 0))
    })
    .run(false);
}

#[test]
fn digest_sidecar() {
    let d = digest(5);
    let path = scratch_dir("digest").join("s-0001.digest.json");
    d.save(&path).unwrap();
    let saved = vec![(d.key().hex(), json(&d))];
    Kind::new("digest", path, saved, |p| {
        let d = SessionDigest::load(p).map_err(|e| e.to_string())?;
        Ok((vec![(d.key().hex(), json(&d))], 0))
    })
    .run(false);
}

#[test]
fn flight_dump() {
    let recorder = FlightRecorder::new(4);
    for trace in 1..=3 {
        recorder.record(FlightEvent::Protocol {
            trace,
            event: "step_auto".to_string(),
            at_us: trace * 250,
            detail: format!("queue={trace}"),
        });
    }
    let dump = recorder.dump("s-0001", "fault");
    let path = save_dump(scratch_dir("flight"), &dump).unwrap();
    let saved = vec![(dump.session.clone(), json(&dump))];
    Kind::new("flight", path, saved, |p| {
        let dump = read_dump(p).map_err(|e| e.to_string())?;
        Ok((vec![(dump.session.clone(), json(&dump))], 0))
    })
    .run(false);
}
