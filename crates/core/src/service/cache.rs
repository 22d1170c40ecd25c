//! A size-bounded LRU cache for hot job results.
//!
//! The daemon's whole value proposition is reuse across submissions:
//! identical jobs over unchanged inputs should cost a cache lookup, not
//! a MapReduce run. Entries are keyed by the full request payload
//! (program text, input path, reducer, knobs) — the bytes themselves,
//! not a hash of them, so two requests share an entry only when they
//! are equal — and priced by the bytes of that key plus their encoded
//! output, so one huge result can't silently pin the budget. Eviction is least-recently-used; invalidation drops every
//! entry whose *input file* was regenerated, because a new file under
//! the same path makes the cached output a lie regardless of recency.
//! A regeneration nobody announces is caught too: every entry keeps
//! the [`InputStamp`] its input had before the job read it, and a
//! lookup under a different stamp drops the entry.

use std::collections::HashMap;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// What an input file looked like when it was stat-ed: length,
/// modification time, device and inode. A rewrite in place changes the
/// length or the mtime; a replacement by rename changes the inode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputStamp {
    len: u64,
    mtime: Option<SystemTime>,
    dev: u64,
    ino: u64,
}

impl InputStamp {
    /// Stat `path`.
    pub fn of(path: &Path) -> std::io::Result<InputStamp> {
        let m = std::fs::metadata(path)?;
        Ok(InputStamp {
            len: m.len(),
            mtime: m.modified().ok(),
            dev: m.dev(),
            ino: m.ino(),
        })
    }
}

/// What a [`ResultCache::get`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// A result computed over the input as it is now.
    Hit(CachedResult),
    /// Nothing cached for the key.
    Miss,
    /// A result computed over an input that has changed since; the
    /// entry is gone.
    Stale,
}

/// A cached execution result — the reply fields that survive reuse
/// (`cache_hit`/`deduped_builds` are per-submission, not cacheable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedResult {
    /// Human-readable summary of the plan that produced this result.
    pub plan: String,
    /// Applied optimizations.
    pub applied: Vec<String>,
    /// Engaged combiner name, if any.
    pub combiner: Option<String>,
    /// Output pairs, hex-encoded (rowcodec) — the wire form, so a hit
    /// serializes without re-encoding.
    pub output_hex: Vec<(String, String)>,
}

impl CachedResult {
    /// The cache cost of this entry: the bytes its strings occupy.
    pub fn cost(&self) -> usize {
        self.plan.len()
            + self.applied.iter().map(String::len).sum::<usize>()
            + self.combiner.as_ref().map_or(0, String::len)
            + self
                .output_hex
                .iter()
                .map(|(k, v)| k.len() + v.len())
                .sum::<usize>()
    }
}

#[derive(Debug)]
struct CacheSlot {
    input: PathBuf,
    stamp: InputStamp,
    cost: usize,
    /// Monotonic recency stamp; smallest = least recently used.
    tick: u64,
    value: CachedResult,
}

/// The size-bounded LRU (see module docs).
#[derive(Debug)]
pub struct ResultCache {
    max_bytes: usize,
    bytes: usize,
    tick: u64,
    slots: HashMap<Vec<u8>, CacheSlot>,
    evictions: u64,
}

impl ResultCache {
    /// A cache bounded at `max_bytes` of entry cost.
    pub fn new(max_bytes: usize) -> ResultCache {
        ResultCache {
            max_bytes,
            bytes: 0,
            tick: 0,
            slots: HashMap::new(),
            evictions: 0,
        }
    }

    /// Look up a result for `key` whose input is stamped `stamp` now,
    /// refreshing its recency on a hit and dropping it if the input
    /// has changed since the result was computed.
    pub fn get(&mut self, key: &[u8], stamp: &InputStamp) -> Lookup {
        self.tick += 1;
        let Some(slot) = self.slots.get_mut(key) else {
            return Lookup::Miss;
        };
        if slot.stamp != *stamp {
            let cost = slot.cost;
            self.slots.remove(key);
            self.bytes -= cost;
            return Lookup::Stale;
        }
        slot.tick = self.tick;
        Lookup::Hit(slot.value.clone())
    }

    /// Insert a result for `key` over `input`, stamped `stamp` before
    /// the job read it, evicting least-recently-used entries until it
    /// fits. An entry (key bytes included) larger than the whole budget
    /// is not cached at all.
    pub fn insert(&mut self, key: Vec<u8>, input: &Path, stamp: InputStamp, value: CachedResult) {
        let cost = key.len() + value.cost();
        if cost > self.max_bytes {
            return;
        }
        if let Some(old) = self.slots.remove(&key) {
            self.bytes -= old.cost;
        }
        while self.bytes + cost > self.max_bytes {
            let Some((lru, _)) = self.slots.iter().min_by_key(|(_, s)| s.tick) else {
                break;
            };
            let lru = lru.clone();
            let evicted = self.slots.remove(&lru).expect("lru key present");
            self.bytes -= evicted.cost;
            self.evictions += 1;
        }
        self.tick += 1;
        self.bytes += cost;
        self.slots.insert(
            key,
            CacheSlot {
                input: input.to_path_buf(),
                stamp,
                cost,
                tick: self.tick,
                value,
            },
        );
    }

    /// Drop every entry computed over `input` (the file was
    /// regenerated). Returns how many entries were dropped.
    pub fn invalidate_input(&mut self, input: &Path) -> usize {
        let doomed: Vec<Vec<u8>> = self
            .slots
            .iter()
            .filter(|(_, s)| s.input == input)
            .map(|(k, _)| k.clone())
            .collect();
        for k in &doomed {
            let slot = self.slots.remove(k).expect("doomed key present");
            self.bytes -= slot.cost;
        }
        doomed.len()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Current total entry cost in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Entries evicted by the size bound since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One stamp for every entry: these tests are about keys, cost and
    /// recency.
    const STAMP: InputStamp = InputStamp {
        len: 0,
        mtime: None,
        dev: 0,
        ino: 0,
    };

    fn hit(c: &mut ResultCache, key: &[u8]) -> Option<CachedResult> {
        match c.get(key, &STAMP) {
            Lookup::Hit(r) => Some(r),
            _ => None,
        }
    }

    fn result(tag: &str, pad: usize) -> CachedResult {
        CachedResult {
            plan: tag.to_string(),
            applied: vec![],
            combiner: None,
            output_hex: vec![("ab".repeat(pad / 2).to_string(), String::new())],
        }
    }

    #[test]
    fn hit_miss_and_cost_accounting() {
        let mut c = ResultCache::new(1024);
        assert!(hit(&mut c, &[1]).is_none());
        let r = result("plan", 100);
        c.insert(vec![1], Path::new("/a"), STAMP, r.clone());
        assert_eq!(hit(&mut c, &[1]), Some(r.clone()));
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 1 + r.cost());
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        // Budget fits two ~100-byte entries, not three.
        let mut c = ResultCache::new(260);
        c.insert(vec![1], Path::new("/a"), STAMP, result("one!", 100));
        c.insert(vec![2], Path::new("/a"), STAMP, result("two!", 100));
        hit(&mut c, &[1]); // 1 is now fresher than 2
        c.insert(vec![3], Path::new("/a"), STAMP, result("tri!", 100));
        assert!(hit(&mut c, &[2]).is_none(), "LRU entry 2 evicted");
        assert!(hit(&mut c, &[1]).is_some(), "recently-used entry 1 kept");
        assert!(hit(&mut c, &[3]).is_some());
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let mut c = ResultCache::new(64);
        c.insert(vec![1], Path::new("/a"), STAMP, result("huge", 1000));
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn reinsert_replaces_without_leaking_cost() {
        let mut c = ResultCache::new(1024);
        c.insert(vec![1], Path::new("/a"), STAMP, result("v1", 100));
        c.insert(vec![1], Path::new("/a"), STAMP, result("v2", 200));
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 1 + hit(&mut c, &[1]).unwrap().cost());
    }

    #[test]
    fn invalidation_drops_exactly_the_inputs_entries() {
        let mut c = ResultCache::new(4096);
        c.insert(vec![1], Path::new("/a"), STAMP, result("a1", 50));
        c.insert(vec![2], Path::new("/a"), STAMP, result("a2", 50));
        c.insert(vec![3], Path::new("/b"), STAMP, result("b1", 50));
        assert_eq!(c.invalidate_input(Path::new("/a")), 2);
        assert!(hit(&mut c, &[1]).is_none());
        assert!(hit(&mut c, &[2]).is_none());
        assert!(hit(&mut c, &[3]).is_some(), "other inputs untouched");
        assert_eq!(c.invalidate_input(Path::new("/missing")), 0);
    }

    #[test]
    fn a_changed_input_drops_its_entry() {
        let mut c = ResultCache::new(4096);
        c.insert(vec![1], Path::new("/a"), STAMP, result("old", 50));
        let rewritten = InputStamp { len: 1, ..STAMP };
        assert_eq!(c.get(&[1], &rewritten), Lookup::Stale);
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.get(&[1], &STAMP), Lookup::Miss, "dropped, not hidden");
    }

    #[test]
    fn distinct_payloads_never_share_an_entry() {
        // Near misses — one byte apart, or one a prefix of another —
        // each keep their own entry: a hit compares the whole key.
        let mut c = ResultCache::new(1 << 20);
        let keys: Vec<Vec<u8>> = vec![
            b"payload".to_vec(),
            b"payloae".to_vec(),
            b"payload\0".to_vec(),
            b"payloa".to_vec(),
            Vec::new(),
        ];
        for (i, k) in keys.iter().enumerate() {
            c.insert(
                k.clone(),
                Path::new("/a"),
                STAMP,
                result(&format!("r{i}"), 10),
            );
        }
        assert_eq!(c.len(), keys.len());
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(hit(&mut c, k).unwrap().plan, format!("r{i}"), "{k:?}");
        }
        assert!(hit(&mut c, b"payload!").is_none());
    }
}
