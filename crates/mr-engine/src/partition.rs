//! The shuffle partitioner.

use std::hash::{Hash, Hasher};

use mr_ir::value::Value;

/// The 64-bit hash the shuffle knows a key by. Fixed-key SipHash, so it
/// is the same in every process and run; equal keys hash equal
/// (`Int(2)` and `Double(2.0)` included).
pub(crate) fn key_hash(key: &Value) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// Deterministically assign a key to one of `n` reduce partitions —
/// Hadoop's default hash partitioner.
pub fn partition(key: &Value, n: usize) -> usize {
    debug_assert!(n > 0);
    (key_hash(key) % n as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_and_in_range() {
        for n in [1usize, 2, 7, 16] {
            for i in 0..100 {
                let k = Value::Int(i);
                let p = partition(&k, n);
                assert!(p < n);
                assert_eq!(p, partition(&k, n), "deterministic");
            }
        }
    }

    #[test]
    fn equal_values_one_partition() {
        // Int(2) and Double(2.0) compare equal and `Value::hash` hashes
        // integral doubles as ints, so they share a partition — and a
        // staging-table entry.
        assert_eq!(key_hash(&Value::Int(2)), key_hash(&Value::Double(2.0)));
        assert_eq!(
            partition(&Value::Int(2), 8),
            partition(&Value::Double(2.0), 8)
        );
    }

    #[test]
    fn spreads_keys() {
        let n = 8;
        let mut seen = vec![false; n];
        for i in 0..1000 {
            seen[partition(&Value::Int(i), n)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all partitions used");
    }
}
