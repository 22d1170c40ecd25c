//! Property tests for the loser-tree k-way merge through the public
//! API: for arbitrary run sets it produces the stable sort of the
//! concatenation, because it breaks key ties by run index. (The
//! binary-heap reference it is compared against lives in `merge.rs`'s
//! own tests.)

use std::sync::Arc;

use proptest::prelude::*;

use mr_engine::{LoserTree, RunStream};
use mr_ir::value::Value;

/// Sorted runs from a proptest-generated ragged list of i64 keys.
fn make_runs(raw: &[Vec<i64>]) -> Vec<Vec<(Value, Value)>> {
    raw.iter()
        .enumerate()
        .map(|(run, keys)| {
            let mut pairs: Vec<(Value, Value)> = keys
                .iter()
                .enumerate()
                // The value encodes (run, position) so equal keys from
                // different runs stay distinguishable in the output —
                // any tie-break deviation changes the merged sequence.
                .map(|(i, k)| (Value::Int(*k), Value::str(format!("r{run}p{i}"))))
                .collect();
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            pairs
        })
        .collect()
}

fn streams_of(runs: &[Vec<(Value, Value)>]) -> Vec<RunStream> {
    runs.iter()
        .map(|r| RunStream::shared(Arc::new(r.clone())))
        .collect()
}

fn collect(iter: impl Iterator<Item = mr_engine::Result<(Value, Value)>>) -> Vec<(Value, Value)> {
    iter.map(|r| r.unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Loser tree ≡ stable sort, for every width the generator
    /// produces (including 0, 1, and non-power-of-two widths) and for
    /// key distributions heavy with cross-run ties.
    #[test]
    fn loser_tree_is_the_stable_sort_on_random_runs(
        raw in proptest::collection::vec(
            proptest::collection::vec(-8i64..8, 0..40),
            0..12,
        ),
    ) {
        let runs = make_runs(&raw);
        let tree = collect(LoserTree::new(streams_of(&runs)).unwrap());
        // Ties break by run index, then by position within the run.
        let mut reference: Vec<(Value, Value)> = runs.concat();
        reference.sort_by(|a, b| a.0.cmp(&b.0));
        prop_assert_eq!(&tree, &reference, "merge is not the stable sort");
    }

    /// Pulling through the tree is oblivious to how pairs are sliced
    /// into runs: re-chunking the same sorted data yields the same
    /// sequence of keys (values differ — they encode provenance).
    #[test]
    fn chunking_is_invisible_to_key_order(
        keys in proptest::collection::vec(-20i64..20, 1..120),
        cut in 1usize..6,
    ) {
        let mut sorted = keys.clone();
        sorted.sort_unstable();

        // One big run vs `cut`-way round-robin split of the same keys.
        let whole = make_runs(std::slice::from_ref(&keys));
        let mut parts: Vec<Vec<i64>> = vec![Vec::new(); cut];
        for (i, k) in keys.iter().enumerate() {
            parts[i % cut].push(*k);
        }
        let split = make_runs(&parts);

        let whole_keys: Vec<i64> = collect(LoserTree::new(streams_of(&whole)).unwrap())
            .into_iter()
            .map(|(k, _)| k.as_int().unwrap())
            .collect();
        let split_keys: Vec<i64> = collect(LoserTree::new(streams_of(&split)).unwrap())
            .into_iter()
            .map(|(k, _)| k.as_int().unwrap())
            .collect();
        prop_assert_eq!(&whole_keys, &sorted);
        prop_assert_eq!(&split_keys, &sorted);
    }
}
