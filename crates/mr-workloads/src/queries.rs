//! Single-optimization query programs (paper §4.3 and App. D).
//!
//! Each program isolates one optimization so Tables 3–6 can measure it
//! alone:
//!
//! * [`selection_query`] — `SELECT pageRank, COUNT(url) FROM WebPages
//!   WHERE pageRank > t GROUP BY pageRank` (Table 3);
//! * [`projection_query`] — `SELECT url, pageRank FROM WebPages WHERE
//!   pageRank > t` (Table 4; `content` is never touched);
//! * [`duration_sum_query`] — sum `duration` grouped by `destURL`
//!   without emitting the URL (Tables 5 and 6).

use mr_ir::builder::FunctionBuilder;
use mr_ir::function::Program;
use mr_ir::instr::{CmpOp, ParamId};

use crate::data::{uservisits_schema, webpages_schema};

/// Threshold for a target selectivity: ranks are uniform in `0..100`,
/// so `rank > t` keeps `99 - t` percent.
pub fn threshold_for_selectivity(percent: u32) -> i64 {
    debug_assert!(percent <= 100);
    99 - percent as i64
}

/// Table 3's program: emit `(pageRank, url)` when `pageRank > t`;
/// reduce with `Count` to get `COUNT(url) GROUP BY pageRank`.
pub fn selection_query(threshold: i64) -> Program {
    let mut b = FunctionBuilder::new("selection_map");
    let v = b.load_param(ParamId::Value);
    let rank = b.get_field(v, "rank");
    let t = b.const_int(threshold);
    let cond = b.cmp(CmpOp::Gt, rank, t);
    let (hit, exit) = (b.fresh_label("hit"), b.fresh_label("exit"));
    b.br(cond, hit, exit);
    b.bind(hit);
    let url = b.get_field(v, "url");
    b.emit(rank, url);
    b.bind(exit);
    b.ret();
    Program::new(
        format!("selection-query-t{threshold}"),
        b.finish(),
        webpages_schema(),
    )
}

/// Table 4's program: emit `(url, pageRank)` when `pageRank > t`.
/// The large `content` field is never examined, so projection removes
/// it from the on-disk layout.
pub fn projection_query(threshold: i64) -> Program {
    let mut b = FunctionBuilder::new("projection_map");
    let v = b.load_param(ParamId::Value);
    let rank = b.get_field(v, "rank");
    let t = b.const_int(threshold);
    let cond = b.cmp(CmpOp::Gt, rank, t);
    let (hit, exit) = (b.fresh_label("hit"), b.fresh_label("exit"));
    b.br(cond, hit, exit);
    b.bind(hit);
    let url = b.get_field(v, "url");
    b.emit(url, rank);
    b.bind(exit);
    b.ret();
    Program::new(
        format!("projection-query-t{threshold}"),
        b.finish(),
        webpages_schema(),
    )
}

/// Tables 5 and 6's program: "sums all duration values … groups these
/// sums by destURL, but does not in the end emit the URL; it simply
/// uses destURL as the key parameter to reduce()". Run it with
/// `Builtin::SumDropKey`.
pub fn duration_sum_query() -> Program {
    let mut b = FunctionBuilder::new("duration_sum_map");
    let v = b.load_param(ParamId::Value);
    let url = b.get_field(v, "destURL");
    let duration = b.get_field(v, "duration");
    b.emit(url, duration);
    b.ret();
    Program::new("duration-sum-query", b.finish(), uservisits_schema())
        .with_key_dropped_from_output()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_ir::interp::Interpreter;
    use mr_ir::record::record;
    use mr_ir::value::Value;
    use mr_ir::verify::verify;

    #[test]
    fn all_queries_verify() {
        for p in [
            selection_query(39),
            projection_query(89),
            duration_sum_query(),
        ] {
            verify(&p.mapper).unwrap_or_else(|e| panic!("{}: {e:?}", p.name));
        }
    }

    #[test]
    fn threshold_math() {
        assert_eq!(threshold_for_selectivity(60), 39); // rank > 39 → 60%
        assert_eq!(threshold_for_selectivity(10), 89);
        assert_eq!(threshold_for_selectivity(100), -1); // everything
    }

    #[test]
    fn selection_query_emits_rank_keyed() {
        let p = selection_query(50);
        let s = webpages_schema();
        let mut interp = Interpreter::new(&p.mapper);
        let page = record(&s, vec!["http://a".into(), 60.into(), "c".into()]);
        let out = interp
            .invoke_map(&p.mapper, &Value::Int(0), &page.into())
            .unwrap();
        assert_eq!(out.emits, vec![(Value::Int(60), Value::str("http://a"))]);
        let page = record(&s, vec!["http://b".into(), 50.into(), "c".into()]);
        let out = interp
            .invoke_map(&p.mapper, &Value::Int(1), &page.into())
            .unwrap();
        assert!(out.emits.is_empty());
    }

    #[test]
    fn duration_query_flags_key_dropped() {
        let p = duration_sum_query();
        assert!(!p.key_in_final_output);
        assert!(!p.requires_sorted_output);
    }
}
