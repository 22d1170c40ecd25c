//! The library-call registry.
//!
//! Every [`Instr::Call`](crate::instr::Instr::Call) resolves through this
//! registry, which carries two things per function:
//!
//! 1. an evaluator, used by the interpreter, and
//! 2. a **purity level**, used by the analyzer's `isFunc` test. The
//!    paper's analyzer "has built-in knowledge of standard language
//!    operations and some common class library methods, such as those
//!    associated with `String`, `Pattern`, etc." — and, crucially, it
//!    *lacks* knowledge of `java.util.Hashtable`, which is exactly why
//!    the Benchmark-4 selection goes undetected (Table 1). The `ht.*`
//!    family here is therefore registered with [`Purity::Unknown`] even
//!    though its implementation happens to be functional.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;
use std::sync::OnceLock;

use crate::error::IrError;
use crate::value::Value;

/// What the analyzer may assume about a callable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Purity {
    /// Known functional: the result depends only on the arguments, and
    /// there are no side effects. Safe inside an emit-relevant use-def
    /// DAG.
    Pure,
    /// The analyzer has no built-in knowledge of this method. It might
    /// be functional, but `isFunc` must conservatively reject it.
    Unknown,
    /// Known impure (clocks, random sources). Always rejected.
    Impure,
}

type EvalFn = fn(&str, &[Value]) -> Result<Value, IrError>;

/// Registry entry for one callable.
#[derive(Clone)]
pub struct FuncDef {
    /// Registry name, e.g. `"str.contains"`.
    pub name: &'static str,
    /// Number of arguments.
    pub arity: usize,
    /// Analyzer-visible purity.
    pub purity: Purity,
    /// Interpreter evaluator.
    pub eval: EvalFn,
    /// One-line description for documentation/printing.
    pub doc: &'static str,
}

impl FuncDef {
    /// Evaluate with `args`; checks arity.
    pub fn call(&self, args: &[Value]) -> Result<Value, IrError> {
        if args.len() != self.arity {
            return Err(IrError::Arity {
                func: self.name.to_string(),
                expected: self.arity,
                got: args.len(),
            });
        }
        (self.eval)(self.name, args)
    }
}

impl std::fmt::Debug for FuncDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FuncDef")
            .field("name", &self.name)
            .field("arity", &self.arity)
            .field("purity", &self.purity)
            .finish()
    }
}

/// The stdlib: a lookup table of callables.
pub struct Stdlib {
    funcs: HashMap<&'static str, FuncDef>,
}

impl Stdlib {
    /// Look up a function by registry name. The process-wide registry
    /// ([`stdlib`]) hands out `&'static` entries, which is how the
    /// interpreter resolves each call site once per task.
    pub fn get(&self, name: &str) -> Option<&FuncDef> {
        self.funcs.get(name)
    }

    /// Whether a call to `name` is known pure. Unknown names are not
    /// pure — the analyzer must reject what it cannot resolve.
    pub fn is_pure(&self, name: &str) -> bool {
        self.get(name).is_some_and(|f| f.purity == Purity::Pure)
    }

    /// Evaluate a call; checks existence and arity.
    pub fn eval(&self, name: &str, args: &[Value]) -> Result<Value, IrError> {
        self.get(name)
            .ok_or_else(|| IrError::UnknownFunction(name.to_string()))?
            .call(args)
    }

    /// All registered names, sorted (for documentation output).
    pub fn names(&self) -> Vec<&'static str> {
        let mut v: Vec<_> = self.funcs.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

/// The process-wide registry.
pub fn stdlib() -> &'static Stdlib {
    static REGISTRY: OnceLock<Stdlib> = OnceLock::new();
    REGISTRY.get_or_init(build_registry)
}

// ---- evaluator helpers -------------------------------------------------

fn type_err(ctx: &str, expected: &'static str, got: &Value) -> IrError {
    IrError::Type {
        context: ctx.to_string(),
        expected,
        got: got.kind_name(),
    }
}

fn want_str<'a>(ctx: &str, v: &'a Value) -> Result<&'a str, IrError> {
    v.as_str().ok_or_else(|| type_err(ctx, "str", v))
}

fn want_int(ctx: &str, v: &Value) -> Result<i64, IrError> {
    v.as_int().ok_or_else(|| type_err(ctx, "int", v))
}

fn want_num(ctx: &str, v: &Value) -> Result<f64, IrError> {
    v.as_double().ok_or_else(|| type_err(ctx, "number", v))
}

fn want_list<'a>(ctx: &str, v: &'a Value) -> Result<&'a [Value], IrError> {
    match v {
        Value::List(l) => Ok(l),
        _ => Err(type_err(ctx, "list", v)),
    }
}

fn want_map<'a>(ctx: &str, v: &'a Value) -> Result<&'a BTreeMap<Value, Value>, IrError> {
    match v {
        Value::Map(m) => Ok(m),
        _ => Err(type_err(ctx, "map", v)),
    }
}

fn want_record<'a>(ctx: &str, v: &'a Value) -> Result<&'a crate::record::Record, IrError> {
    v.as_record().ok_or_else(|| type_err(ctx, "record", v))
}

/// Glob matching with `*` (any run) and `?` (any single char).
/// This stands in for `java.util.regex.Pattern` — a pure string
/// predicate the analyzer whitelists; full regular expressions are not
/// needed by any workload in the paper.
pub fn glob_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    // Classic two-pointer with backtracking to the last `*`.
    let (mut pi, mut ti) = (0usize, 0usize);
    let (mut star, mut mark) = (usize::MAX, 0usize);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '?' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = pi;
            mark = ti;
            pi += 1;
        } else if star != usize::MAX {
            pi = star + 1;
            mark += 1;
            ti = mark;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

/// Extract `http(s)://…` URLs from free text, the UDF-aggregation
/// primitive of Pavlo Benchmark 4 (finding in-links in page content).
pub fn extract_urls(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(pos) = text[i..].find("http") {
        let start = i + pos;
        let rest = &text[start..];
        let scheme_len = if rest.starts_with("https://") {
            8
        } else if rest.starts_with("http://") {
            7
        } else {
            i = start + 4;
            continue;
        };
        let mut end = start + scheme_len;
        while end < bytes.len() {
            let c = bytes[end] as char;
            if c.is_ascii_alphanumeric() || "-._~:/?#[]@!$&'()*+,;=%".contains(c) {
                end += 1;
            } else {
                break;
            }
        }
        if end > start + scheme_len {
            out.push(text[start..end].to_string());
        }
        i = end.max(start + 4);
    }
    out
}

// ---- the registry ------------------------------------------------------

macro_rules! def {
    ($map:expr, $name:literal, $arity:expr, $purity:expr, $doc:literal, $eval:expr) => {
        $map.insert(
            $name,
            FuncDef {
                name: $name,
                arity: $arity,
                purity: $purity,
                eval: $eval,
                doc: $doc,
            },
        );
    };
}

#[allow(clippy::too_many_lines)]
fn build_registry() -> Stdlib {
    use Purity::*;
    let mut m: HashMap<&'static str, FuncDef> = HashMap::new();

    // --- String methods (whitelisted, paper §3.2) ---
    def!(m, "str.len", 1, Pure, "string length in bytes", |c, a| {
        Ok(Value::Int(want_str(c, &a[0])?.len() as i64))
    });
    def!(
        m,
        "str.contains",
        2,
        Pure,
        "substring containment",
        |c, a| {
            Ok(Value::Bool(
                want_str(c, &a[0])?.contains(want_str(c, &a[1])?),
            ))
        }
    );
    def!(m, "str.starts_with", 2, Pure, "prefix test", |c, a| {
        Ok(Value::Bool(
            want_str(c, &a[0])?.starts_with(want_str(c, &a[1])?),
        ))
    });
    def!(m, "str.ends_with", 2, Pure, "suffix test", |c, a| {
        Ok(Value::Bool(
            want_str(c, &a[0])?.ends_with(want_str(c, &a[1])?),
        ))
    });
    def!(
        m,
        "str.substring",
        3,
        Pure,
        "substring [start, end)",
        |c, a| {
            let s = want_str(c, &a[0])?;
            let start = (want_int(c, &a[1])?.max(0) as usize).min(s.len());
            let end = (want_int(c, &a[2])?.max(0) as usize).clamp(start, s.len());
            // Clamp to char boundaries so malformed offsets degrade, not panic.
            let start = (start..=s.len())
                .find(|&i| s.is_char_boundary(i))
                .unwrap_or(s.len());
            let end = (end..=s.len())
                .find(|&i| s.is_char_boundary(i))
                .unwrap_or(s.len());
            Ok(Value::str(&s[start.min(end)..end]))
        }
    );
    def!(
        m,
        "str.index_of",
        2,
        Pure,
        "index of substring or -1",
        |c, a| {
            let s = want_str(c, &a[0])?;
            Ok(Value::Int(
                s.find(want_str(c, &a[1])?).map_or(-1, |i| i as i64),
            ))
        }
    );
    def!(m, "str.concat", 2, Pure, "concatenation", |c, a| {
        let mut s = want_str(c, &a[0])?.to_string();
        s.push_str(want_str(c, &a[1])?);
        Ok(Value::Str(Arc::from(s.as_str())))
    });
    def!(m, "str.to_lower", 1, Pure, "ASCII lowercase", |c, a| {
        Ok(Value::from(want_str(c, &a[0])?.to_ascii_lowercase()))
    });
    def!(m, "str.to_upper", 1, Pure, "ASCII uppercase", |c, a| {
        Ok(Value::from(want_str(c, &a[0])?.to_ascii_uppercase()))
    });
    def!(
        m,
        "str.trim",
        1,
        Pure,
        "strip surrounding whitespace",
        |c, a| { Ok(Value::str(want_str(c, &a[0])?.trim())) }
    );
    def!(
        m,
        "str.split_get",
        3,
        Pure,
        "nth piece after splitting",
        |c, a| {
            let s = want_str(c, &a[0])?;
            let sep = want_str(c, &a[1])?;
            let n = want_int(c, &a[2])?;
            let piece = if n < 0 {
                None
            } else {
                s.split(sep).nth(n as usize)
            };
            Ok(piece.map_or(Value::Null, Value::str))
        }
    );
    def!(
        m,
        "str.eq_ignore_case",
        2,
        Pure,
        "case-insensitive equality",
        |c, a| {
            Ok(Value::Bool(
                want_str(c, &a[0])?.eq_ignore_ascii_case(want_str(c, &a[1])?),
            ))
        }
    );

    // --- Pattern (whitelisted) ---
    def!(
        m,
        "pattern.matches",
        2,
        Pure,
        "glob match: pattern, text",
        |c, a| {
            Ok(Value::Bool(glob_match(
                want_str(c, &a[0])?,
                want_str(c, &a[1])?,
            )))
        }
    );

    // --- Parsing (whitelisted) ---
    def!(
        m,
        "parse.int",
        1,
        Pure,
        "parse int, null on failure",
        |c, a| {
            Ok(want_str(c, &a[0])?
                .trim()
                .parse::<i64>()
                .map_or(Value::Null, Value::Int))
        }
    );
    def!(
        m,
        "parse.double",
        1,
        Pure,
        "parse double, null on failure",
        |c, a| {
            Ok(want_str(c, &a[0])?
                .trim()
                .parse::<f64>()
                .map_or(Value::Null, Value::Double))
        }
    );

    // --- Math (whitelisted) ---
    def!(m, "math.abs", 1, Pure, "absolute value", |c, a| {
        match &a[0] {
            Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
            Value::Double(d) => Ok(Value::Double(d.abs())),
            v => Err(type_err(c, "number", v)),
        }
    });
    def!(m, "math.min", 2, Pure, "minimum", |c, a| {
        let (x, y) = (want_num(c, &a[0])?, want_num(c, &a[1])?);
        Ok(if x <= y { a[0].clone() } else { a[1].clone() })
    });
    def!(m, "math.max", 2, Pure, "maximum", |c, a| {
        let (x, y) = (want_num(c, &a[0])?, want_num(c, &a[1])?);
        Ok(if x >= y { a[0].clone() } else { a[1].clone() })
    });
    def!(
        m,
        "math.floor_div",
        2,
        Pure,
        "integer floor division",
        |c, a| {
            let d = want_int(c, &a[1])?;
            if d == 0 {
                return Err(IrError::DivByZero);
            }
            Ok(Value::Int(want_int(c, &a[0])?.div_euclid(d)))
        }
    );

    // --- Text utilities (whitelisted) ---
    def!(
        m,
        "text.extract_urls",
        1,
        Pure,
        "extract http(s) URLs from text",
        |c, a| {
            Ok(Value::list(
                extract_urls(want_str(c, &a[0])?)
                    .into_iter()
                    .map(Value::from)
                    .collect(),
            ))
        }
    );

    // --- Lists (whitelisted) ---
    def!(m, "list.len", 1, Pure, "list length", |c, a| {
        Ok(Value::Int(want_list(c, &a[0])?.len() as i64))
    });
    def!(
        m,
        "list.get",
        2,
        Pure,
        "element by index, null if out of range",
        |c, a| {
            let l = want_list(c, &a[0])?;
            let i = want_int(c, &a[1])?;
            Ok(if i < 0 {
                Value::Null
            } else {
                l.get(i as usize).cloned().unwrap_or(Value::Null)
            })
        }
    );

    // --- Opaque-tuple accessors (the AbstractTuple of Pavlo B1). ---
    // Whitelisted as pure record accessors, but they convey *no*
    // information about serialized field boundaries, so projection and
    // delta-compression cannot use them (Table 1, Benchmark 1).
    def!(
        m,
        "tuple.get_int",
        2,
        Pure,
        "opaque-tuple int accessor",
        |c, a| {
            let r = want_record(c, &a[0])?;
            let name = want_str(c, &a[1])?;
            r.get(name)
                .cloned()
                .map_err(|_| IrError::NoSuchField(name.to_string()))
        }
    );
    def!(
        m,
        "tuple.get_str",
        2,
        Pure,
        "opaque-tuple string accessor",
        |c, a| {
            let r = want_record(c, &a[0])?;
            let name = want_str(c, &a[1])?;
            r.get(name)
                .cloned()
                .map_err(|_| IrError::NoSuchField(name.to_string()))
        }
    );

    // --- Hashtable (NOT whitelisted — the Benchmark-4 blind spot). ---
    // The implementation is functional (persistent maps), but the
    // analyzer has no built-in knowledge of it, exactly as the paper's
    // analyzer had none of java.util.Hashtable.
    def!(m, "ht.new", 0, Unknown, "new empty hashtable", |_c, _a| {
        Ok(Value::empty_map())
    });
    def!(
        m,
        "ht.put",
        3,
        Unknown,
        "hashtable with (k, v) inserted",
        |c, a| {
            let base = want_map(c, &a[0])?;
            let mut next = base.clone();
            next.insert(a[1].clone(), a[2].clone());
            Ok(Value::Map(Arc::new(next)))
        }
    );
    def!(
        m,
        "ht.contains",
        2,
        Unknown,
        "key containment test",
        |c, a| { Ok(Value::Bool(want_map(c, &a[0])?.contains_key(&a[1]))) }
    );
    def!(
        m,
        "ht.get",
        2,
        Unknown,
        "lookup, null when absent",
        |c, a| {
            Ok(want_map(c, &a[0])?
                .get(&a[1])
                .cloned()
                .unwrap_or(Value::Null))
        }
    );

    // --- Known-impure sources (clock, randomness). ---
    def!(
        m,
        "time.now_millis",
        0,
        Impure,
        "wall-clock time",
        |_c, _a| {
            let ms = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as i64)
                .unwrap_or(0);
            Ok(Value::Int(ms))
        }
    );
    def!(
        m,
        "rng.next_int",
        1,
        Impure,
        "pseudo-random int in [0, n)",
        |c, a| {
            // A deliberately weak LCG seeded from the clock; the point is
            // that the analyzer must refuse to reason about it.
            let n = want_int(c, &a[0])?.max(1);
            let seed = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.subsec_nanos() as i64)
                .unwrap_or(12345);
            Ok(Value::Int(
                (seed.wrapping_mul(6364136223846793005) >> 16).rem_euclid(n),
            ))
        }
    );

    Stdlib { funcs: m }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn purity_classification() {
        let lib = stdlib();
        assert!(lib.is_pure("str.contains"));
        assert!(lib.is_pure("pattern.matches"));
        assert!(lib.is_pure("tuple.get_int"));
        assert!(!lib.is_pure("ht.contains"), "Hashtable must be unknown");
        assert!(!lib.is_pure("time.now_millis"));
        assert!(!lib.is_pure("no.such.fn"));
    }

    #[test]
    fn string_functions() {
        let lib = stdlib();
        let r = lib
            .eval("str.contains", &[Value::str("hello"), Value::str("ell")])
            .unwrap();
        assert_eq!(r, Value::Bool(true));
        let r = lib
            .eval(
                "str.substring",
                &[Value::str("hello"), Value::Int(1), Value::Int(3)],
            )
            .unwrap();
        assert_eq!(r, Value::str("el"));
        let r = lib
            .eval(
                "str.split_get",
                &[Value::str("a,b,c"), Value::str(","), Value::Int(1)],
            )
            .unwrap();
        assert_eq!(r, Value::str("b"));
    }

    #[test]
    fn arity_and_unknown_errors() {
        let lib = stdlib();
        assert!(matches!(
            lib.eval("str.len", &[]),
            Err(IrError::Arity { .. })
        ));
        assert!(matches!(
            lib.eval("nope", &[]),
            Err(IrError::UnknownFunction(_))
        ));
    }

    #[test]
    fn glob_matching() {
        assert!(glob_match("*.log", "server.log"));
        assert!(glob_match("a?c", "abc"));
        assert!(!glob_match("a?c", "ac"));
        assert!(glob_match("*", ""));
        assert!(glob_match("ab*cd*ef", "abXXcdYYef"));
        assert!(!glob_match("ab*cd", "abce"));
        assert!(glob_match("**", "anything"));
    }

    #[test]
    fn url_extraction() {
        let urls = extract_urls("see http://a.com/x and https://b.org, done");
        assert_eq!(urls, vec!["http://a.com/x", "https://b.org,"]);
        assert!(extract_urls("no urls here").is_empty());
        assert!(extract_urls("http:// nothing").is_empty());
    }

    #[test]
    fn hashtable_is_functional_but_unknown() {
        let lib = stdlib();
        let empty = lib.eval("ht.new", &[]).unwrap();
        let with = lib
            .eval("ht.put", &[empty.clone(), Value::Int(1), Value::str("x")])
            .unwrap();
        assert_eq!(
            lib.eval("ht.contains", &[with.clone(), Value::Int(1)])
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            lib.eval("ht.contains", &[empty, Value::Int(1)]).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            lib.eval("ht.get", &[with, Value::Int(2)]).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn parse_failures_yield_null() {
        let lib = stdlib();
        assert_eq!(
            lib.eval("parse.int", &[Value::str("zz")]).unwrap(),
            Value::Null
        );
        assert_eq!(
            lib.eval("parse.int", &[Value::str(" 42 ")]).unwrap(),
            Value::Int(42)
        );
    }

    #[test]
    fn substring_handles_multibyte_without_panicking() {
        let lib = stdlib();
        // Offsets landing inside a multi-byte char degrade gracefully.
        let r = lib
            .eval(
                "str.substring",
                &[Value::str("aé b"), Value::Int(0), Value::Int(2)],
            )
            .unwrap();
        assert!(matches!(r, Value::Str(_)));
    }

    #[test]
    fn names_sorted_and_documented() {
        let lib = stdlib();
        let names = lib.names();
        assert!(names.windows(2).all(|w| w[0] < w[1]));
        for n in names {
            assert!(!lib.get(n).unwrap().doc.is_empty());
        }
    }
}
