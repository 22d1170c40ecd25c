//! The MR-IR interpreter.
//!
//! The execution fabric runs one [`Interpreter`] per map task. Member
//! variables persist across `map()` invocations within a task — exactly
//! the Java `Mapper`-object lifetime that makes the paper's Fig. 2
//! program unsafe to optimize.
//!
//! The per-record loop does no lookup by name and no allocation of its
//! own: construction resolves every `call` to its registry entry, call
//! arguments go through one reused buffer, operands are borrowed from
//! the register frame, and [`Interpreter::invoke_map_into`] appends
//! emits to the caller's buffer. Construction also gives string and byte
//! constants a task-private copy, so the map threads running one shared
//! [`Function`] never write the same reference count.

use std::collections::HashMap;

use crate::error::IrError;
use crate::function::Function;
use crate::instr::{BinOp, Instr, ParamId, Reg, SideEffectKind};
use crate::stdlib::{stdlib, FuncDef};
use crate::value::Value;

/// Everything a single `map()` invocation produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MapOutput {
    /// `(key, value)` pairs sent to the shuffle.
    pub emits: Vec<(Value, Value)>,
    /// Output-invisible side effects, recorded for inspection.
    pub effects: Vec<(SideEffectKind, Vec<Value>)>,
    /// Instructions executed (for work accounting in benchmarks).
    pub instructions_executed: u64,
}

/// Interpreter configuration.
#[derive(Debug, Clone, Copy)]
pub struct InterpConfig {
    /// Maximum instructions per invocation before [`IrError::FuelExhausted`].
    pub fuel: u64,
}

impl Default for InterpConfig {
    fn default() -> Self {
        // Generous: real map functions are tiny; this only exists to
        // turn accidental infinite loops into errors.
        InterpConfig { fuel: 10_000_000 }
    }
}

/// A map-task interpreter holding cross-invocation member state.
#[derive(Debug)]
pub struct Interpreter {
    config: InterpConfig,
    members: HashMap<String, Value>,
    /// Scratch register frame, reused across invocations to avoid
    /// per-record allocation.
    frame: Vec<Option<Value>>,
    /// What construction resolved in the function.
    prepared: Prepared,
    /// Call arguments, reused by every call.
    argv: Vec<Value>,
    /// Side effects of the latest invocation.
    effects: Vec<(SideEffectKind, Vec<Value>)>,
}

/// The function as one task runs it: one [`Site`] per instruction.
#[derive(Debug)]
struct Prepared {
    /// The prepared function's instruction buffer (address, length). A
    /// task passes the same function on every invocation; anything else
    /// is prepared afresh.
    identity: (usize, usize),
    sites: Vec<Site>,
}

/// What an instruction needs beyond its own operands.
#[derive(Debug)]
enum Site {
    /// Nothing.
    Plain,
    /// A `const` instruction's value, copied for this task.
    Const(Value),
    /// A `call`'s registry entry; `None` for a name the registry lacks,
    /// reported when (and only if) the call executes.
    Call(Option<&'static FuncDef>),
}

impl Prepared {
    fn new(func: &Function) -> Prepared {
        let lib = stdlib();
        Prepared {
            identity: identity(func),
            sites: func
                .instrs
                .iter()
                .map(|instr| match instr {
                    Instr::Const { val, .. } => Site::Const(private_copy(val)),
                    Instr::Call { func: name, .. } => Site::Call(lib.get(name)),
                    _ => Site::Plain,
                })
                .collect(),
        }
    }
}

fn identity(func: &Function) -> (usize, usize) {
    (func.instrs.as_ptr() as usize, func.instrs.len())
}

/// A copy of `v` that shares no reference count with it: strings and
/// byte arrays are re-allocated, everything else is cloned.
fn private_copy(v: &Value) -> Value {
    match v {
        Value::Str(s) => Value::str(&**s),
        Value::Bytes(b) => Value::bytes(&**b),
        other => other.clone(),
    }
}

/// Borrow a bound register.
fn reg(frame: &[Option<Value>], r: Reg) -> Result<&Value, IrError> {
    frame[r.0 as usize]
        .as_ref()
        .ok_or(IrError::UnboundRegister(r))
}

impl Interpreter {
    /// Create an interpreter for one task running `func`, initializing
    /// member variables to their declared values. Unknown call targets
    /// are not an error here; they fail the invocation that reaches them.
    pub fn new(func: &Function) -> Self {
        Self::with_config(func, InterpConfig::default())
    }

    /// Create with an explicit configuration.
    pub fn with_config(func: &Function, config: InterpConfig) -> Self {
        Interpreter {
            config,
            members: func
                .members
                .iter()
                .map(|(n, v)| (n.clone(), private_copy(v)))
                .collect(),
            frame: vec![None; func.num_regs()],
            prepared: Prepared::new(func),
            argv: Vec::new(),
            effects: Vec::new(),
        }
    }

    /// Current value of a member variable (used by tests to observe the
    /// Fig. 2 hazard).
    pub fn member(&self, name: &str) -> Option<&Value> {
        self.members.get(name)
    }

    /// Side effects the latest invocation recorded.
    pub fn effects(&self) -> &[(SideEffectKind, Vec<Value>)] {
        &self.effects
    }

    /// Run one `map(key, value)` invocation.
    pub fn invoke_map(
        &mut self,
        func: &Function,
        key: &Value,
        value: &Value,
    ) -> Result<MapOutput, IrError> {
        let mut emits = Vec::new();
        let instructions_executed = self.invoke_map_into(func, key, value, &mut emits)?;
        Ok(MapOutput {
            emits,
            effects: std::mem::take(&mut self.effects),
            instructions_executed,
        })
    }

    /// Run one `map(key, value)` invocation, appending its emits to
    /// `emits`; returns the instructions executed. The invocation's side
    /// effects are left in [`effects`](Self::effects). On error, emits
    /// made before the failing instruction stay appended.
    pub fn invoke_map_into(
        &mut self,
        func: &Function,
        key: &Value,
        value: &Value,
        emits: &mut Vec<(Value, Value)>,
    ) -> Result<u64, IrError> {
        if self.prepared.identity != identity(func) {
            self.prepared = Prepared::new(func);
            self.frame
                .resize(self.frame.len().max(func.num_regs()), None);
        }
        for slot in &mut self.frame {
            *slot = None;
        }
        self.effects.clear();
        let mut executed = 0u64;
        let mut pc: usize = 0;

        loop {
            let instr = func.instrs.get(pc).ok_or(IrError::FellOffEnd)?;
            if executed == self.config.fuel {
                return Err(IrError::FuelExhausted);
            }
            executed += 1;
            match instr {
                Instr::Const { dst, .. } => {
                    let Site::Const(v) = &self.prepared.sites[pc] else {
                        unreachable!("site {pc} was prepared from a const")
                    };
                    self.frame[dst.0 as usize] = Some(v.clone());
                }
                Instr::Move { dst, src } => {
                    let v = reg(&self.frame, *src)?.clone();
                    self.frame[dst.0 as usize] = Some(v);
                }
                Instr::LoadParam { dst, param } => {
                    let v = match param {
                        ParamId::Key => key.clone(),
                        ParamId::Value => value.clone(),
                    };
                    self.frame[dst.0 as usize] = Some(v);
                }
                Instr::GetField { dst, obj, field } => {
                    let v = reg(&self.frame, *obj)?;
                    let rec = v.as_record().ok_or_else(|| IrError::Type {
                        context: format!("field .{field}"),
                        expected: "record",
                        got: v.kind_name(),
                    })?;
                    let fv = rec
                        .get(field)
                        .map_err(|_| IrError::NoSuchField(field.clone()))?
                        .clone();
                    self.frame[dst.0 as usize] = Some(fv);
                }
                Instr::BinOp { dst, op, lhs, rhs } => {
                    let v = eval_binop(*op, reg(&self.frame, *lhs)?, reg(&self.frame, *rhs)?)?;
                    self.frame[dst.0 as usize] = Some(v);
                }
                Instr::Cmp { dst, op, lhs, rhs } => {
                    let b = op.eval(reg(&self.frame, *lhs)?, reg(&self.frame, *rhs)?);
                    self.frame[dst.0 as usize] = Some(Value::Bool(b));
                }
                Instr::Not { dst, src } => {
                    let b = !reg(&self.frame, *src)?.is_truthy();
                    self.frame[dst.0 as usize] = Some(Value::Bool(b));
                }
                Instr::Call {
                    dst,
                    func: name,
                    args,
                } => {
                    self.argv.clear();
                    for r in args {
                        self.argv.push(reg(&self.frame, *r)?.clone());
                    }
                    let Site::Call(def) = self.prepared.sites[pc] else {
                        unreachable!("site {pc} was prepared from a call")
                    };
                    let result = def
                        .ok_or_else(|| IrError::UnknownFunction(name.clone()))
                        .and_then(|def| def.call(&self.argv));
                    self.argv.clear();
                    let result = result?;
                    if let Some(dst) = dst {
                        self.frame[dst.0 as usize] = Some(result);
                    }
                }
                Instr::GetMember { dst, name } => {
                    let v = self
                        .members
                        .get(name)
                        .ok_or_else(|| IrError::UnknownMember(name.clone()))?
                        .clone();
                    self.frame[dst.0 as usize] = Some(v);
                }
                Instr::SetMember { name, src } => {
                    let v = reg(&self.frame, *src)?.clone();
                    self.members.insert(name.clone(), v);
                }
                Instr::Jmp { target } => {
                    if *target >= func.instrs.len() {
                        return Err(IrError::BadJump(*target));
                    }
                    pc = *target;
                    continue;
                }
                Instr::Br {
                    cond,
                    then_tgt,
                    else_tgt,
                } => {
                    let t = reg(&self.frame, *cond)?.is_truthy();
                    let target = if t { *then_tgt } else { *else_tgt };
                    if target >= func.instrs.len() {
                        return Err(IrError::BadJump(target));
                    }
                    pc = target;
                    continue;
                }
                Instr::Emit { key: k, value: v } => {
                    let pair = (reg(&self.frame, *k)?.clone(), reg(&self.frame, *v)?.clone());
                    emits.push(pair);
                }
                Instr::SideEffect { kind, args } => {
                    let argv = args
                        .iter()
                        .map(|r| reg(&self.frame, *r).cloned())
                        .collect::<Result<_, _>>()?;
                    self.effects.push((*kind, argv));
                }
                Instr::Ret => return Ok(executed),
            }
            pc += 1;
        }
    }
}

/// Evaluate a binary operator on two values.
pub fn eval_binop(op: BinOp, l: &Value, r: &Value) -> Result<Value, IrError> {
    let type_err = |expected: &'static str, got: &Value| IrError::Type {
        context: format!("binop {op}"),
        expected,
        got: got.kind_name(),
    };
    match op {
        BinOp::Concat => {
            let a = l.as_str().ok_or_else(|| type_err("str", l))?;
            let b = r.as_str().ok_or_else(|| type_err("str", r))?;
            let mut s = String::with_capacity(a.len() + b.len());
            s.push_str(a);
            s.push_str(b);
            Ok(Value::from(s))
        }
        BinOp::And => Ok(Value::Bool(l.is_truthy() && r.is_truthy())),
        BinOp::Or => Ok(Value::Bool(l.is_truthy() || r.is_truthy())),
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => match (l, r) {
            (Value::Int(a), Value::Int(b)) => {
                let v = match op {
                    BinOp::Add => a.wrapping_add(*b),
                    BinOp::Sub => a.wrapping_sub(*b),
                    BinOp::Mul => a.wrapping_mul(*b),
                    BinOp::Div => {
                        if *b == 0 {
                            return Err(IrError::DivByZero);
                        }
                        a.wrapping_div(*b)
                    }
                    BinOp::Rem => {
                        if *b == 0 {
                            return Err(IrError::DivByZero);
                        }
                        a.wrapping_rem(*b)
                    }
                    _ => unreachable!(),
                };
                Ok(Value::Int(v))
            }
            _ => {
                let a = l.as_double().ok_or_else(|| type_err("number", l))?;
                let b = r.as_double().ok_or_else(|| type_err("number", r))?;
                let v = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Rem => a % b,
                    _ => unreachable!(),
                };
                Ok(Value::Double(v))
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::CmpOp;
    use crate::record::record;
    use crate::schema::{FieldType, Schema};

    fn webpage_schema() -> std::sync::Arc<Schema> {
        Schema::new(
            "WebPage",
            vec![("url", FieldType::Str), ("rank", FieldType::Int)],
        )
        .into_arc()
    }

    /// The paper's §2 example: `if (v.rank > 1) emit(k, 1)`.
    fn select_map() -> Function {
        let mut b = FunctionBuilder::new("map");
        let v = b.load_param(ParamId::Value);
        let rank = b.get_field(v, "rank");
        let one = b.const_int(1);
        let c = b.cmp(CmpOp::Gt, rank, one);
        let (t, e) = (b.fresh_label("t"), b.fresh_label("e"));
        b.br(c, t, e);
        b.bind(t);
        let k = b.load_param(ParamId::Key);
        b.emit(k, one);
        b.bind(e);
        b.ret();
        b.finish()
    }

    #[test]
    fn selection_emits_only_above_threshold() {
        let f = select_map();
        let s = webpage_schema();
        let mut interp = Interpreter::new(&f);

        let hi = record(&s, vec!["http://a".into(), 5.into()]);
        let out = interp
            .invoke_map(&f, &Value::str("k1"), &hi.into())
            .unwrap();
        assert_eq!(out.emits, vec![(Value::str("k1"), Value::Int(1))]);

        let lo = record(&s, vec!["http://b".into(), 0.into()]);
        let out = interp
            .invoke_map(&f, &Value::str("k2"), &lo.into())
            .unwrap();
        assert!(out.emits.is_empty());
    }

    /// The paper's Fig. 2: emit decision depends on a member counter.
    #[test]
    fn member_state_persists_across_invocations() {
        let mut b = FunctionBuilder::new("map");
        b.declare_member("numMapsRun", Value::Int(0));
        let n = b.get_member("numMapsRun");
        let one = b.const_int(1);
        let n2 = b.bin(BinOp::Add, n, one);
        b.set_member("numMapsRun", n2);
        let v = b.load_param(ParamId::Value);
        let rank = b.get_field(v, "rank");
        let c1 = b.cmp(CmpOp::Gt, rank, one);
        let limit = b.const_int(2);
        let c2 = b.cmp(CmpOp::Gt, n2, limit);
        let c = b.bin(BinOp::Or, c1, c2);
        let (t, e) = (b.fresh_label("t"), b.fresh_label("e"));
        b.br(c, t, e);
        b.bind(t);
        let k = b.load_param(ParamId::Key);
        b.emit(k, one);
        b.bind(e);
        b.ret();
        let f = b.finish();

        let s = webpage_schema();
        let lo = record(&s, vec!["u".into(), 0.into()]);
        let mut interp = Interpreter::new(&f);
        // First two low-rank records do not emit; the third does,
        // because numMapsRun crossed the limit.
        for expected in [0usize, 0, 1] {
            let out = interp
                .invoke_map(&f, &Value::Null, &lo.clone().into())
                .unwrap();
            assert_eq!(out.emits.len(), expected);
        }
        assert_eq!(interp.member("numMapsRun"), Some(&Value::Int(3)));
    }

    #[test]
    fn loop_with_fuel_limit() {
        let mut b = FunctionBuilder::new("spin");
        let head = b.fresh_label("head");
        b.bind(head);
        b.jmp(head);
        let f = b.finish();
        let mut interp = Interpreter::with_config(&f, InterpConfig { fuel: 100 });
        let err = interp
            .invoke_map(&f, &Value::Null, &Value::Null)
            .unwrap_err();
        assert_eq!(err, IrError::FuelExhausted);
    }

    #[test]
    fn unbound_register_detected() {
        use crate::instr::Reg;
        let f = Function {
            name: "bad".into(),
            instrs: vec![
                Instr::Move {
                    dst: Reg(0),
                    src: Reg(1),
                },
                Instr::Ret,
            ],
            members: vec![],
        };
        let mut interp = Interpreter::new(&f);
        assert_eq!(
            interp
                .invoke_map(&f, &Value::Null, &Value::Null)
                .unwrap_err(),
            IrError::UnboundRegister(Reg(1))
        );
    }

    #[test]
    fn side_effects_recorded() {
        let mut b = FunctionBuilder::new("map");
        let msg = b.const_str("processing");
        b.side_effect(SideEffectKind::Log, vec![msg]);
        b.ret();
        let f = b.finish();
        let mut interp = Interpreter::new(&f);
        let out = interp.invoke_map(&f, &Value::Null, &Value::Null).unwrap();
        assert_eq!(out.effects.len(), 1);
        assert_eq!(out.effects[0].0, SideEffectKind::Log);
    }

    #[test]
    fn binop_arithmetic() {
        assert_eq!(
            eval_binop(BinOp::Add, &Value::Int(2), &Value::Int(3)).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            eval_binop(BinOp::Div, &Value::Int(7), &Value::Int(2)).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            eval_binop(BinOp::Div, &Value::Int(1), &Value::Int(0)).unwrap_err(),
            IrError::DivByZero
        );
        assert_eq!(
            eval_binop(BinOp::Add, &Value::Int(1), &Value::Double(0.5)).unwrap(),
            Value::Double(1.5)
        );
        assert_eq!(
            eval_binop(BinOp::Concat, &Value::str("a"), &Value::str("b")).unwrap(),
            Value::str("ab")
        );
    }

    /// `if v { r = <name>(v, v); emit r, r }` — the call only runs on a
    /// truthy value.
    fn guarded_call(name: &str) -> Function {
        let mut b = FunctionBuilder::new("map");
        let v = b.load_param(ParamId::Value);
        let (t, e) = (b.fresh_label("t"), b.fresh_label("e"));
        b.br(v, t, e);
        b.bind(t);
        let r = b.call(name, vec![v, v]);
        b.emit(r, r);
        b.bind(e);
        b.ret();
        b.finish()
    }

    #[test]
    fn unknown_function_fails_only_when_reached() {
        let f = guarded_call("no.such.fn");
        let mut interp = Interpreter::new(&f);
        let out = interp
            .invoke_map(&f, &Value::Null, &Value::Bool(false))
            .unwrap();
        assert!(out.emits.is_empty());
        assert_eq!(
            interp
                .invoke_map(&f, &Value::Null, &Value::Bool(true))
                .unwrap_err(),
            IrError::UnknownFunction("no.such.fn".into())
        );
    }

    #[test]
    fn arity_error_matches_the_registry() {
        let f = guarded_call("str.len");
        let mut interp = Interpreter::new(&f);
        let v = Value::str("x");
        assert_eq!(
            interp.invoke_map(&f, &Value::Null, &v).unwrap_err(),
            stdlib().eval("str.len", &[v.clone(), v]).unwrap_err()
        );
    }

    #[test]
    fn instruction_counts_and_fuel_are_exact() {
        let f = select_map();
        let s = webpage_schema();
        let hi: Value = record(&s, vec!["http://a".into(), 5.into()]).into();
        let lo: Value = record(&s, vec!["http://b".into(), 0.into()]).into();
        let mut interp = Interpreter::new(&f);
        // param, field, const, cmp, br, param, emit, ret.
        assert_eq!(
            interp
                .invoke_map(&f, &Value::Null, &hi)
                .unwrap()
                .instructions_executed,
            8
        );
        // param, field, const, cmp, br, ret.
        let mut emits = Vec::new();
        assert_eq!(
            interp
                .invoke_map_into(&f, &Value::Null, &lo, &mut emits)
                .unwrap(),
            6
        );
        let mut tight = Interpreter::with_config(&f, InterpConfig { fuel: 8 });
        assert!(tight.invoke_map(&f, &Value::Null, &hi).is_ok());
        let mut short = Interpreter::with_config(&f, InterpConfig { fuel: 7 });
        assert_eq!(
            short.invoke_map(&f, &Value::Null, &hi).unwrap_err(),
            IrError::FuelExhausted
        );
    }

    /// Two tasks of one shared function never touch the reference count
    /// of its string constants or member initial values.
    #[test]
    fn tasks_share_no_reference_count_with_the_function() {
        let mut b = FunctionBuilder::new("bench1_map");
        b.declare_member("label", Value::str("seen"));
        let v = b.load_param(ParamId::Value);
        let rank_name = b.const_str("rank");
        let rank = b.call("tuple.get_int", vec![v, rank_name]);
        let url_name = b.const_str("url");
        let url = b.call("tuple.get_str", vec![v, url_name]);
        let label = b.get_member("label");
        b.emit(url, label);
        b.emit(url, rank);
        b.ret();
        let f = b.finish();
        let shared_strings = |f: &Function| -> Vec<usize> {
            let consts = f.instrs.iter().filter_map(|i| match i {
                Instr::Const {
                    val: Value::Str(s), ..
                } => Some(Arc::strong_count(s)),
                _ => None,
            });
            let members = f.members.iter().filter_map(|(_, v)| match v {
                Value::Str(s) => Some(Arc::strong_count(s)),
                _ => None,
            });
            consts.chain(members).collect()
        };
        assert_eq!(shared_strings(&f), vec![1, 1, 1]);

        let tasks: Vec<Interpreter> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    let f = &f;
                    scope.spawn(move || {
                        let s = webpage_schema();
                        let mut interp = Interpreter::new(f);
                        let mut emits = Vec::new();
                        for i in 0..100 {
                            let page = record(&s, vec![format!("u{t}-{i}").into(), i.into()]);
                            interp
                                .invoke_map_into(f, &Value::Null, &page.into(), &mut emits)
                                .unwrap();
                        }
                        assert_eq!(emits.len(), 200);
                        interp
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(shared_strings(&f), vec![1, 1, 1]);
        drop(tasks);
    }

    #[test]
    fn invoke_map_and_invoke_map_into_agree() {
        let f = select_map();
        let s = webpage_schema();
        let mut by_value = Interpreter::new(&f);
        let mut into = Interpreter::new(&f);
        let mut emits = vec![(Value::str("earlier"), Value::Null)];
        let mut expected = emits.clone();
        for rank in [5, 0, 7] {
            let page: Value = record(&s, vec!["http://a".into(), rank.into()]).into();
            let key = Value::Int(rank);
            expected.extend(by_value.invoke_map(&f, &key, &page).unwrap().emits);
            into.invoke_map_into(&f, &key, &page, &mut emits).unwrap();
        }
        assert_eq!(emits, expected);
        assert_eq!(emits.len(), 3, "the buffer is appended to, not replaced");
    }

    #[test]
    fn loop_over_extracted_urls() {
        // for url in extract_urls(v.content): emit(url, 1)
        let mut b = FunctionBuilder::new("map");
        let v = b.load_param(ParamId::Value);
        let content = b.get_field(v, "content");
        let urls = b.call("text.extract_urls", vec![content]);
        let len = b.call("list.len", vec![urls]);
        let one = b.const_int(1);
        let i = b.const_int(0);
        let (head, body, exit) = (
            b.fresh_label("head"),
            b.fresh_label("body"),
            b.fresh_label("exit"),
        );
        b.bind(head);
        let c = b.cmp(CmpOp::Lt, i, len);
        b.br(c, body, exit);
        b.bind(body);
        let url = b.call("list.get", vec![urls, i]);
        b.emit(url, one);
        let i2 = b.bin(BinOp::Add, i, one);
        b.mov_to(i, i2);
        b.jmp(head);
        b.bind(exit);
        b.ret();
        let f = b.finish();

        let s = Schema::new("Doc", vec![("content", FieldType::Str)]).into_arc();
        let doc = record(&s, vec!["x http://a.com y http://b.com z".into()]);
        let mut interp = Interpreter::new(&f);
        let out = interp.invoke_map(&f, &Value::Null, &doc.into()).unwrap();
        assert_eq!(out.emits.len(), 2);
        assert_eq!(out.emits[0].0, Value::str("http://a.com"));
    }
}
