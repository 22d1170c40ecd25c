//! Map tasks.
//!
//! A [`Mapper`] processes one `(key, value)` pair at a time and may
//! carry per-task state — exactly a Java `Mapper` object's lifetime,
//! which is what makes the paper's Fig. 2 member-variable hazard real.
//! The [`MapperFactory`] creates one instance per map task.

use std::sync::Arc;

use mr_ir::function::Function;
use mr_ir::interp::Interpreter;
use mr_ir::value::Value;

use crate::error::Result;

/// Statistics one map invocation produced (beyond the emitted pairs).
#[derive(Debug, Clone, Copy, Default)]
pub struct MapStats {
    /// IR instructions executed (0 for native mappers).
    pub instructions: u64,
    /// Side effects recorded.
    pub side_effects: u64,
}

/// A map task instance.
pub trait Mapper: Send {
    /// Process one input pair, pushing output pairs into `out`.
    fn map(
        &mut self,
        key: &Value,
        value: &Value,
        out: &mut Vec<(Value, Value)>,
    ) -> Result<MapStats>;
}

/// Creates per-task mapper instances.
pub trait MapperFactory: Send + Sync {
    /// New mapper with fresh task-local state.
    fn create(&self) -> Box<dyn Mapper>;

    /// The compiled IR function behind this factory, when there is one.
    /// The process backend ships mappers to worker processes as IR
    /// assembly, so only factories that expose their function here are
    /// wire-serializable; native factories (closures) return `None` and
    /// are rejected with a config error.
    fn ir_function(&self) -> Option<&Function> {
        None
    }
}

/// Runs a compiled MR-IR `map()` through the interpreter.
pub struct IrMapper {
    func: Arc<Function>,
    interp: Interpreter,
}

impl IrMapper {
    /// Build a mapper for one task.
    pub fn new(func: Arc<Function>) -> IrMapper {
        let interp = Interpreter::new(&func);
        IrMapper { func, interp }
    }
}

impl Mapper for IrMapper {
    fn map(
        &mut self,
        key: &Value,
        value: &Value,
        out: &mut Vec<(Value, Value)>,
    ) -> Result<MapStats> {
        let before = out.len();
        let instructions = self
            .interp
            .invoke_map_into(&self.func, key, value, out)
            .inspect_err(|_| out.truncate(before))?;
        Ok(MapStats {
            instructions,
            side_effects: self.interp.effects().len() as u64,
        })
    }
}

/// Factory for [`IrMapper`]s.
pub struct IrMapperFactory {
    /// The compiled map function.
    pub func: Arc<Function>,
}

impl IrMapperFactory {
    /// Wrap a compiled function.
    pub fn new(func: Function) -> Arc<IrMapperFactory> {
        Arc::new(IrMapperFactory {
            func: Arc::new(func),
        })
    }
}

impl MapperFactory for IrMapperFactory {
    fn create(&self) -> Box<dyn Mapper> {
        Box::new(IrMapper::new(Arc::clone(&self.func)))
    }

    fn ir_function(&self) -> Option<&Function> {
        Some(&self.func)
    }
}

/// A native Rust mapper, for engine tests and non-analyzed jobs.
pub struct FnMapper<F>(pub F);

impl<F> Mapper for FnMapper<F>
where
    F: FnMut(&Value, &Value, &mut Vec<(Value, Value)>) + Send,
{
    fn map(
        &mut self,
        key: &Value,
        value: &Value,
        out: &mut Vec<(Value, Value)>,
    ) -> Result<MapStats> {
        (self.0)(key, value, out);
        Ok(MapStats::default())
    }
}

/// Factory wrapping a cloneable closure.
pub struct FnMapperFactory<F>(pub F);

impl<F> MapperFactory for FnMapperFactory<F>
where
    F: Fn(&Value, &Value, &mut Vec<(Value, Value)>) + Send + Sync + Clone + 'static,
{
    fn create(&self) -> Box<dyn Mapper> {
        Box::new(FnMapper(self.0.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_ir::asm::parse_function;
    use mr_ir::record::record;
    use mr_ir::schema::{FieldType, Schema};

    #[test]
    fn ir_mapper_keeps_member_state_per_task() {
        let f = parse_function(
            r#"
            func map(key, value) {
              member n = 0
              r0 = member n
              r1 = const 1
              r2 = add r0, r1
              member n = r2
              emit r2, r1
              ret
            }
            "#,
        )
        .unwrap();
        let factory = IrMapperFactory::new(f);
        let mut a = factory.create();
        let mut b = factory.create();
        let mut out = Vec::new();
        a.map(&Value::Null, &Value::Null, &mut out).unwrap();
        a.map(&Value::Null, &Value::Null, &mut out).unwrap();
        b.map(&Value::Null, &Value::Null, &mut out).unwrap();
        // Task a counted to 2; task b starts fresh at 1.
        let keys: Vec<i64> = out.iter().map(|(k, _)| k.as_int().unwrap()).collect();
        assert_eq!(keys, vec![1, 2, 1]);
    }

    #[test]
    fn ir_mapper_reports_instruction_counts() {
        let f = parse_function(
            r#"
            func map(key, value) {
              r0 = param value
              r1 = field r0.rank
              emit r1, r1
              ret
            }
            "#,
        )
        .unwrap();
        let factory = IrMapperFactory::new(f);
        let mut m = factory.create();
        let s = Schema::new("W", vec![("rank", FieldType::Int)]).into_arc();
        let mut out = Vec::new();
        let stats = m
            .map(&Value::Int(0), &record(&s, vec![7.into()]).into(), &mut out)
            .unwrap();
        assert_eq!(stats.instructions, 4);
        assert_eq!(out, vec![(Value::Int(7), Value::Int(7))]);
    }

    #[test]
    fn fn_mapper_works() {
        let factory = FnMapperFactory(|k: &Value, _v: &Value, out: &mut Vec<(Value, Value)>| {
            out.push((k.clone(), Value::Int(1)));
        });
        let mut m = factory.create();
        let mut out = Vec::new();
        m.map(&Value::str("x"), &Value::Null, &mut out).unwrap();
        assert_eq!(out.len(), 1);
    }
}
