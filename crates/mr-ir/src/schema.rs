//! Record schemas.
//!
//! MapReduce inputs are flat files of serialized objects; the class that
//! serializes and deserializes them "effectively declares the file's
//! schema" (paper §2.2). A [`Schema`] is that declaration: an ordered
//! list of named, typed fields.
//!
//! A schema may be **opaque**: the class uses a custom serialization
//! format whose field boundaries are invisible to anyone but the class's
//! own code. This models the `AbstractTuple` class of Pavlo Benchmark 1,
//! which caused the paper's analyzer to miss the projection and
//! delta-compression opportunities (Table 1) while still detecting the
//! selection.

use std::fmt;
use std::sync::Arc;

use crate::value::Value;

/// The serialized type of a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldType {
    /// Boolean, one byte.
    Bool,
    /// 32-bit integer on disk, widens to `Value::Int` in memory.
    Int,
    /// 64-bit integer.
    Long,
    /// 64-bit IEEE float.
    Double,
    /// Length-prefixed UTF-8 string.
    Str,
    /// Length-prefixed byte array.
    Bytes,
}

impl FieldType {
    /// Whether delta-compression applies to this type (paper App. C:
    /// "analyzer simply tests whether the serialized key and value
    /// inputs to map() contain numeric values").
    pub fn is_numeric(&self) -> bool {
        matches!(self, FieldType::Int | FieldType::Long | FieldType::Double)
    }

    /// The value a projected-away field reads as: the constant the
    /// optimizer binds a mapper's read of a dropped field to, and what
    /// [`Record::project_to`](crate::record::Record::project_to) pads
    /// with.
    pub fn default_value(&self) -> Value {
        match self {
            FieldType::Bool => Value::Bool(false),
            FieldType::Int | FieldType::Long => Value::Int(0),
            FieldType::Double => Value::Double(0.0),
            FieldType::Str => Value::str(""),
            FieldType::Bytes => Value::bytes([]),
        }
    }
}

impl fmt::Display for FieldType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FieldType::Bool => "bool",
            FieldType::Int => "int",
            FieldType::Long => "long",
            FieldType::Double => "double",
            FieldType::Str => "str",
            FieldType::Bytes => "bytes",
        };
        f.write_str(s)
    }
}

/// A single named, typed field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name, unique within the schema.
    pub name: String,
    /// Serialized type.
    pub ty: FieldType,
}

/// An ordered record schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// The record class name (e.g. `WebPage`), for diagnostics and
    /// catalog entries.
    name: String,
    fields: Vec<FieldDef>,
    /// Opaque schemas hide field boundaries from the analyzer; see the
    /// module docs.
    opaque: bool,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    ///
    /// # Panics
    /// Panics if two fields share a name — schemas are static program
    /// metadata, so this is a programming error, not a runtime error.
    pub fn new(name: impl Into<String>, fields: Vec<(&str, FieldType)>) -> Self {
        let fields: Vec<FieldDef> = fields
            .into_iter()
            .map(|(n, ty)| FieldDef {
                name: n.to_string(),
                ty,
            })
            .collect();
        for (i, f) in fields.iter().enumerate() {
            assert!(
                !fields[..i].iter().any(|g| g.name == f.name),
                "duplicate field name {:?}",
                f.name
            );
        }
        Schema {
            name: name.into(),
            fields,
            opaque: false,
        }
    }

    /// Mark this schema as using a custom, analyzer-opaque serialization
    /// format (the `AbstractTuple` pattern of Pavlo Benchmark 1).
    pub fn opaque(mut self) -> Self {
        self.opaque = true;
        self
    }

    /// The record class name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether field boundaries are hidden from static analysis.
    pub fn is_opaque(&self) -> bool {
        self.opaque
    }

    /// All fields, in serialization order.
    pub fn fields(&self) -> &[FieldDef] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the field with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Field definition by name.
    pub fn field(&self, name: &str) -> Option<&FieldDef> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Names of all fields, in order. This is the `paramFields` input of
    /// the paper's `findProject` (Fig. 6).
    pub fn field_names(&self) -> Vec<String> {
        self.fields.iter().map(|f| f.name.clone()).collect()
    }

    /// Names of numeric fields (delta-compression candidates).
    pub fn numeric_fields(&self) -> Vec<String> {
        self.fields
            .iter()
            .filter(|f| f.ty.is_numeric())
            .map(|f| f.name.clone())
            .collect()
    }

    /// Derive the schema of a projection of this schema onto `keep`,
    /// preserving serialization order. Unknown names are ignored.
    pub fn project(&self, keep: &[String]) -> Schema {
        Schema {
            name: format!("{}#proj", self.name),
            fields: self
                .fields
                .iter()
                .filter(|f| keep.iter().any(|k| k == &f.name))
                .cloned()
                .collect(),
            opaque: self.opaque,
        }
    }

    /// Shared-ownership handle used throughout the stack.
    pub fn into_arc(self) -> Arc<Schema> {
        Arc::new(self)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (", self.name)?;
        for (i, fd) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", fd.ty, fd.name)?;
        }
        write!(f, ")")?;
        if self.opaque {
            write!(f, " [opaque]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn webpage() -> Schema {
        Schema::new(
            "WebPage",
            vec![
                ("url", FieldType::Str),
                ("rank", FieldType::Int),
                ("content", FieldType::Str),
            ],
        )
    }

    #[test]
    fn index_and_lookup() {
        let s = webpage();
        assert_eq!(s.index_of("rank"), Some(1));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(s.field("url").unwrap().ty, FieldType::Str);
    }

    #[test]
    fn numeric_fields_listed() {
        assert_eq!(webpage().numeric_fields(), vec!["rank".to_string()]);
    }

    #[test]
    fn projection_preserves_order() {
        let p = webpage().project(&["content".into(), "url".into()]);
        assert_eq!(p.field_names(), vec!["url", "content"]);
        assert_eq!(p.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate field name")]
    fn duplicate_fields_rejected() {
        Schema::new("X", vec![("a", FieldType::Int), ("a", FieldType::Str)]);
    }

    #[test]
    fn opaque_flag_propagates_through_projection() {
        let s = webpage().opaque();
        assert!(s.is_opaque());
        assert!(s.project(&["url".into()]).is_opaque());
    }

    #[test]
    fn display_format() {
        let s = webpage();
        assert_eq!(s.to_string(), "WebPage (str url, int rank, str content)");
    }
}
