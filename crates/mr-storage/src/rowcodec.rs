//! Binary row and value codecs.
//!
//! All raw input data is "in a binary, not textual, format" (paper
//! App. D). [`encode_row`]/[`decode_row`] serialize a record against its
//! schema (no per-row schema overhead); [`encode_value`]/[`decode_value`]
//! serialize a self-describing `Value` (used for B+Tree keys).
//!
//! Numeric fields are **fixed-width** (`Int` = 4 bytes, `Long` = 8,
//! `Double` = 8), like Hadoop's `IntWritable`/`LongWritable` — the
//! baseline the paper's delta-compression is measured against. The
//! "size-sensitive representation" (zig-zag varints) is applied only by
//! a sequence file's delta-encoded fields, so Table 5's space saving is reproducible.

use std::sync::Arc;

use mr_ir::record::Record;
use mr_ir::schema::{FieldType, Schema};
use mr_ir::value::Value;

use crate::error::{Result, StorageError};
use crate::varint::{
    capacity_for, decode_i64, decode_len_prefixed, decode_u64, encode_i64, encode_u64,
};

/// Append the schema-typed encoding of `record` to `out`.
///
/// Field layout per type: `Bool` = 1 byte; `Int` = 4 bytes LE;
/// `Long` = 8 bytes LE; `Double` = 8 bytes LE; `Str`/`Bytes` = varint
/// length + payload.
pub fn encode_row(record: &Record, out: &mut Vec<u8>) -> Result<()> {
    for (fd, v) in record.schema().fields().iter().zip(record.values()) {
        encode_field(fd.ty, v, &fd.name, out)?;
    }
    Ok(())
}

/// Where each field of a stored schema sits in the records being
/// written, resolved by name once when an encoder is set up rather
/// than for every record (a projection's stored fields are a subset of
/// the source's).
pub(crate) struct FieldBinding {
    /// Source position of each stored field, in stored order.
    source: Vec<usize>,
    /// Fields in a source record.
    arity: usize,
}

impl FieldBinding {
    /// Records of `schema` stored as they are.
    pub(crate) fn identity(schema: &Schema) -> FieldBinding {
        FieldBinding {
            source: (0..schema.len()).collect(),
            arity: schema.len(),
        }
    }

    /// Records of `source` stored as `stored`, a projection of it.
    pub(crate) fn projecting(stored: &Schema, source: &Schema) -> Result<FieldBinding> {
        let positions = stored.fields().iter().map(|fd| {
            source.index_of(&fd.name).ok_or_else(|| {
                StorageError::Schema(format!("field `{}` not in {}", fd.name, source.name()))
            })
        });
        Ok(FieldBinding {
            source: positions.collect::<Result<_>>()?,
            arity: source.len(),
        })
    }

    /// `record`'s values in stored-field order.
    pub(crate) fn values<'r>(
        &'r self,
        record: &'r Record,
    ) -> Result<impl Iterator<Item = &'r Value>> {
        let values = record.values();
        if values.len() != self.arity {
            return Err(StorageError::Schema(format!(
                "record has {} fields, the writer expects {}",
                values.len(),
                self.arity
            )));
        }
        Ok(self.source.iter().map(move |&i| &values[i]))
    }
}

/// Append the schema-typed encoding of one field value.
pub fn encode_field(ty: FieldType, v: &Value, name: &str, out: &mut Vec<u8>) -> Result<()> {
    match (ty, v) {
        (FieldType::Bool, Value::Bool(b)) => out.push(*b as u8),
        (FieldType::Int, Value::Int(i)) => {
            let narrowed = i32::try_from(*i).map_err(|_| {
                StorageError::Schema(format!("field `{name}`: {i} exceeds Int range"))
            })?;
            out.extend_from_slice(&narrowed.to_le_bytes());
        }
        (FieldType::Long, Value::Int(i)) => out.extend_from_slice(&i.to_le_bytes()),
        (FieldType::Double, Value::Double(d)) => out.extend_from_slice(&d.to_bits().to_le_bytes()),
        (FieldType::Str, Value::Str(s)) => {
            encode_u64(s.len() as u64, out);
            out.extend_from_slice(s.as_bytes());
        }
        (FieldType::Bytes, Value::Bytes(b)) => {
            encode_u64(b.len() as u64, out);
            out.extend_from_slice(b);
        }
        (ty, v) => {
            return Err(StorageError::Schema(format!(
                "field `{name}` declared {ty} but value is {}",
                v.kind_name()
            )))
        }
    }
    Ok(())
}

/// Decode one schema-typed field value from the front of `buf`.
pub fn decode_field(ty: FieldType, buf: &[u8]) -> Result<(Value, usize)> {
    Ok(match ty {
        FieldType::Bool => {
            let b = *buf
                .first()
                .ok_or_else(|| StorageError::corrupt("field", "truncated bool"))?;
            (Value::Bool(b != 0), 1)
        }
        FieldType::Int => {
            let bytes: [u8; 4] = buf
                .get(..4)
                .and_then(|s| s.try_into().ok())
                .ok_or_else(|| StorageError::corrupt("field", "truncated int"))?;
            (Value::Int(i32::from_le_bytes(bytes) as i64), 4)
        }
        FieldType::Long => {
            let bytes: [u8; 8] = buf
                .get(..8)
                .and_then(|s| s.try_into().ok())
                .ok_or_else(|| StorageError::corrupt("field", "truncated long"))?;
            (Value::Int(i64::from_le_bytes(bytes)), 8)
        }
        FieldType::Double => {
            if buf.len() < 8 {
                return Err(StorageError::corrupt("field", "truncated double"));
            }
            let mut b = [0u8; 8];
            b.copy_from_slice(&buf[..8]);
            (Value::Double(f64::from_bits(u64::from_le_bytes(b))), 8)
        }
        FieldType::Str => {
            let (payload, n) = decode_len_prefixed(buf, "field", "string")?;
            let s = std::str::from_utf8(payload)
                .map_err(|_| StorageError::corrupt("field", "invalid utf-8"))?;
            (Value::str(s), n)
        }
        FieldType::Bytes => {
            let (payload, n) = decode_len_prefixed(buf, "field", "bytes")?;
            (Value::bytes(payload), n)
        }
    })
}

/// Decode one row of `schema` from the front of `buf`; returns the
/// record and bytes consumed.
pub fn decode_row(schema: &Arc<Schema>, buf: &[u8]) -> Result<(Record, usize)> {
    let mut pos = 0usize;
    let mut values = Vec::with_capacity(schema.len());
    for fd in schema.fields() {
        let (v, n) = decode_field(fd.ty, &buf[pos..])?;
        values.push(v);
        pos += n;
    }
    let record =
        Record::new(Arc::clone(schema), values).map_err(|e| StorageError::Schema(e.to_string()))?;
    Ok((record, pos))
}

// Value-codec tags.
const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_DOUBLE: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_BYTES: u8 = 6;
const TAG_LIST: u8 = 7;
const TAG_RECORD: u8 = 8;

/// Append a self-describing encoding of `v`.
///
/// Records carry their schema inline (schema header + schema-typed
/// row), so whole-record payloads — the join fabric ships them as
/// tagged-union values — survive spill runs and the worker wire.
/// Maps are not supported (they never appear as shuffle data that
/// needs persistence); encoding one is a schema error.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) -> Result<()> {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_BOOL_FALSE),
        Value::Bool(true) => out.push(TAG_BOOL_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            encode_i64(*i, out);
        }
        Value::Double(d) => {
            out.push(TAG_DOUBLE);
            out.extend_from_slice(&d.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            encode_u64(s.len() as u64, out);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(TAG_BYTES);
            encode_u64(b.len() as u64, out);
            out.extend_from_slice(b);
        }
        Value::List(items) => {
            out.push(TAG_LIST);
            encode_u64(items.len() as u64, out);
            for item in items.iter() {
                encode_value(item, out)?;
            }
        }
        Value::Record(r) => {
            out.push(TAG_RECORD);
            encode_schema(r.schema(), out);
            encode_row(r, out)?;
        }
        Value::Map(_) => {
            return Err(StorageError::Schema(format!(
                "cannot persist a {} value",
                v.kind_name()
            )))
        }
    }
    Ok(())
}

/// Decode a self-describing value from the front of `buf`.
pub fn decode_value(buf: &[u8]) -> Result<(Value, usize)> {
    let tag = *buf
        .first()
        .ok_or_else(|| StorageError::corrupt("value", "empty"))?;
    let rest = &buf[1..];
    Ok(match tag {
        TAG_NULL => (Value::Null, 1),
        TAG_BOOL_FALSE => (Value::Bool(false), 1),
        TAG_BOOL_TRUE => (Value::Bool(true), 1),
        TAG_INT => {
            let (v, n) = decode_i64(rest)?;
            (Value::Int(v), 1 + n)
        }
        TAG_DOUBLE => {
            if rest.len() < 8 {
                return Err(StorageError::corrupt("value", "truncated double"));
            }
            let mut b = [0u8; 8];
            b.copy_from_slice(&rest[..8]);
            (Value::Double(f64::from_bits(u64::from_le_bytes(b))), 9)
        }
        TAG_STR => {
            let (payload, n) = decode_len_prefixed(rest, "value", "string")?;
            let s = std::str::from_utf8(payload)
                .map_err(|_| StorageError::corrupt("value", "invalid utf-8"))?;
            (Value::str(s), 1 + n)
        }
        TAG_BYTES => {
            let (payload, n) = decode_len_prefixed(rest, "value", "bytes")?;
            (Value::bytes(payload), 1 + n)
        }
        TAG_LIST => {
            let (count, mut pos) = decode_u64(rest)?;
            let mut items = Vec::with_capacity(capacity_for(count, rest.len() - pos));
            for _ in 0..count {
                let (v, n) = decode_value(&rest[pos..])?;
                items.push(v);
                pos += n;
            }
            (Value::list(items), 1 + pos)
        }
        TAG_RECORD => {
            let (schema, mut pos) = decode_schema(rest)?;
            let schema = schema.into_arc();
            let (record, n) = decode_row(&schema, &rest[pos..])?;
            pos += n;
            (Value::from(record), 1 + pos)
        }
        other => {
            return Err(StorageError::corrupt(
                "value",
                format!("unknown tag {other}"),
            ))
        }
    })
}

/// Serialize a schema (for file headers).
pub fn encode_schema(schema: &Schema, out: &mut Vec<u8>) {
    encode_u64(schema.name().len() as u64, out);
    out.extend_from_slice(schema.name().as_bytes());
    out.push(schema.is_opaque() as u8);
    encode_u64(schema.len() as u64, out);
    for fd in schema.fields() {
        encode_u64(fd.name.len() as u64, out);
        out.extend_from_slice(fd.name.as_bytes());
        out.push(field_type_tag(fd.ty));
    }
}

/// Decode a schema from the front of `buf`.
pub fn decode_schema(buf: &[u8]) -> Result<(Schema, usize)> {
    let mut pos = 0usize;
    let (name, n) = decode_str(&buf[pos..])?;
    pos += n;
    let opaque = *buf
        .get(pos)
        .ok_or_else(|| StorageError::corrupt("schema", "truncated"))?
        != 0;
    pos += 1;
    let (nfields, n) = decode_u64(&buf[pos..])?;
    pos += n;
    let cap = capacity_for(nfields, buf.len() - pos);
    let mut fields = Vec::with_capacity(cap);
    let mut names: Vec<String> = Vec::with_capacity(cap);
    for _ in 0..nfields {
        let (fname, n) = decode_str(&buf[pos..])?;
        pos += n;
        let tag = *buf
            .get(pos)
            .ok_or_else(|| StorageError::corrupt("schema", "truncated field type"))?;
        pos += 1;
        fields.push(field_type_from_tag(tag)?);
        names.push(fname);
    }
    let pairs: Vec<(&str, FieldType)> = names.iter().map(String::as_str).zip(fields).collect();
    let mut schema = Schema::new(name, pairs);
    if opaque {
        schema = schema.opaque();
    }
    Ok((schema, pos))
}

fn decode_str(buf: &[u8]) -> Result<(String, usize)> {
    let (payload, n) = decode_len_prefixed(buf, "schema", "name")?;
    let s = std::str::from_utf8(payload)
        .map_err(|_| StorageError::corrupt("schema", "invalid utf-8"))?;
    Ok((s.to_string(), n))
}

fn field_type_tag(ty: FieldType) -> u8 {
    match ty {
        FieldType::Bool => 0,
        FieldType::Int => 1,
        FieldType::Long => 2,
        FieldType::Double => 3,
        FieldType::Str => 4,
        FieldType::Bytes => 5,
    }
}

fn field_type_from_tag(tag: u8) -> Result<FieldType> {
    Ok(match tag {
        0 => FieldType::Bool,
        1 => FieldType::Int,
        2 => FieldType::Long,
        3 => FieldType::Double,
        4 => FieldType::Str,
        5 => FieldType::Bytes,
        other => {
            return Err(StorageError::corrupt(
                "schema",
                format!("unknown field type tag {other}"),
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_ir::record::record;

    fn uservisits() -> Arc<Schema> {
        Schema::new(
            "UserVisits",
            vec![
                ("sourceIP", FieldType::Str),
                ("destURL", FieldType::Str),
                ("visitDate", FieldType::Long),
                ("adRevenue", FieldType::Int),
                ("bounced", FieldType::Bool),
                ("score", FieldType::Double),
                ("blob", FieldType::Bytes),
            ],
        )
        .into_arc()
    }

    #[test]
    fn row_roundtrip() {
        let s = uservisits();
        let r = record(
            &s,
            vec![
                "1.2.3.4".into(),
                "http://x.com/a".into(),
                Value::Int(1_234_567),
                Value::Int(-42),
                Value::Bool(true),
                Value::Double(0.25),
                Value::bytes([1, 2, 3]),
            ],
        );
        let mut buf = Vec::new();
        encode_row(&r, &mut buf).unwrap();
        let (back, n) = decode_row(&s, &buf).unwrap();
        assert_eq!(back, r);
        assert_eq!(n, buf.len());
    }

    #[test]
    fn row_type_mismatch_rejected() {
        let s = Schema::new("T", vec![("n", FieldType::Int)]).into_arc();
        let r = Record::new(Arc::clone(&s), vec![Value::str("not an int")]).unwrap();
        assert!(matches!(
            encode_row(&r, &mut Vec::new()),
            Err(StorageError::Schema(_))
        ));
    }

    #[test]
    fn row_truncation_detected() {
        let s = uservisits();
        let r = record(
            &s,
            vec![
                "ip".into(),
                "url".into(),
                1.into(),
                2.into(),
                Value::Bool(false),
                Value::Double(1.0),
                Value::bytes([]),
            ],
        );
        let mut buf = Vec::new();
        encode_row(&r, &mut buf).unwrap();
        for cut in [1, buf.len() / 2, buf.len() - 1] {
            assert!(decode_row(&s, &buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn value_roundtrip() {
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-7),
            Value::Int(i64::MAX),
            Value::Double(3.5),
            Value::str("hello"),
            Value::str(""),
            Value::bytes([0, 255]),
            Value::list(vec![Value::Int(1), Value::str("x")]),
        ];
        for v in values {
            let mut buf = Vec::new();
            encode_value(&v, &mut buf).unwrap();
            let (back, n) = decode_value(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn map_values_rejected() {
        assert!(encode_value(&Value::empty_map(), &mut Vec::new()).is_err());
    }

    #[test]
    fn record_values_roundtrip_with_schema() {
        let s = Schema::new("T", vec![("n", FieldType::Int), ("s", FieldType::Str)]).into_arc();
        let r: Value = record(&s, vec![1.into(), "x".into()]).into();
        // Nested inside a list too — the join's tagged-union shape.
        for v in [r.clone(), Value::list(vec![Value::Int(0), r])] {
            let mut buf = Vec::new();
            encode_value(&v, &mut buf).unwrap();
            let (back, n) = decode_value(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn schema_roundtrip_including_opaque() {
        let s = Schema::new(
            "AbstractTuple",
            vec![("a", FieldType::Int), ("b", FieldType::Str)],
        )
        .opaque();
        let mut buf = Vec::new();
        encode_schema(&s, &mut buf);
        let (back, n) = decode_schema(&buf).unwrap();
        assert_eq!(back, s);
        assert_eq!(n, buf.len());
        assert!(back.is_opaque());
    }

    #[test]
    fn unknown_value_tag_rejected() {
        assert!(decode_value(&[99]).is_err());
    }

    /// `prefix` followed by the varint `n` and nothing else.
    fn forged(prefix: &[u8], n: u64) -> Vec<u8> {
        let mut buf = prefix.to_vec();
        encode_u64(n, &mut buf);
        buf
    }

    fn assert_corrupt<T: std::fmt::Debug>(r: Result<T>) {
        assert!(matches!(r, Err(StorageError::Corrupt { .. })), "{r:?}");
    }

    #[test]
    fn forged_list_count_is_corrupt_not_an_allocation() {
        assert_corrupt(decode_value(&forged(&[TAG_LIST], 1 << 40)));
    }

    #[test]
    fn forged_string_length_is_corrupt_not_an_overflow() {
        assert_corrupt(decode_value(&forged(&[TAG_STR], u64::MAX)));
        assert_corrupt(decode_field(FieldType::Str, &forged(&[], u64::MAX)));
    }

    #[test]
    fn forged_bytes_length_is_corrupt_not_an_overflow() {
        assert_corrupt(decode_value(&forged(&[TAG_BYTES], u64::MAX)));
        assert_corrupt(decode_field(FieldType::Bytes, &forged(&[], u64::MAX)));
    }

    #[test]
    fn forged_schema_field_count_is_corrupt_not_an_allocation() {
        // Empty name, not opaque, then 2^40 fields that are not there.
        assert_corrupt(decode_schema(&forged(&[0, 0], 1 << 40)));
        assert_corrupt(decode_schema(&forged(&[], u64::MAX)));
    }
}
