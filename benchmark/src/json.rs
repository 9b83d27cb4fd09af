//! The few JSON helpers the result files, the contract line and `diff` share
//! (the repository's `serde_json` stand-in works on one owned tree type).

use serde_json::Value;

/// Lets a raw tree go through the stand-in's `Serialize`-based printers.
pub struct Json<'a>(pub &'a Value);

impl serde::Serialize for Json<'_> {
    fn serialize_json(&self) -> Value {
        self.0.clone()
    }
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A finite number, or `null`.
pub fn num(v: f64) -> Value {
    if v.is_finite() {
        Value::Float(v)
    } else {
        Value::Null
    }
}

pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

pub fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Uint(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}
