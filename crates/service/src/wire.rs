//! The codec behind every wire message: one leaf codec for values, one
//! field rule per presence kind, and the `wire!` macro that expands a
//! message declaration into its type, encoder, strict decoder and
//! known-field list.
//!
//! The declarations themselves are the protocol's reference and live in
//! `protocol.rs` (ops and events) and `journal.rs` (journal records);
//! the module docs of [`protocol`](crate::protocol) give the field rules.

use crate::cache::{GraphFormat, GraphSource};
use crate::protocol::JobStatus;
use ff_engine::MigrationPolicyId;
use ff_partition::Objective;
use serde_json::{Map, Number, Value};

/// How one value travels as JSON: the leaf codec behind every generated
/// encoder and decoder.
pub(crate) trait Wire: Sized {
    /// The value's JSON form.
    fn encode(&self) -> Value;
    /// The strict inverse of [`Wire::encode`]. The error completes the
    /// sentence "`field` …", e.g. "must be a boolean, got 3".
    fn decode(v: &Value) -> Result<Self, String>;
}

fn expected<T>(what: &str, v: &Value) -> Result<T, String> {
    Err(format!("must be {what}, got {v}"))
}

/// Integers (seeds, budgets, ids, counts). JSON numbers are f64s, which
/// round above 2^53, and a silently altered seed or budget would break
/// the determinism contract. So values that do not fit exactly travel as
/// decimal strings, and both shapes decode.
impl Wire for u64 {
    fn encode(&self) -> Value {
        if *self <= 1 << 53 {
            (*self as f64).encode()
        } else {
            Value::String(self.to_string())
        }
    }
    fn decode(v: &Value) -> Result<u64, String> {
        let exact = match v {
            Value::String(text) => text.parse().ok(),
            other => other.as_u64(),
        };
        exact.map_or_else(|| expected("an unsigned integer", v), Ok)
    }
}

impl Wire for usize {
    fn encode(&self) -> Value {
        (*self as u64).encode()
    }
    fn decode(v: &Value) -> Result<usize, String> {
        usize::try_from(u64::decode(v)?).or_else(|_| expected("an unsigned integer", v))
    }
}

/// Objective values can legitimately be infinite (an Mcut/Ncut part with
/// no internal weight) but JSON numbers cannot: non-finite values travel
/// as the strings `"inf"` / `"-inf"` / `"nan"`.
impl Wire for f64 {
    fn encode(&self) -> Value {
        match Number::from_f64(*self) {
            Some(n) => Value::Number(n),
            None if self.is_nan() => Value::String("nan".into()),
            None if *self > 0.0 => Value::String("inf".into()),
            None => Value::String("-inf".into()),
        }
    }
    fn decode(v: &Value) -> Result<f64, String> {
        match v {
            Value::Number(n) => Ok(n.as_f64()),
            Value::String(text) if text == "inf" => Ok(f64::INFINITY),
            Value::String(text) if text == "-inf" => Ok(f64::NEG_INFINITY),
            Value::String(text) if text == "nan" => Ok(f64::NAN),
            _ => expected("a number", v),
        }
    }
}

impl Wire for bool {
    fn encode(&self) -> Value {
        Value::Bool(*self)
    }
    fn decode(v: &Value) -> Result<bool, String> {
        v.as_bool().map_or_else(|| expected("a boolean", v), Ok)
    }
}

impl Wire for String {
    fn encode(&self) -> Value {
        Value::String(self.clone())
    }
    fn decode(v: &Value) -> Result<String, String> {
        v.as_str()
            .map_or_else(|| expected("a string", v), |s| Ok(s.to_string()))
    }
}

/// Enums that travel as their name (`name`/`parse` on each type).
macro_rules! by_name {
    ($($ty:ident: $names:literal),*) => {$(
        impl Wire for $ty {
            fn encode(&self) -> Value {
                Value::String(self.name().to_string())
            }
            fn decode(v: &Value) -> Result<Self, String> {
                v.as_str()
                    .and_then($ty::parse)
                    .map_or_else(|| expected(concat!("one of ", $names), v), Ok)
            }
        }
    )*};
}

by_name! {
    Objective: "cut|ncut|mcut",
    JobStatus: "completed|cancelled|deadline",
    MigrationPolicyId: "replace|combine|adaptive",
    GraphFormat: "metis|edgelist"
}

fn array(v: &Value) -> Result<&Vec<Value>, String> {
    v.as_array().map_or_else(|| expected("an array", v), Ok)
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self) -> Value {
        Value::Array(self.iter().map(T::encode).collect())
    }
    fn decode(v: &Value) -> Result<Self, String> {
        let items = array(v)?.iter().enumerate();
        items
            .map(|(i, item)| T::decode(item).map_err(|e| format!("entry {i}: {e}")))
            .collect()
    }
}

/// Fixed-length histograms: a short or long array is an error, never
/// zero-filled into a fake profile.
impl<const N: usize> Wire for [u64; N] {
    fn encode(&self) -> Value {
        Value::Array(self.iter().map(u64::encode).collect())
    }
    fn decode(v: &Value) -> Result<Self, String> {
        let items = array(v)?;
        if items.len() != N {
            return Err(format!("must have {N} entries, got {}", items.len()));
        }
        let mut out = [0; N];
        for (slot, item) in out.iter_mut().zip(items) {
            *slot = u64::decode(item).map_err(|_| "entries must be unsigned integers")?;
        }
        Ok(out)
    }
}

/// Part ids, the only `u32`s on the wire: plain numbers (an id never
/// reaches the 2^53 escape), and a bad one is named by its vertex.
impl Wire for Vec<u32> {
    fn encode(&self) -> Value {
        Value::Array(self.iter().map(|&p| (p as u64).encode()).collect())
    }
    fn decode(v: &Value) -> Result<Self, String> {
        let items = array(v)?.iter().enumerate();
        items
            .map(|(i, item)| {
                item.as_u64()
                    .and_then(|p| u32::try_from(p).ok())
                    .ok_or(format!("has a bad part id at vertex {i}"))
            })
            .collect()
    }
}

/// A `per_k` entry: `[k, best value at k]`.
impl Wire for (u64, f64) {
    fn encode(&self) -> Value {
        Value::Array(vec![self.0.encode(), self.1.encode()])
    }
    fn decode(v: &Value) -> Result<Self, String> {
        match v.as_array().map(Vec::as_slice) {
            Some([k, value]) => Ok((u64::decode(k)?, f64::decode(value)?)),
            _ => expected("a [k, value] pair", v),
        }
    }
}

/// A Pareto point's scores: an object keyed by objective name, in the
/// job's distinct-objective order.
impl Wire for Vec<(Objective, f64)> {
    fn encode(&self) -> Value {
        let mut m = Map::new();
        for (o, value) in self {
            m.insert(o.name().to_string(), value.encode());
        }
        Value::Object(m)
    }
    fn decode(v: &Value) -> Result<Self, String> {
        let m = v
            .as_object()
            .map_or_else(|| expected("an object keyed by objective", v), Ok)?;
        m.iter()
            .map(|(name, value)| -> Result<_, String> {
                let o =
                    Objective::parse(name).ok_or(format!("has an unknown objective `{name}`"))?;
                Ok((o, f64::decode(value).map_err(|e| format!("`{name}` {e}"))?))
            })
            .collect()
    }
}

/// How a declared field sits in its message object. A [`Wire`] value is
/// one entry under the field's name; an `Option` is left out when `None`;
/// a flattened type (a graph source, a molecule) spreads its own entries
/// into the message.
pub(crate) trait Field: Sized {
    /// Writes the field into `m`.
    fn put(&self, key: &str, m: &mut Map);
    /// Reads the field from `m`; `Ok(None)` when it is absent.
    fn take(m: &Map, key: &str) -> Result<Option<Self>, String>;
    /// Whether `name` is one of the keys the field declared as `key`
    /// occupies.
    fn owns(key: &str, name: &str) -> bool {
        key == name
    }
}

impl<T: Wire> Field for T {
    fn put(&self, key: &str, m: &mut Map) {
        m.insert(key.to_string(), self.encode());
    }
    fn take(m: &Map, key: &str) -> Result<Option<T>, String> {
        let decode = |v: &Value| T::decode(v).map_err(|e| format!("`{key}` {e}"));
        m.get(key).map(decode).transpose()
    }
}

impl<T: Wire> Field for Option<T> {
    fn put(&self, key: &str, m: &mut Map) {
        if let Some(value) = self {
            value.put(key, m);
        }
    }
    fn take(m: &Map, key: &str) -> Result<Option<Self>, String> {
        T::take(m, key).map(Some)
    }
}

/// The `path` | `data` choice shared by the `load` op and the journal's
/// `instance` record: exactly one of the two keys carries the graph.
impl Field for GraphSource {
    fn put(&self, _: &str, m: &mut Map) {
        match self {
            GraphSource::Path(path) => path.put("path", m),
            GraphSource::Data(data) => data.put("data", m),
        }
    }
    fn take(m: &Map, _: &str) -> Result<Option<Self>, String> {
        match (String::take(m, "path")?, String::take(m, "data")?) {
            (Some(path), None) => Ok(Some(GraphSource::Path(path))),
            (None, Some(data)) => Ok(Some(GraphSource::Data(data))),
            (None, None) => Err("need `path` or `data`".into()),
            (Some(_), Some(_)) => Err("`path` and `data` are mutually exclusive".into()),
        }
    }
    fn owns(_: &str, name: &str) -> bool {
        name == "path" || name == "data"
    }
}

/// Reads a declared field: its value, else its default, else an error.
pub(crate) fn field<T: Field>(m: &Map, key: &str, default: Option<T>) -> Result<T, String> {
    T::take(m, key)?
        .or(default)
        .ok_or_else(|| format!("missing `{key}`"))
}

/// The object `v`, once every key is known to be `tag` or a declared
/// field: the strict-schema rule. A typo'd field is rejected by name,
/// never ignored; on the worker ops doubly so, since a dropped field
/// there would desync the distributed lockstep.
pub(crate) fn strict<'v>(
    v: &'v Value,
    tag: Option<&str>,
    is_field: impl Fn(&str) -> bool,
) -> Result<&'v Map, String> {
    let m = v.as_object().map_or_else(|| expected("an object", v), Ok)?;
    match m
        .iter()
        .find(|(k, _)| Some(k.as_str()) != tag && !is_field(k))
    {
        Some((k, _)) => Err(format!("unknown field `{k}`")),
        None => Ok(m),
    }
}

/// Parses one NDJSON line into a message.
pub(crate) fn parse_line<T: Wire>(line: &str) -> Result<T, String> {
    let v = serde_json::from_str(line).map_err(|e| format!("bad JSON: {e}"))?;
    T::decode(&v)
}

/// Declares a wire message (field rules: the `protocol` module docs):
/// `pub struct Name [mode] check f { fields }`, where `mode` is
/// `"key" = "tag"` (a tagged message), empty (nested in another message)
/// or `flat` (fields spread into the enclosing message), or
/// `pub enum Name ["key"] check f { "tag" => Variant …, }`, where a
/// variant is a unit, has `{ fields }`, wraps a tagged struct (`(Type)`)
/// or nests a value under one key (`(Type) in key`). `check f` runs
/// `f(value)` after the generated decode.
macro_rules! wire {
    (
        $(#[$meta:meta])*
        pub struct $name:ident [$($mode:tt)*] $(check $check:path)? {
            $(
                $(#[$fmeta:meta])*
                $f:ident: $ft:ty $(= $fd:expr $(=> $omit:ident)?)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $f: $ft, )*
        }

        impl $name {
            fn is_field(name: &str) -> bool {
                false $(|| <$ft as $crate::wire::Field>::owns(stringify!($f), name))*
            }

            fn write_fields(&self, m: &mut serde_json::Map) {
                $( wire!(@put self.$f, $f, m $(, $fd $(, $omit)?)?); )*
            }

            fn read_fields(m: &serde_json::Map) -> Result<Self, String> {
                let value = $name {
                    $( $f: $crate::wire::field(m, stringify!($f), wire!(@some $($fd)?))?, )*
                };
                wire!(@check value $(, $check)?)
            }
        }

        wire!(@mode $name [$($mode)*]);
    };

    (
        $(#[$meta:meta])*
        pub enum $name:ident [$key:literal] $(check $check:path)? {
            $(
                $(#[$vmeta:meta])*
                $tag:literal => $v:ident
                $({ $( $(#[$fmeta:meta])* $f:ident: $ft:ty $(= $fd:expr)? ),* $(,)? })?
                $(($inner:ty) $(in $ik:ident)?)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $( $(#[$vmeta])* $v $({ $( $(#[$fmeta])* $f: $ft ),* })? $(($inner))? ),*
        }

        impl $crate::wire::Wire for $name {
            fn encode(&self) -> serde_json::Value {
                match self {
                    $(
                        wire!(@pat $v x [$($($f)*)?] [$($inner)?])
                            => wire!(@enc $key, $tag, x [$($($f)*)?] [$($inner $(, $ik)?)?]),
                    )*
                }
            }

            fn decode(v: &serde_json::Value) -> Result<Self, String> {
                let tag = v
                    .get($key)
                    .and_then(serde_json::Value::as_str)
                    .ok_or(concat!("missing `", $key, "`"))?;
                let value = match tag {
                    $(
                        $tag => wire!(@dec $key, $tag, v, $v
                            [$($( $f: $ft $(= $fd)? ),*)?] [$($inner $(, $ik)?)?]),
                    )*
                    other => Err(format!("unknown {} `{other}`", $key)),
                }?;
                wire!(@check value $(, $check)?)
            }
        }
    };

    (@mode $name:ident [flat]) => {
        impl $crate::wire::Field for $name {
            fn put(&self, _: &str, m: &mut serde_json::Map) {
                self.write_fields(m);
            }
            fn take(m: &serde_json::Map, _: &str) -> Result<Option<Self>, String> {
                Self::read_fields(m).map(Some)
            }
            fn owns(_: &str, name: &str) -> bool {
                Self::is_field(name)
            }
        }
    };

    (@mode $name:ident [$($key:literal = $tag:literal)?]) => {
        impl $crate::wire::Wire for $name {
            fn encode(&self) -> serde_json::Value {
                let mut m = serde_json::Map::new();
                $( m.insert($key.to_string(), serde_json::Value::String($tag.to_string())); )?
                self.write_fields(&mut m);
                serde_json::Value::Object(m)
            }
            fn decode(v: &serde_json::Value) -> Result<Self, String> {
                $crate::wire::strict(v, wire!(@some $($key)?), Self::is_field)
                    .and_then(Self::read_fields)
                    $( .map_err(|e| format!("{}: {e}", $tag)) )?
            }
        }
    };

    // Internal rules: one field write, a default, the hand-written check,
    // and each variant's match pattern, encoder and decoder.
    (@put $value:expr, $f:ident, $m:ident $(, $fd:expr)?) => {
        $crate::wire::Field::put(&$value, stringify!($f), $m)
    };
    (@put $value:expr, $f:ident, $m:ident, $fd:expr, omit_default) => {
        if $value != $fd {
            $crate::wire::Field::put(&$value, stringify!($f), $m)
        }
    };

    (@some) => { None };
    (@some $x:expr) => { Some($x) };

    (@check $value:ident) => { Ok($value) };
    (@check $value:ident, $check:path) => { $check($value) };

    (@pat $v:ident $x:ident [$($f:ident)*] []) => { Self::$v { $($f),* } };
    (@pat $v:ident $x:ident [] [$inner:ty]) => { Self::$v($x) };

    (@enc $key:literal, $tag:literal, $x:ident [$($f:ident)*] []) => {{
        let mut m = serde_json::Map::new();
        m.insert($key.to_string(), serde_json::Value::String($tag.to_string()));
        $( $crate::wire::Field::put($f, stringify!($f), &mut m); )*
        serde_json::Value::Object(m)
    }};
    (@enc $key:literal, $tag:literal, $x:ident [] [$inner:ty]) => {
        $crate::wire::Wire::encode($x)
    };
    (@enc $key:literal, $tag:literal, $x:ident [] [$inner:ty, $ik:ident]) => {{
        let $ik = $x;
        wire!(@enc $key, $tag, $x [$ik] [])
    }};

    (@dec $key:literal, $tag:literal, $v:ident, $variant:ident [] []) => {
        $crate::wire::strict($v, Some($key), |_| false)
            .map(|_| Self::$variant {})
            .map_err(|e| format!("{}: {e}", $tag))
    };
    (@dec $key:literal, $tag:literal, $v:ident, $variant:ident
        [$($f:ident: $ft:ty $(= $fd:expr)?),*] []) => {
        $crate::wire::strict($v, Some($key), |name| {
            false $(|| <$ft as $crate::wire::Field>::owns(stringify!($f), name))*
        })
        .and_then(|m| {
            Ok(Self::$variant {
                $( $f: $crate::wire::field(m, stringify!($f), wire!(@some $($fd)?))?, )*
            })
        })
        .map_err(|e| format!("{}: {e}", $tag))
    };
    (@dec $key:literal, $tag:literal, $v:ident, $variant:ident [] [$inner:ty]) => {
        <$inner as $crate::wire::Wire>::decode($v).map(Self::$variant)
    };
    (@dec $key:literal, $tag:literal, $v:ident, $variant:ident [] [$inner:ty, $ik:ident]) => {
        $crate::wire::strict($v, Some($key), |name| name == stringify!($ik))
            .and_then(|m| Ok(Self::$variant($crate::wire::field(m, stringify!($ik), None)?)))
            .map_err(|e| format!("{}: {e}", $tag))
    };
}

pub(crate) use wire;
