//! Attribute values.
//!
//! The explicit (non-temporal) attributes of a relation hold [`Value`]s.
//! User-defined time (paper §4.5) is deliberately *not* a special
//! mechanism: it is an ordinary attribute of type [`AttrType::Date`]
//! whose values the DBMS stores, compares and prints but never
//! interprets — "all that is needed is an internal representation and
//! input and output functions".

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::calendar::Date;
use crate::chronon::Chronon;

/// The type of an explicit attribute.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AttrType {
    /// Character string.
    Str,
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// Boolean.
    Bool,
    /// User-defined time: a calendar date stored as a chronon,
    /// uninterpreted by the engine.
    Date,
}

impl fmt::Display for AttrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AttrType::Str => "str",
            AttrType::Int => "int",
            AttrType::Float => "float",
            AttrType::Bool => "bool",
            AttrType::Date => "date",
        };
        f.pad(s)
    }
}

/// A single attribute value.
///
/// Strings are reference-counted so tuples copy cheaply through the
/// algebra pipeline.  `Float` wraps the bits to provide total ordering
/// and hashing (NaN sorts last; `-0.0 == 0.0`).
#[derive(Clone, Debug)]
pub enum Value {
    /// A string.
    Str(Arc<str>),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A user-defined time value.
    Date(Chronon),
}

impl Value {
    /// Creates a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The value's type.
    pub fn attr_type(&self) -> AttrType {
        match self {
            Value::Str(_) => AttrType::Str,
            Value::Int(_) => AttrType::Int,
            Value::Float(_) => AttrType::Float,
            Value::Bool(_) => AttrType::Bool,
            Value::Date(_) => AttrType::Date,
        }
    }

    /// Borrows the string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer content, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The date content, if this is a date.
    pub fn as_date(&self) -> Option<Chronon> {
        match self {
            Value::Date(c) => Some(*c),
            _ => None,
        }
    }

    /// Normalized float bits giving a total order (NaN canonicalized and
    /// greatest, `-0.0` = `0.0`).
    fn float_key(x: f64) -> u64 {
        if x.is_nan() {
            return u64::MAX;
        }
        let x = if x == 0.0 { 0.0 } else { x }; // collapse -0.0
        let bits = x.to_bits();
        if bits >> 63 == 0 {
            bits ^ (1 << 63)
        } else {
            !bits
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: within a type, natural order; across types, by type
    /// tag (Str < Int < Float < Bool < Date).  Cross-type comparisons only
    /// occur in heterogeneous sort keys, never in typed query evaluation.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Str(_) => 0,
                Int(_) => 1,
                Float(_) => 2,
                Bool(_) => 3,
                Date(_) => 4,
            }
        }
        match (self, other) {
            (Str(a), Str(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => Value::float_key(*a).cmp(&Value::float_key(*b)),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Str(s) => {
                state.write_u8(0);
                s.hash(state);
            }
            Value::Int(i) => {
                state.write_u8(1);
                i.hash(state);
            }
            Value::Float(x) => {
                state.write_u8(2);
                Value::float_key(*x).hash(state);
            }
            Value::Bool(b) => {
                state.write_u8(3);
                b.hash(state);
            }
            Value::Date(c) => {
                state.write_u8(4);
                c.ticks().hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => f.pad(s),
            Value::Int(i) => pad_inline(f, format_args!("{i}")),
            Value::Float(x) => pad_inline(f, format_args!("{x}")),
            Value::Bool(b) => f.pad(if *b { "true" } else { "false" }),
            Value::Date(c) => fmt::Display::fmt(&Date::from_chronon(*c), f),
        }
    }
}

/// Pads the text of `args` through `f` (width, fill, alignment, as
/// for a string), formatting it on the stack when it fits.
fn pad_inline(f: &mut fmt::Formatter<'_>, args: fmt::Arguments<'_>) -> fmt::Result {
    /// Room for any integer and for most floats.
    struct Inline {
        buf: [u8; 40],
        len: usize,
    }
    impl fmt::Write for Inline {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            let end = self.len + s.len();
            self.buf
                .get_mut(self.len..end)
                .ok_or(fmt::Error)?
                .copy_from_slice(s.as_bytes());
            self.len = end;
            Ok(())
        }
    }
    let mut inline = Inline {
        buf: [0; 40],
        len: 0,
    };
    if fmt::Write::write_fmt(&mut inline, args).is_ok() {
        f.pad(std::str::from_utf8(&inline.buf[..inline.len]).expect("whole characters"))
    } else {
        f.pad(&args.to_string())
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(Arc::from(s.as_str()))
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Float(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<Chronon> for Value {
    fn from(c: Chronon) -> Value {
        Value::Date(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equality_and_ordering_within_types() {
        assert_eq!(Value::str("full"), Value::str("full"));
        assert!(Value::str("associate") < Value::str("full"));
        assert!(Value::Int(3) < Value::Int(7));
        assert!(Value::Float(1.5) < Value::Float(2.0));
    }

    #[test]
    fn float_total_order_handles_nan_and_zero() {
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert!(Value::Float(f64::INFINITY) < Value::Float(f64::NAN));
        assert!(Value::Float(-f64::INFINITY) < Value::Float(0.0));
    }

    #[test]
    fn display_matches_paper_formats() {
        assert_eq!(Value::str("Merrie").to_string(), "Merrie");
        let d = crate::calendar::date("09/01/77").unwrap();
        assert_eq!(Value::Date(d).to_string(), "09/01/77");
        // Numbers pad like strings (left-aligned by default), and a float
        // too long for the stack buffer still prints whole.
        assert_eq!(format!("{:6}|", Value::Int(-42)), "-42   |");
        assert_eq!(
            format!("{:>6}|", Value::Int(i64::MIN)),
            "-9223372036854775808|"
        );
        assert_eq!(format!("{:>6}|", Value::Float(2.5)), "   2.5|");
        assert_eq!(Value::Float(1e300).to_string(), format!("{}", 1e300));
        assert_eq!(format!("{:>10}", Value::Date(d)), "  09/01/77");
    }

    #[test]
    fn types_report_correctly() {
        assert_eq!(Value::str("x").attr_type(), AttrType::Str);
        assert_eq!(Value::Int(1).attr_type(), AttrType::Int);
        assert_eq!(Value::Date(Chronon::ZERO).attr_type(), AttrType::Date);
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&Value::str("a")), hash_of(&Value::str("a")));
        assert_eq!(hash_of(&Value::Int(42)), hash_of(&Value::Int(42)));
    }
}
