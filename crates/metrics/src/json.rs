//! Minimal hand-rolled JSON emission.
//!
//! The workspace's `serde` shim provides marker traits only, so every JSON
//! body the workspace emits — registry snapshots, the SLO engine's
//! payloads, the HTTP endpoints — is built with the one
//! [`JsonWriter`] here. A body, or a block of one, is rendered by a function
//! `(&value, &mut JsonWriter)` that writes one JSON value at the writer's
//! position — a `write_json` method where the crate owns the type, a free
//! `*_json` function where it does not — so a block that appears in
//! several bodies is one function its parents call.

/// A scalar the writer can emit: integers, `f64`, `bool`, strings, and
/// `Option`s of those (`None` is `null`).
pub trait JsonScalar {
    /// Appends the value's JSON token to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! display_scalars {
    ($($t:ty),*) => {$(
        impl JsonScalar for $t {
            fn write_json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
    )*};
}
display_scalars!(u8, u32, u64, usize, i64, bool);

impl JsonScalar for f64 {
    /// NaN and infinities become `null` (JSON has no representation for
    /// them).
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            // `{:?}` round-trips f64 exactly and always includes a decimal
            // point or exponent, keeping the token a valid JSON number.
            out.push_str(&format!("{self:?}"));
        } else {
            out.push_str("null");
        }
    }
}

impl JsonScalar for str {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

impl JsonScalar for String {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

impl<T: JsonScalar + ?Sized> JsonScalar for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: JsonScalar> JsonScalar for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

/// Builds a JSON document into an owned `String`.
///
/// # Examples
///
/// ```
/// use rjms_metrics::JsonWriter;
/// let json = JsonWriter::document(|w| {
///     w.object(|w| {
///         w.field("count", 3u64);
///         w.key("tags").array(|w| w.value("a"));
///     });
/// });
/// assert_eq!(json, r#"{"count":3,"tags":["a"]}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the current nesting level already has an element (needs a
    /// comma before the next one). One entry per open object/array.
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    /// The document `body` writes: one value, usually an
    /// [`object`](Self::object).
    pub fn document(body: impl FnOnce(&mut Self)) -> String {
        let mut w = Self::default();
        body(&mut w);
        w.out
    }

    fn pre_value(&mut self) {
        if let Some(seen) = self.needs_comma.last_mut() {
            if *seen {
                self.out.push(',');
            }
            *seen = true;
        }
    }

    fn scope(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) {
        self.pre_value();
        self.out.push(open);
        self.needs_comma.push(false);
        body(self);
        self.needs_comma.pop();
        self.out.push(close);
    }

    /// Writes an object whose members `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) {
        self.scope('{', '}', body);
    }

    /// Writes an array whose elements `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) {
        self.scope('[', ']', body);
    }

    /// Writes an object key; the next call must write its value
    /// ([`object`](Self::object), [`array`](Self::array),
    /// [`optional`](Self::optional), or a block's rendering function).
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.pre_value();
        write_escaped(&mut self.out, name);
        self.out.push(':');
        // The value that follows must not emit another comma; its own
        // `pre_value` sets the flag again.
        if let Some(seen) = self.needs_comma.last_mut() {
            *seen = false;
        }
        self
    }

    /// Writes a scalar: an array element, or the value after a
    /// [`key`](Self::key).
    pub fn value(&mut self, v: impl JsonScalar) {
        self.pre_value();
        v.write_json(&mut self.out);
    }

    /// Writes an object member with a scalar value.
    pub fn field(&mut self, name: &str, v: impl JsonScalar) {
        self.key(name).value(v);
    }

    /// Writes what `render` makes of `v`, or `null` when there is none.
    pub fn optional<T>(&mut self, v: Option<T>, render: impl FnOnce(T, &mut Self)) {
        match v {
            Some(v) => render(v, self),
            None => self.value(None::<bool>),
        }
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_document() {
        let json = JsonWriter::document(|w| {
            w.object(|w| {
                w.field("name", "dispatch.waiting_ns");
                w.field("count", 42u64);
                w.field("mean", 1.5);
                w.key("buckets").array(|w| {
                    w.object(|w| {
                        w.field("upper", 32u32);
                        w.field("n", 7usize);
                    });
                    w.value(9u8);
                });
                w.field("gauge", -3i64);
            });
        });
        assert_eq!(
            json,
            r#"{"name":"dispatch.waiting_ns","count":42,"mean":1.5,"buckets":[{"upper":32,"n":7},9],"gauge":-3}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let json = JsonWriter::document(|w| w.value("a\"b\\c\nd\u{1}"));
        assert_eq!(json, r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let json = JsonWriter::document(|w| {
            w.array(|w| {
                w.value(f64::NAN);
                w.value(f64::INFINITY);
                w.value(2.0);
            });
        });
        assert_eq!(json, "[null,null,2.0]");
    }

    #[test]
    fn bool_and_options() {
        let json = JsonWriter::document(|w| {
            w.object(|w| {
                w.field("on", true);
                w.field("none", None::<u64>);
                w.field("some", Some(1e-7));
                w.field("name", Some(&String::from("x")));
                w.key("absent").optional(None::<u64>, |v, w| w.value(v));
                w.key("block").optional(Some(3u64), |v, w| w.object(|w| w.field("v", v)));
            });
        });
        assert_eq!(
            json,
            r#"{"on":true,"none":null,"some":1e-7,"name":"x","absent":null,"block":{"v":3}}"#
        );
    }
}
