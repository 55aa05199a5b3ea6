//! Minimal hand-rolled JSON emission.
//!
//! The workspace's `serde` shim provides marker traits only, so snapshot
//! export builds its JSON text directly. Only the constructs the
//! observability surfaces need are implemented: objects, arrays, strings,
//! integers, and floats. The writer is public so downstream exposition
//! layers (`rjms-obs`, `rjms::http`) render with the same escaping rules
//! as the registry snapshots.

/// Incrementally builds a JSON document into an owned `String`.
///
/// # Examples
///
/// ```
/// use rjms_metrics::JsonWriter;
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.key("count");
/// w.uint(3);
/// w.end_object();
/// assert_eq!(w.finish(), r#"{"count":3}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the current nesting level already has an element (needs a
    /// comma before the next one). One entry per open object/array.
    needs_comma: Vec<bool>,
}

impl JsonWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the finished document.
    pub fn finish(self) -> String {
        debug_assert!(self.needs_comma.is_empty(), "unbalanced JSON nesting");
        self.out
    }

    fn pre_value(&mut self) {
        if let Some(seen) = self.needs_comma.last_mut() {
            if *seen {
                self.out.push(',');
            }
            *seen = true;
        }
    }

    /// Opens an object (`{`).
    pub fn begin_object(&mut self) {
        self.pre_value();
        self.out.push('{');
        self.needs_comma.push(false);
    }

    /// Closes the innermost object (`}`).
    pub fn end_object(&mut self) {
        self.needs_comma.pop();
        self.out.push('}');
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) {
        self.pre_value();
        self.out.push('[');
        self.needs_comma.push(false);
    }

    /// Closes the innermost array (`]`).
    pub fn end_array(&mut self) {
        self.needs_comma.pop();
        self.out.push(']');
    }

    /// Writes an object key; the next call must write its value.
    pub fn key(&mut self, name: &str) {
        self.pre_value();
        write_escaped(&mut self.out, name);
        self.out.push(':');
        // The value that follows must not emit another comma.
        if let Some(seen) = self.needs_comma.last_mut() {
            *seen = false;
        }
    }

    /// Writes an escaped string value.
    pub fn string(&mut self, v: &str) {
        self.pre_value();
        write_escaped(&mut self.out, v);
    }

    /// Writes an unsigned integer value.
    pub fn uint(&mut self, v: u64) {
        self.pre_value();
        self.out.push_str(&v.to_string());
    }

    /// Writes a signed integer value.
    pub fn int(&mut self, v: i64) {
        self.pre_value();
        self.out.push_str(&v.to_string());
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, v: bool) {
        self.pre_value();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Writes a `null` value.
    pub fn null(&mut self) {
        self.pre_value();
        self.out.push_str("null");
    }

    /// Writes a finite float; NaN and infinities become `null` (JSON has no
    /// representation for them).
    pub fn float(&mut self, v: f64) {
        self.pre_value();
        if v.is_finite() {
            // `{:?}` round-trips f64 exactly and always includes a decimal
            // point or exponent, keeping the token a valid JSON number.
            self.out.push_str(&format!("{v:?}"));
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes a pre-rendered JSON fragment verbatim (the caller vouches for
    /// its validity — e.g. a nested document produced by another writer).
    pub fn raw(&mut self, fragment: &str) {
        self.pre_value();
        self.out.push_str(fragment);
    }

    // After `key(..)`, the comma state of the enclosing object was cleared;
    // restore it after the value. Object/array/scalar writers all call
    // `pre_value`, which leaves the flag set, so nothing extra is needed —
    // this comment documents the invariant rather than code.
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
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("name");
        w.string("dispatch.waiting_ns");
        w.key("count");
        w.uint(42);
        w.key("mean");
        w.float(1.5);
        w.key("buckets");
        w.begin_array();
        w.begin_object();
        w.key("upper");
        w.uint(32);
        w.key("n");
        w.uint(7);
        w.end_object();
        w.uint(9);
        w.end_array();
        w.key("gauge");
        w.int(-3);
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"name":"dispatch.waiting_ns","count":42,"mean":1.5,"buckets":[{"upper":32,"n":7},9],"gauge":-3}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let mut w = JsonWriter::new();
        w.string("a\"b\\c\nd\u{1}");
        assert_eq!(w.finish(), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.float(f64::NAN);
        w.float(f64::INFINITY);
        w.float(2.0);
        w.end_array();
        assert_eq!(w.finish(), "[null,null,2.0]");
    }

    #[test]
    fn bool_null_and_raw() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.bool(true);
        w.null();
        w.raw(r#"{"nested":1}"#);
        w.end_array();
        assert_eq!(w.finish(), r#"[true,null,{"nested":1}]"#);
    }
}
