//! A minimal TOML-subset parser — just enough for `lint.toml` and
//! `docs/wire_registry.toml`, with no dependencies.
//!
//! Supported: `[table]`, `[[array-of-tables]]`, `key = "string"`,
//! `key = 123` / `0x7F`, `key = true|false`, `key = [ ... ]` arrays of
//! strings/integers (multi-line allowed), and `#` comments. Anything else
//! is a parse error — the two config files this crate owns stay inside
//! the subset by construction.

use std::collections::BTreeMap;

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// `"…"` string.
    Str(String),
    /// Integer (decimal or `0x` hex).
    Int(i64),
    /// `true` / `false`.
    Bool(bool),
    /// `[ ... ]` array.
    Arr(Vec<Value>),
}

impl Value {
    /// The string inside, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer inside, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// String elements of an array (ignores non-strings).
    pub fn str_items(&self) -> Vec<String> {
        self.as_arr()
            .map(|a| {
                a.iter()
                    .filter_map(|v| v.as_str().map(String::from))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// One `key = value` table.
pub type Table = BTreeMap<String, Value>;

/// A parsed document: table name → occurrences (one for `[t]`, several
/// for repeated `[[t]]`). Top-level keys live under the empty name `""`.
#[derive(Debug, Default)]
pub(crate) struct Doc {
    /// Table name → the tables declared under it, in order.
    pub tables: BTreeMap<String, Vec<Table>>,
}

impl Doc {
    /// The single `[name]` table, if present.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name).and_then(|v| v.first())
    }

    /// All `[[name]]` tables, in declaration order.
    pub fn tables_of(&self, name: &str) -> &[Table] {
        self.tables.get(name).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Parses a document; errors carry the 1-based line number.
pub(crate) fn parse(src: &str) -> Result<Doc, String> {
    let mut doc = Doc::default();
    let mut current = String::new();
    doc.tables.insert(String::new(), vec![Table::new()]);

    let mut lines = src.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|r| r.strip_suffix("]]")) {
            current = name.trim().to_string();
            doc.tables
                .entry(current.clone())
                .or_default()
                .push(Table::new());
        } else if let Some(name) = line.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
            current = name.trim().to_string();
            let slot = doc.tables.entry(current.clone()).or_default();
            if slot.is_empty() {
                slot.push(Table::new());
            } else {
                return Err(format!("line {lineno}: table [{current}] declared twice"));
            }
        } else if let Some((key, rest)) = line.split_once('=') {
            let key = key.trim().to_string();
            let mut value_src = rest.trim().to_string();
            // Multi-line array: keep consuming lines until brackets
            // balance (strings in our subset never contain brackets that
            // would confuse this, but count them properly anyway).
            while value_src.starts_with('[') && !array_closed(&value_src) {
                let Some((_, next)) = lines.next() else {
                    return Err(format!("line {lineno}: unterminated array for key {key}"));
                };
                value_src.push(' ');
                value_src.push_str(strip_comment(next).trim());
            }
            let value =
                parse_value(&value_src).map_err(|e| format!("line {lineno}: key {key}: {e}"))?;
            let slot = doc
                .tables
                .get_mut(&current)
                .and_then(|v| v.last_mut())
                .ok_or_else(|| format!("line {lineno}: no open table"))?;
            if slot.insert(key.clone(), value).is_some() {
                return Err(format!("line {lineno}: duplicate key {key}"));
            }
        } else {
            return Err(format!("line {lineno}: cannot parse '{line}'"));
        }
    }
    Ok(doc)
}

/// Drops a `#` comment, respecting `"…"` strings.
fn strip_comment(line: &str) -> &str {
    let b = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'"' => in_str = !in_str,
            b'\\' if in_str => i += 1,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

/// True when a value string starting with `[` has balanced brackets
/// outside string literals.
fn array_closed(s: &str) -> bool {
    let b = s.as_bytes();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'"' => in_str = !in_str,
            b'\\' if in_str => i += 1,
            b'[' if !in_str => depth += 1,
            b']' if !in_str => depth -= 1,
            _ => {}
        }
        i += 1;
    }
    depth == 0
}

fn parse_value(src: &str) -> Result<Value, String> {
    let src = src.trim();
    if let Some(body) = src.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| "unterminated array".to_string())?;
        let mut items = Vec::new();
        for part in split_array_items(body) {
            let part = part.trim();
            if !part.is_empty() {
                items.push(parse_value(part)?);
            }
        }
        return Ok(Value::Arr(items));
    }
    if let Some(body) = src.strip_prefix('"') {
        let body = body
            .strip_suffix('"')
            .ok_or_else(|| "unterminated string".to_string())?;
        // The subset needs no escapes beyond `\\` and `\"`.
        return Ok(Value::Str(body.replace("\\\"", "\"").replace("\\\\", "\\")));
    }
    match src {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    let (digits, radix) = match src.strip_prefix("0x").or_else(|| src.strip_prefix("0X")) {
        Some(hex) => (hex, 16),
        None => (src, 10),
    };
    i64::from_str_radix(&digits.replace('_', ""), radix)
        .map(Value::Int)
        .map_err(|_| format!("cannot parse value '{src}'"))
}

/// Splits array body text on top-level commas (strings respected).
fn split_array_items(body: &str) -> Vec<String> {
    let b = body.as_bytes();
    let mut items = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    let mut depth = 0i32;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'"' => in_str = !in_str,
            b'\\' if in_str => i += 1,
            b'[' if !in_str => depth += 1,
            b']' if !in_str => depth -= 1,
            b',' if !in_str && depth == 0 => {
                items.push(body[start..i].to_string());
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    items.push(body[start..].to_string());
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_arrays_and_scalars() {
        let doc = parse(
            r#"
top = 3
[one]
name = "a"  # trailing comment
hex = 0x7F
flag = true
list = [
    "x",   # per-item comment
    "y",
]
[[many]]
n = 1
[[many]]
n = 2
"#,
        )
        .unwrap();
        assert_eq!(doc.table("").unwrap()["top"], Value::Int(3));
        let one = doc.table("one").unwrap();
        assert_eq!(one["name"].as_str(), Some("a"));
        assert_eq!(one["hex"].as_int(), Some(0x7F));
        assert_eq!(one["flag"], Value::Bool(true));
        assert_eq!(one["list"].str_items(), vec!["x", "y"]);
        let many = doc.tables_of("many");
        assert_eq!(many.len(), 2);
        assert_eq!(many[1]["n"].as_int(), Some(2));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("[t]\nbroken line").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = parse("[t]\n[t]").unwrap_err();
        assert!(err.contains("twice"), "{err}");
        let err = parse("k = \"unterminated").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let doc = parse("k = \"a#b\"").unwrap();
        assert_eq!(doc.table("").unwrap()["k"].as_str(), Some("a#b"));
    }
}
