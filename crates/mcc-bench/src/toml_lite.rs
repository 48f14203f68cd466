//! A minimal TOML reader for scenario files.
//!
//! The build environment is offline, so instead of the `toml` crate the
//! scenario layer uses this self-contained parser for the subset of TOML the
//! scenario schema needs:
//!
//! * root-level and single-level `[section]` tables, each header at most
//!   once,
//! * `key = value` pairs with string, integer, float, boolean and
//!   (homogeneous, single- or multi-line) array values,
//! * `#` comments and blank lines.
//!
//! Everything parses into [`Doc`], an ordered map of sections each holding an
//! ordered `key → Value` map. Scenarios are read, never written: a
//! [`Value`]'s `Display` quotes it in error messages.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A TOML value from the supported subset.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// A 64-bit signed integer.
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array of values.
    Array(Vec<Value>),
}

impl Value {
    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a float (integers coerce), if numeric.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }
}

/// Writes the value as TOML, for error messages that quote it.
impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Str(s) => {
                f.write_char('"')?;
                for ch in s.chars() {
                    match ch {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        _ => f.write_char(ch)?,
                    }
                }
                f.write_char('"')
            }
            Value::Float(v) if v.fract() == 0.0 && v.is_finite() => write!(f, "{v:.1}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Array(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
        }
    }
}

/// One `key = value` table (root or `[section]`).
pub type Table = BTreeMap<String, Value>;

/// A parsed document: the root table plus named sections, in order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Doc {
    /// Root-level keys (before any `[section]`).
    pub root: Table,
    /// `[section]` tables, keyed by section name.
    pub sections: BTreeMap<String, Table>,
}

/// A parse failure with a 1-based line number.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Line the failure occurred on.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TOML parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Strip a trailing comment that is not inside a string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '\\' if in_str => escaped = !escaped,
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

impl Doc {
    /// Parse a document from TOML text.
    pub fn parse(text: &str) -> Result<Doc, ParseError> {
        let mut doc = Doc::default();
        let mut current: Option<String> = None;
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let name = name
                    .strip_suffix(']')
                    .ok_or_else(|| err(lineno, "unterminated section header"))?
                    .trim();
                if name.is_empty() || name.starts_with('[') {
                    return Err(err(lineno, "unsupported section header"));
                }
                if doc
                    .sections
                    .insert(name.to_string(), Table::new())
                    .is_some()
                {
                    return Err(err(lineno, format!("repeated section header `[{name}]`")));
                }
                current = Some(name.to_string());
                continue;
            }
            let (key, rest) = line
                .split_once('=')
                .ok_or_else(|| err(lineno, "expected `key = value`"))?;
            let key = key.trim();
            if key.is_empty() {
                return Err(err(lineno, "empty key"));
            }
            // Multi-line arrays: keep appending lines until brackets balance.
            let mut value_text = rest.trim().to_string();
            while !brackets_balanced(&value_text) {
                let (_, next) = lines
                    .next()
                    .ok_or_else(|| err(lineno, "unterminated array"))?;
                value_text.push(' ');
                value_text.push_str(strip_comment(next).trim());
            }
            let value = parse_value(&value_text, lineno)?;
            let table = match &current {
                Some(name) => doc.sections.get_mut(name).expect("section registered"),
                None => &mut doc.root,
            };
            if table.insert(key.to_string(), value).is_some() {
                return Err(err(lineno, format!("duplicate key `{key}`")));
            }
        }
        Ok(doc)
    }

    /// Look a key up in a section (or the root for `""`).
    pub fn get(&self, section: &str, key: &str) -> Option<&Value> {
        if section.is_empty() {
            self.root.get(key)
        } else {
            self.sections.get(section)?.get(key)
        }
    }
}

fn brackets_balanced(text: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escaped = false;
    for ch in text.chars() {
        match ch {
            '\\' if in_str => escaped = !escaped,
            '"' if !escaped => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => escaped = false,
        }
    }
    depth <= 0
}

fn parse_value(text: &str, lineno: usize) -> Result<Value, ParseError> {
    let text = text.trim();
    if text.is_empty() {
        return Err(err(lineno, "missing value"));
    }
    if let Some(body) = text.strip_prefix('"') {
        let body = body
            .strip_suffix('"')
            .ok_or_else(|| err(lineno, "unterminated string"))?;
        let mut s = String::with_capacity(body.len());
        let mut chars = body.chars();
        while let Some(ch) = chars.next() {
            if ch == '\\' {
                match chars.next() {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    other => {
                        return Err(err(lineno, format!("unsupported escape `\\{other:?}`")));
                    }
                }
            } else {
                s.push(ch);
            }
        }
        return Ok(Value::Str(s));
    }
    if text == "true" {
        return Ok(Value::Bool(true));
    }
    if text == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(body) = text.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| err(lineno, "unterminated array"))?;
        let mut items = Vec::new();
        for part in split_array_items(body) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            items.push(parse_value(part, lineno)?);
        }
        return Ok(Value::Array(items));
    }
    let plain = text.replace('_', "");
    if let Ok(v) = plain.parse::<i64>() {
        return Ok(Value::Int(v));
    }
    if let Ok(v) = plain.parse::<f64>() {
        return Ok(Value::Float(v));
    }
    Err(err(lineno, format!("unsupported value `{text}`")))
}

/// Split on top-level commas (arrays may nest; strings may hold commas).
fn split_array_items(body: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escaped = false;
    let mut current = String::new();
    for ch in body.chars() {
        match ch {
            '\\' if in_str => {
                escaped = !escaped;
                current.push(ch);
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            ',' if !in_str && depth == 0 => {
                items.push(std::mem::take(&mut current));
                escaped = false;
                continue;
            }
            _ => {}
        }
        escaped = false;
        current.push(ch);
    }
    if !current.trim().is_empty() {
        items.push(current);
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_and_scalars() {
        let doc = Doc::parse(
            r#"
            # a scenario
            name = "demo"   # trailing comment
            quick = true

            [mesh]
            dims = [8, 8]
            scale = 1.5
            "#,
        )
        .unwrap();
        assert_eq!(doc.get("", "name").unwrap().as_str(), Some("demo"));
        assert_eq!(doc.get("", "quick").unwrap().as_bool(), Some(true));
        let dims = doc.get("mesh", "dims").unwrap().as_array().unwrap();
        assert_eq!(
            dims.iter().filter_map(Value::as_int).collect::<Vec<_>>(),
            vec![8, 8]
        );
        assert_eq!(doc.get("mesh", "scale").unwrap().as_float(), Some(1.5));
    }

    #[test]
    fn multiline_arrays() {
        let doc = Doc::parse("counts = [\n  1, 2, # two\n  3,\n]\n").unwrap();
        let v = doc.get("", "counts").unwrap().as_array().unwrap();
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn strings_with_hash_and_escapes() {
        let doc = Doc::parse(r#"s = "a # not a \"comment\"""#).unwrap();
        assert_eq!(
            doc.get("", "s").unwrap().as_str(),
            Some(r#"a # not a "comment""#)
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = Doc::parse("ok = 1\nbroken").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(Doc::parse("dup = 1\ndup = 2").is_err());
        assert!(Doc::parse("[unclosed").is_err());
        assert!(Doc::parse("v = @nope").is_err());
    }

    /// TOML defines each table once: a second `[mesh]` header is an error
    /// at its own line, not a silent merge into the first.
    #[test]
    fn repeated_section_header_is_an_error() {
        let e = Doc::parse("[mesh]\ndims = [8, 8]\n[run]\nseeds = [0, 1]\n[mesh]\nwrap = true\n")
            .unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.message.contains("[mesh]"), "got: {e}");
    }
}
