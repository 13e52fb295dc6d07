//! Minimal YAML-subset parser for the ALICE configuration file.
//!
//! The paper's flow reads "a custom YAML configuration file" (§3). The
//! offline crate set has no YAML implementation, so this module parses the
//! subset the config needs: nested maps by 2-space indentation, scalar
//! values (string/int/float/bool) and block lists of scalars. Anchors,
//! flow style, multi-line strings and tags are out of scope.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed YAML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Yaml {
    /// Scalar leaf (kept as the raw trimmed string).
    Scalar(String),
    /// Block list of values.
    List(Vec<Yaml>),
    /// Mapping with preserved insertion order not required; sorted keys.
    Map(BTreeMap<String, Yaml>),
}

/// YAML parse error with a line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YamlError {
    /// 1-based line number.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for YamlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "yaml error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for YamlError {}

impl Yaml {
    /// Parses a document (the outermost value must be a map).
    pub fn parse(src: &str) -> Result<Yaml, YamlError> {
        let lines: Vec<(usize, usize, &str)> = src
            .lines()
            .enumerate()
            .filter_map(|(i, raw)| {
                let no_comment = match raw.find('#') {
                    Some(p) if !raw[..p].contains('"') => &raw[..p],
                    _ => raw,
                };
                let trimmed = no_comment.trim_end();
                if trimmed.trim().is_empty() {
                    return None;
                }
                let indent = trimmed.len() - trimmed.trim_start().len();
                Some((i + 1, indent, trimmed.trim_start()))
            })
            .collect();
        let mut pos = 0;
        let v = parse_block(&lines, &mut pos, 0)?;
        if pos != lines.len() {
            return Err(YamlError {
                line: lines[pos].0,
                message: "unexpected de-indent structure".into(),
            });
        }
        Ok(v)
    }

    /// Map lookup (`None` for scalars/lists or missing keys).
    pub fn get(&self, key: &str) -> Option<&Yaml> {
        match self {
            Yaml::Map(m) => m.get(key),
            _ => None,
        }
    }

    /// Scalar as string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Yaml::Scalar(s) => Some(s),
            _ => None,
        }
    }

    /// Scalar parsed as u32.
    pub fn as_u32(&self) -> Option<u32> {
        self.as_str()?.parse().ok()
    }

    /// Scalar parsed as u64 (byte budgets and other large counts).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_str()?.parse().ok()
    }

    /// Scalar parsed as f64.
    pub fn as_f64(&self) -> Option<f64> {
        self.as_str()?.parse().ok()
    }

    /// Scalar parsed as bool (`true`/`false`).
    pub fn as_bool(&self) -> Option<bool> {
        match self.as_str()? {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        }
    }

    /// List items.
    pub fn as_list(&self) -> Option<&[Yaml]> {
        match self {
            Yaml::List(l) => Some(l),
            _ => None,
        }
    }
}

fn parse_block(
    lines: &[(usize, usize, &str)],
    pos: &mut usize,
    indent: usize,
) -> Result<Yaml, YamlError> {
    if *pos >= lines.len() {
        return Ok(Yaml::Map(BTreeMap::new()));
    }
    let (_, _, first) = lines[*pos];
    if first.starts_with("- ") || first == "-" {
        // Block list.
        let mut items = Vec::new();
        while *pos < lines.len() {
            let (line_no, ind, text) = lines[*pos];
            if ind < indent {
                break;
            }
            if ind != indent || !(text.starts_with("- ") || text == "-") {
                return Err(YamlError {
                    line: line_no,
                    message: "inconsistent list indentation".into(),
                });
            }
            let item = text.trim_start_matches('-').trim();
            *pos += 1;
            if item.is_empty() {
                items.push(parse_block(lines, pos, indent + 2)?);
            } else {
                items.push(Yaml::Scalar(unquote(item)));
            }
        }
        return Ok(Yaml::List(items));
    }
    // Block map.
    let mut map = BTreeMap::new();
    while *pos < lines.len() {
        let (line_no, ind, text) = lines[*pos];
        if ind < indent {
            break;
        }
        if ind != indent {
            return Err(YamlError {
                line: line_no,
                message: "unexpected indentation".into(),
            });
        }
        let Some(colon) = text.find(':') else {
            return Err(YamlError {
                line: line_no,
                message: "expected `key: value`".into(),
            });
        };
        let key = text[..colon].trim().to_string();
        let rest = text[colon + 1..].trim();
        *pos += 1;
        let value = if rest.is_empty() {
            // Nested block (map or list) or empty.
            if *pos < lines.len() && lines[*pos].1 > indent {
                parse_block(lines, pos, lines[*pos].1)?
            } else {
                Yaml::Scalar(String::new())
            }
        } else {
            Yaml::Scalar(unquote(rest))
        };
        map.insert(key, value);
    }
    Ok(Yaml::Map(map))
}

fn unquote(s: &str) -> String {
    let s = s.trim();
    if s.len() >= 2
        && ((s.starts_with('"') && s.ends_with('"')) || (s.starts_with('\'') && s.ends_with('\'')))
    {
        s[1..s.len() - 1].to_string()
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_config() {
        let src = r#"
# ALICE config
max_io_pins: 64
max_efpgas: 2
alpha: 1.0
fabric:
  lut_inputs: 4
  les_per_clb: 4
selected_outputs:
  - dout
  - valid
"#;
        let y = Yaml::parse(src).expect("parse");
        assert_eq!(y.get("max_io_pins").and_then(Yaml::as_u32), Some(64));
        assert_eq!(y.get("alpha").and_then(Yaml::as_f64), Some(1.0));
        let fabric = y.get("fabric").expect("fabric");
        assert_eq!(fabric.get("lut_inputs").and_then(Yaml::as_u32), Some(4));
        let outs = y
            .get("selected_outputs")
            .and_then(Yaml::as_list)
            .expect("list");
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].as_str(), Some("dout"));
    }

    #[test]
    fn quoted_scalars_are_unquoted() {
        let y = Yaml::parse("name: \"top module\"").expect("parse");
        assert_eq!(y.get("name").and_then(Yaml::as_str), Some("top module"));
        // A lone quote opens no string: it is the one-character scalar.
        let y = Yaml::parse("a: '\nb:\n  - '\nc: \"").expect("parse");
        assert_eq!(y.get("a").and_then(Yaml::as_str), Some("'"));
        let list = y.get("b").and_then(Yaml::as_list).expect("list");
        assert_eq!(list[0].as_str(), Some("'"));
        assert_eq!(y.get("c").and_then(Yaml::as_str), Some("\""));
    }

    #[test]
    fn bad_indent_is_reported() {
        let err = Yaml::parse("a:\n  b: 1\n c: 2").unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn bool_scalars() {
        let y = Yaml::parse("flag: true\nother: false").expect("parse");
        assert_eq!(y.get("flag").and_then(Yaml::as_bool), Some(true));
        assert_eq!(y.get("other").and_then(Yaml::as_bool), Some(false));
    }

    #[test]
    fn empty_value_is_empty_scalar() {
        let y = Yaml::parse("key:").expect("parse");
        assert_eq!(y.get("key").and_then(Yaml::as_str), Some(""));
    }
}
