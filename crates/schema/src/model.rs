//! Declarative schema model and validator (the paper's Algorithm 1).
//!
//! A schema document (parsed from YAML or built as JSON) is compiled into
//! a [`Schema`]; [`Schema::validate`] then checks transaction payloads
//! for structural adherence "to the established blueprint" before any
//! semantic validation runs.

use crate::regex::{Regex, RegexError};
use crate::yaml::{parse_yaml, YamlError};
use scdb_json::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Errors raised while *compiling* a schema document.
#[derive(Debug)]
pub enum SchemaError {
    /// The YAML text failed to parse.
    Yaml(YamlError),
    /// A `pattern` keyword holds a malformed pattern or one outside the
    /// supported shape `^C{m,n}$` (see [`crate::regex`]).
    Pattern(String, RegexError),
    /// A `$ref` points to a missing definition.
    UnknownRef(String),
    /// A keyword has the wrong shape (e.g. `required: 3`).
    BadKeyword(String, &'static str),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Yaml(e) => write!(f, "schema YAML error: {e}"),
            SchemaError::Pattern(p, e) => write!(f, "bad pattern {p:?}: {e}"),
            SchemaError::UnknownRef(r) => write!(f, "unknown $ref {r:?}"),
            SchemaError::BadKeyword(k, why) => write!(f, "bad schema keyword {k:?}: {why}"),
        }
    }
}

impl std::error::Error for SchemaError {}

impl From<YamlError> for SchemaError {
    fn from(e: YamlError) -> Self {
        SchemaError::Yaml(e)
    }
}

/// One validation failure, with the dotted path of the offending node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Dotted path from the document root (empty string = root).
    pub path: String,
    /// Human-readable description of the constraint that failed.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "(root): {}", self.message)
        } else {
            write!(f, "{}: {}", self.path, self.message)
        }
    }
}

/// JSON types a schema node may demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeKind {
    Null,
    Boolean,
    Integer,
    NumberKind,
    StringKind,
    ArrayKind,
    ObjectKind,
}

impl TypeKind {
    fn parse(name: &str) -> Option<TypeKind> {
        Some(match name {
            "null" => TypeKind::Null,
            "boolean" => TypeKind::Boolean,
            "integer" => TypeKind::Integer,
            "number" => TypeKind::NumberKind,
            "string" => TypeKind::StringKind,
            "array" => TypeKind::ArrayKind,
            "object" => TypeKind::ObjectKind,
            _ => return None,
        })
    }

    fn accepts(self, v: &Value) -> bool {
        match self {
            TypeKind::Null => v.is_null(),
            TypeKind::Boolean => matches!(v, Value::Bool(_)),
            TypeKind::Integer => v.as_number().is_some_and(|n| n.is_integer()),
            TypeKind::NumberKind => matches!(v, Value::Number(_)),
            TypeKind::StringKind => matches!(v, Value::String(_)),
            TypeKind::ArrayKind => matches!(v, Value::Array(_)),
            TypeKind::ObjectKind => matches!(v, Value::Object(_)),
        }
    }

    fn name(self) -> &'static str {
        match self {
            TypeKind::Null => "null",
            TypeKind::Boolean => "boolean",
            TypeKind::Integer => "integer",
            TypeKind::NumberKind => "number",
            TypeKind::StringKind => "string",
            TypeKind::ArrayKind => "array",
            TypeKind::ObjectKind => "object",
        }
    }
}

/// A compiled schema node.
#[derive(Debug, Clone, Default)]
pub struct Node {
    types: Option<Vec<TypeKind>>,
    enum_values: Option<Vec<Value>>,
    pattern: Option<Arc<Regex>>,
    min_length: Option<usize>,
    max_length: Option<usize>,
    minimum: Option<f64>,
    maximum: Option<f64>,
    properties: BTreeMap<String, Node>,
    required: Vec<String>,
    additional_properties: Option<bool>,
    items: Option<Box<Node>>,
    min_items: Option<usize>,
    max_items: Option<usize>,
    any_of: Vec<Node>,
    reference: Option<String>,
}

/// A compiled schema document: a root node plus named `definitions`.
#[derive(Debug, Clone)]
pub struct Schema {
    root: Node,
    definitions: BTreeMap<String, Node>,
}

impl Schema {
    /// Compiles a schema from YAML text.
    pub fn from_yaml(text: &str) -> Result<Schema, SchemaError> {
        let doc = parse_yaml(text)?;
        Schema::from_value(&doc)
    }

    /// Compiles a schema from an already-parsed document.
    pub fn from_value(doc: &Value) -> Result<Schema, SchemaError> {
        let mut definitions = BTreeMap::new();
        if let Some(defs) = doc.get("definitions").and_then(Value::as_object) {
            for (name, sub) in defs {
                definitions.insert(name.clone(), compile_node(sub)?);
            }
        }
        let root = compile_node(doc)?;
        let schema = Schema { root, definitions };
        schema.check_refs(&schema.root)?;
        for def in schema.definitions.values() {
            schema.check_refs(def)?;
        }
        Ok(schema)
    }

    fn check_refs(&self, node: &Node) -> Result<(), SchemaError> {
        if let Some(r) = &node.reference {
            if !self.definitions.contains_key(r) {
                return Err(SchemaError::UnknownRef(r.clone()));
            }
        }
        for sub in node.properties.values() {
            self.check_refs(sub)?;
        }
        if let Some(items) = &node.items {
            self.check_refs(items)?;
        }
        for sub in &node.any_of {
            self.check_refs(sub)?;
        }
        Ok(())
    }

    /// Validates a document, returning every violation found.
    pub fn validate(&self, value: &Value) -> Result<(), Vec<Violation>> {
        let mut violations = Vec::new();
        self.validate_node(&self.root, value, "", &mut violations);
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }

    /// Convenience: true when the document satisfies the schema.
    pub fn is_valid(&self, value: &Value) -> bool {
        self.validate(value).is_ok()
    }

    #[allow(
        clippy::expect_used,
        reason = "compilation refuses a schema whose `$ref` names no definition (`check_refs`)"
    )]
    fn resolve<'a>(&'a self, node: &'a Node) -> &'a Node {
        match &node.reference {
            Some(r) => self.definitions.get(r).expect("checked at compile time"),
            None => node,
        }
    }

    fn validate_node(&self, node: &Node, value: &Value, path: &str, out: &mut Vec<Violation>) {
        let node = self.resolve(node);

        if let Some(types) = &node.types {
            if !types.iter().any(|t| t.accepts(value)) {
                let expected: Vec<&str> = types.iter().map(|t| t.name()).collect();
                out.push(Violation {
                    path: path.to_owned(),
                    message: format!(
                        "expected {}, found {}",
                        expected.join(" or "),
                        value.type_name()
                    ),
                });
                return; // Further keyword checks would be noise.
            }
        }

        if let Some(allowed) = &node.enum_values {
            if !allowed.contains(value) {
                out.push(Violation {
                    path: path.to_owned(),
                    message: format!("value {value} is not one of the allowed values"),
                });
            }
        }

        if !node.any_of.is_empty() {
            let ok = node.any_of.iter().any(|sub| {
                let mut scratch = Vec::new();
                self.validate_node(sub, value, path, &mut scratch);
                scratch.is_empty()
            });
            if !ok {
                out.push(Violation {
                    path: path.to_owned(),
                    message: "value matches none of the anyOf alternatives".to_owned(),
                });
            }
        }

        match value {
            Value::String(s) => {
                if let Some(re) = &node.pattern {
                    if !re.is_match(s) {
                        out.push(Violation {
                            path: path.to_owned(),
                            message: format!("string does not match pattern {:?}", re.source()),
                        });
                    }
                }
                let len = s.chars().count();
                if let Some(min) = node.min_length {
                    if len < min {
                        out.push(Violation {
                            path: path.to_owned(),
                            message: format!("string length {len} < minLength {min}"),
                        });
                    }
                }
                if let Some(max) = node.max_length {
                    if len > max {
                        out.push(Violation {
                            path: path.to_owned(),
                            message: format!("string length {len} > maxLength {max}"),
                        });
                    }
                }
            }
            Value::Number(n) => {
                let f = n.as_f64();
                if let Some(min) = node.minimum {
                    if f < min {
                        out.push(Violation {
                            path: path.to_owned(),
                            message: format!("number {n} < minimum {min}"),
                        });
                    }
                }
                if let Some(max) = node.maximum {
                    if f > max {
                        out.push(Violation {
                            path: path.to_owned(),
                            message: format!("number {n} > maximum {max}"),
                        });
                    }
                }
            }
            Value::Array(items) => {
                if let Some(min) = node.min_items {
                    if items.len() < min {
                        out.push(Violation {
                            path: path.to_owned(),
                            message: format!("array has {} items, minItems is {min}", items.len()),
                        });
                    }
                }
                if let Some(max) = node.max_items {
                    if items.len() > max {
                        out.push(Violation {
                            path: path.to_owned(),
                            message: format!("array has {} items, maxItems is {max}", items.len()),
                        });
                    }
                }
                if let Some(item_schema) = &node.items {
                    for (i, item) in items.iter().enumerate() {
                        let child = join_path(path, &i.to_string());
                        self.validate_node(item_schema, item, &child, out);
                    }
                }
            }
            Value::Object(map) => {
                for req in &node.required {
                    if !map.contains_key(req) {
                        out.push(Violation {
                            path: path.to_owned(),
                            message: format!("missing required property {req:?}"),
                        });
                    }
                }
                for (k, v) in map {
                    if let Some(sub) = node.properties.get(k) {
                        let child = join_path(path, k);
                        self.validate_node(sub, v, &child, out);
                    } else if node.additional_properties == Some(false) {
                        out.push(Violation {
                            path: join_path(path, k),
                            message: "property is not allowed by the schema".to_owned(),
                        });
                    }
                }
            }
            _ => {}
        }
    }
}

fn join_path(base: &str, seg: &str) -> String {
    if base.is_empty() {
        seg.to_owned()
    } else {
        format!("{base}.{seg}")
    }
}

fn compile_node(doc: &Value) -> Result<Node, SchemaError> {
    let mut node = Node::default();
    let Some(map) = doc.as_object() else {
        // `true`-style permissive schemas: an empty node accepts anything.
        return Ok(node);
    };

    if let Some(r) = map.get("$ref") {
        let r = r
            .as_str()
            .ok_or(SchemaError::BadKeyword("$ref".into(), "must be a string"))?;
        let name = r
            .strip_prefix("#/definitions/")
            .ok_or(SchemaError::BadKeyword(
                "$ref".into(),
                "only #/definitions/* is supported",
            ))?;
        node.reference = Some(name.to_owned());
        return Ok(node);
    }

    if let Some(t) = map.get("type") {
        let mut kinds = Vec::new();
        match t {
            Value::String(s) => {
                kinds.push(
                    TypeKind::parse(s)
                        .ok_or(SchemaError::BadKeyword("type".into(), "unknown type name"))?,
                );
            }
            Value::Array(names) => {
                for n in names {
                    let s = n.as_str().ok_or(SchemaError::BadKeyword(
                        "type".into(),
                        "list must hold strings",
                    ))?;
                    kinds.push(
                        TypeKind::parse(s)
                            .ok_or(SchemaError::BadKeyword("type".into(), "unknown type name"))?,
                    );
                }
            }
            _ => {
                return Err(SchemaError::BadKeyword(
                    "type".into(),
                    "must be string or list",
                ))
            }
        }
        node.types = Some(kinds);
    }

    if let Some(e) = map.get("enum") {
        let items = e
            .as_array()
            .ok_or(SchemaError::BadKeyword("enum".into(), "must be an array"))?;
        node.enum_values = Some(items.to_vec());
    }

    if let Some(p) = map.get("pattern") {
        let s = p.as_str().ok_or(SchemaError::BadKeyword(
            "pattern".into(),
            "must be a string",
        ))?;
        let re = Regex::compile(s).map_err(|e| SchemaError::Pattern(s.to_owned(), e))?;
        node.pattern = Some(Arc::new(re));
    }

    node.min_length = usize_kw(map.get("minLength"), "minLength")?;
    node.max_length = usize_kw(map.get("maxLength"), "maxLength")?;
    node.min_items = usize_kw(map.get("minItems"), "minItems")?;
    node.max_items = usize_kw(map.get("maxItems"), "maxItems")?;
    node.minimum = f64_kw(map.get("minimum"), "minimum")?;
    node.maximum = f64_kw(map.get("maximum"), "maximum")?;

    if let Some(props) = map.get("properties") {
        let obj = props.as_object().ok_or(SchemaError::BadKeyword(
            "properties".into(),
            "must be an object",
        ))?;
        for (k, v) in obj {
            node.properties.insert(k.clone(), compile_node(v)?);
        }
    }

    if let Some(req) = map.get("required") {
        let items = req.as_array().ok_or(SchemaError::BadKeyword(
            "required".into(),
            "must be an array",
        ))?;
        for item in items {
            node.required.push(
                item.as_str()
                    .ok_or(SchemaError::BadKeyword(
                        "required".into(),
                        "entries must be strings",
                    ))?
                    .to_owned(),
            );
        }
    }

    if let Some(ap) = map.get("additionalProperties") {
        node.additional_properties = Some(ap.as_bool().ok_or(SchemaError::BadKeyword(
            "additionalProperties".into(),
            "must be a boolean",
        ))?);
    }

    if let Some(items) = map.get("items") {
        node.items = Some(Box::new(compile_node(items)?));
    }

    if let Some(any_of) = map.get("anyOf") {
        let list = any_of
            .as_array()
            .ok_or(SchemaError::BadKeyword("anyOf".into(), "must be an array"))?;
        for sub in list {
            node.any_of.push(compile_node(sub)?);
        }
    }

    Ok(node)
}

fn usize_kw(v: Option<&Value>, kw: &str) -> Result<Option<usize>, SchemaError> {
    match v {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(|u| Some(u as usize))
            .ok_or(SchemaError::BadKeyword(
                kw.to_owned(),
                "must be a non-negative integer",
            )),
    }
}

fn f64_kw(v: Option<&Value>, kw: &str) -> Result<Option<f64>, SchemaError> {
    match v {
        None => Ok(None),
        Some(Value::Number(n)) => Ok(Some(n.as_f64())),
        Some(_) => Err(SchemaError::BadKeyword(kw.to_owned(), "must be a number")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdb_json::{arr, obj};

    fn schema(yaml: &str) -> Schema {
        Schema::from_yaml(yaml).expect("schema compiles")
    }

    #[test]
    fn type_checking() {
        let s = schema("type: integer\n");
        assert!(s.is_valid(&Value::from(3i64)));
        assert!(!s.is_valid(&Value::from(3.5)));
        assert!(!s.is_valid(&Value::from("3")));
    }

    #[test]
    fn multi_type() {
        let s = schema("type: [object, 'null']\n");
        assert!(s.is_valid(&Value::Null));
        assert!(s.is_valid(&Value::object()));
        assert!(!s.is_valid(&Value::from(1i64)));
    }

    #[test]
    fn required_and_additional_properties() {
        let s = schema(
            "type: object\nrequired:\n  - id\nproperties:\n  id:\n    type: string\nadditionalProperties: false\n",
        );
        assert!(s.is_valid(&obj! { "id" => "x" }));
        let errs = s.validate(&obj! { "extra" => 1 }).unwrap_err();
        assert_eq!(errs.len(), 2); // missing id + disallowed extra
        assert!(errs.iter().any(|v| v.message.contains("missing required")));
        assert!(errs.iter().any(|v| v.path == "extra"));
    }

    #[test]
    fn pattern_and_lengths() {
        let s = schema("type: string\npattern: '^[0-9a-f]+$'\nminLength: 4\nmaxLength: 8\n");
        assert!(s.is_valid(&Value::from("beef")));
        assert!(!s.is_valid(&Value::from("xyz!")));
        assert!(!s.is_valid(&Value::from("ab")));
        assert!(!s.is_valid(&Value::from("aaaaaaaaaa")));
    }

    #[test]
    fn numeric_bounds() {
        let s = schema("type: integer\nminimum: 1\nmaximum: 100\n");
        assert!(s.is_valid(&Value::from(1i64)));
        assert!(s.is_valid(&Value::from(100i64)));
        assert!(!s.is_valid(&Value::from(0i64)));
        assert!(!s.is_valid(&Value::from(101i64)));
    }

    #[test]
    fn array_items_and_counts() {
        let s = schema("type: array\nminItems: 1\nmaxItems: 3\nitems:\n  type: string\n");
        assert!(s.is_valid(&arr!["a"]));
        assert!(!s.is_valid(&Value::array()));
        assert!(!s.is_valid(&arr!["a", "b", "c", "d"]));
        let errs = s.validate(&arr!["a", 2]).unwrap_err();
        assert_eq!(errs[0].path, "1");
    }

    #[test]
    fn enums() {
        let s = schema("enum: [CREATE, TRANSFER]\n");
        assert!(s.is_valid(&Value::from("CREATE")));
        assert!(!s.is_valid(&Value::from("BID")));
    }

    #[test]
    fn definitions_and_refs() {
        let y = r##"
type: object
properties:
  id:
    "$ref": "#/definitions/sha3_hexdigest"
definitions:
  sha3_hexdigest:
    type: string
    pattern: '^[0-9a-f]{64}$'
"##;
        let s = schema(y);
        assert!(s.is_valid(&obj! { "id" => "a".repeat(64) }));
        assert!(!s.is_valid(&obj! { "id" => "zz" }));
    }

    #[test]
    fn unknown_ref_fails_compilation() {
        let y = "type: object\nproperties:\n  x:\n    \"$ref\": \"#/definitions/nope\"\n";
        assert!(matches!(
            Schema::from_yaml(y),
            Err(SchemaError::UnknownRef(_))
        ));
    }

    #[test]
    fn any_of() {
        let y = r"
anyOf:
  -
    type: object
    required: [data]
    properties:
      data:
        type: object
  -
    type: object
    required: [id]
    properties:
      id:
        type: string
";
        let s = schema(y);
        assert!(s.is_valid(&obj! { "data" => Value::object() }));
        assert!(s.is_valid(&obj! { "id" => "abc" }));
        assert!(!s.is_valid(&obj! { "other" => 1 }));
    }

    #[test]
    fn violations_carry_paths() {
        let y = r"
type: object
properties:
  outputs:
    type: array
    items:
      type: object
      required: [amount]
      properties:
        amount:
          type: integer
          minimum: 1
";
        let s = schema(y);
        let doc = obj! { "outputs" => arr![obj! { "amount" => 0 }, obj! { "x" => 1 }] };
        let errs = s.validate(&doc).unwrap_err();
        assert!(errs.iter().any(|v| v.path == "outputs.0.amount"));
        assert!(errs
            .iter()
            .any(|v| v.path == "outputs.1" && v.message.contains("missing")));
    }

    #[test]
    fn bad_pattern_fails_compile() {
        assert!(matches!(
            Schema::from_yaml("type: string\npattern: '^[a-'\n"),
            Err(SchemaError::Pattern(_, RegexError::BadClass(1)))
        ));
        // Well-formed, but outside the one supported shape.
        assert!(matches!(
            Schema::from_yaml("type: string\npattern: '^(a+)+b$'\n"),
            Err(SchemaError::Pattern(_, RegexError::Unsupported(1)))
        ));
    }

    #[test]
    fn permissive_empty_schema() {
        let s = Schema::from_value(&Value::object()).unwrap();
        assert!(s.is_valid(&Value::Null));
        assert!(s.is_valid(&obj! { "anything" => arr![1, 2] }));
    }
}
