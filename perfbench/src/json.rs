//! A minimal JSON value and renderer for the result lines.

pub enum Json {
    Null,
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // `Display` for `f64` is the shortest exact round-trip form and
            // never uses exponent notation, so every digit is kept.
            Json::Num(v) if v.is_finite() => out.push_str(&v.to_string()),
            Json::Null | Json::Num(_) => out.push_str("null"),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Json::Str(s) => write_str(s, out),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    out.push_str(&si_lint::json_escape(s));
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_objects_with_escapes() {
        let v = Json::obj([
            ("a", Json::Num(1.25)),
            ("b", Json::str("x\"y")),
            (
                "c",
                Json::obj([("d", Json::Bool(true)), ("e", Json::Int(3))]),
            ),
        ]);
        assert_eq!(
            v.render(),
            r#"{"a": 1.25, "b": "x\"y", "c": {"d": true, "e": 3}}"#
        );
    }
}
