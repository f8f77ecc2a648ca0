//! Minimal JSON parsing for files the benchmarks read back.
//!
//! The workspace builds offline without a JSON crate, so this is a
//! ~150-line recursive-descent parser, strict enough for the bench
//! writers' output (objects, arrays, strings, numbers, bools).
//! `benchmark/tests/shape.rs` reads `BENCHMARK.json` and `stackbench`'s
//! summary line with it.

use std::collections::BTreeMap;

/// Minimal JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn fail(&self, what: &str) -> String {
        format!("parse error at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or_else(|| self.fail("unexpected end"))? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.fail(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.fail("invalid number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    // The bench writers never emit escapes beyond these.
                    let esc = self.bytes.get(self.pos + 1).copied();
                    let ch = match esc {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        _ => return Err(self.fail("unsupported escape")),
                    };
                    out.push(ch);
                    self.pos += 2;
                }
                Some(&b) => {
                    out.push(b as char);
                    self.pos += 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.fail("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            map.insert(key, self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.fail("expected ',' or '}'")),
            }
        }
    }
}

/// Parse a complete JSON document (trailing content is an error).
pub fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.fail("trailing content"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = parse(r#"{"a": [1, 2.5, {"b": "x", "c": true}], "d": null}"#).unwrap();
        let Json::Obj(root) = doc else {
            panic!("expected object: {doc:?}")
        };
        assert!(matches!(&root["a"], Json::Arr(v) if v.len() == 3));
        assert_eq!(root["d"], Json::Null);
    }

    #[test]
    fn malformed_json_fails() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("{\"a\": 1,}").is_err());
    }
}
