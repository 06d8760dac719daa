//! Output self-check: every workload, untraced and traced, at a tiny
//! size. The last stdout line must be the result object `{correct,
//! attempted, failed, metrics}`, and its metric names and units must be
//! exactly those `BENCHMARK.json` declares.

use std::path::Path;
use std::process::Command;

/// A parsed JSON value (objects keep their key order).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(entries) => entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }
}

struct Parser<'a> {
    text: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            text: text.as_bytes(),
            at: 0,
        };
        let value = p.value();
        p.ws();
        assert_eq!(p.at, p.text.len(), "trailing text after JSON value");
        value
    }

    fn ws(&mut self) {
        while self.text.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.ws();
        assert_eq!(
            self.text.get(self.at),
            Some(&byte),
            "expected {:?} at {}",
            byte as char,
            self.at
        );
        self.at += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.text[self.at] {
            b'{' => {
                self.at += 1;
                let mut entries = Vec::new();
                self.ws();
                if self.text[self.at] == b'}' {
                    self.at += 1;
                    return Json::Obj(entries);
                }
                loop {
                    self.ws();
                    let key = self.string();
                    self.eat(b':');
                    entries.push((key, self.value()));
                    self.ws();
                    self.at += 1;
                    match self.text[self.at - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(entries),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                self.ws();
                if self.text[self.at] == b']' {
                    self.at += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.at += 1;
                    match self.text[self.at - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(items),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.at;
                while self
                    .text
                    .get(self.at)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.text[start..self.at]).expect("ascii");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|e| panic!("bad number {text}: {e}")),
                )
            }
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Json {
        assert!(
            self.text[self.at..].starts_with(word.as_bytes()),
            "expected {word}"
        );
        self.at += word.len();
        value
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = Vec::new();
        loop {
            let c = self.text[self.at];
            self.at += 1;
            match c {
                b'"' => return String::from_utf8(out).expect("utf-8 string"),
                b'\\' => {
                    let e = self.text[self.at];
                    self.at += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex =
                                std::str::from_utf8(&self.text[self.at..self.at + 4]).expect("hex");
                            let ch = char::from_u32(u32::from_str_radix(hex, 16).expect("hex"))
                                .expect("BMP scalar");
                            out.extend(ch.to_string().as_bytes());
                            self.at += 4;
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    match Parser::parse(&text).get(list) {
        Json::Arr(items) => items
            .iter()
            .map(|m| {
                (
                    m.get("name").str().to_string(),
                    m.get("unit").str().to_string(),
                )
            })
            .collect(),
        other => panic!("{list} is {other:?}"),
    }
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("spawn perfbench")
}

fn self_check(workload: &str) {
    for (trace, list, cap) in [("0", "end_to_end", 16), ("1", "per_layer", 128)] {
        let args = [
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--tiny",
        ];
        let out = run(&args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let last = stdout.lines().last().expect("a result line");
        let result = Parser::parse(last);
        let Json::Obj(keys) = &result else {
            panic!("result is not an object")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), &Json::Bool(true));
        let attempted = result.get("attempted").num();
        assert!(
            attempted >= 1.0 && attempted.fract() == 0.0,
            "attempted {attempted}"
        );
        assert_eq!(result.get("failed").num(), 0.0);

        let Json::Obj(metrics) = result.get("metrics") else {
            panic!("metrics is not an object")
        };
        assert!(metrics.len() <= cap, "{} {list} metrics", metrics.len());
        let mut printed = Vec::new();
        for (name, m) in metrics {
            let unit = m.get("unit").str();
            assert!(is_name(name), "bad metric name {name:?}");
            assert!(is_unit(unit), "bad unit {unit:?} for {name}");
            assert!(m.get("value").num().is_finite(), "{name} is not finite");
            printed.push((name.clone(), unit.to_string()));
        }
        assert_eq!(
            printed,
            declared(list),
            "{workload} --trace {trace} vs BENCHMARK.json {list}"
        );
        if trace == "0" {
            for (name, m) in metrics {
                assert!(
                    m.get("value").num() != 0.0,
                    "{workload}: end-to-end {name} reads 0"
                );
            }
        }
    }
}

#[test]
fn repro_output() {
    self_check("repro");
}

#[test]
fn pipeline_output() {
    self_check("pipeline");
}

#[test]
fn serve_point_output() {
    self_check("serve_point");
}

#[test]
fn serve_scan_output() {
    self_check("serve_scan");
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &[][..],
        &["--bogus"][..],
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
