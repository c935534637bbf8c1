//! The benchmark's own tests: seeded inputs, miniature workloads that
//! must pass their output checks, and `BENCHMARK.json` against the
//! metric catalogue the benchmark prints.

use sagbench::inputs::{batch_inputs, churn_stream, Scale, Workload};
use sagbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use sagbench::{timed, traced};

#[test]
fn inputs_are_deterministic_per_seed_and_differ_across_seeds() {
    for w in Workload::ALL {
        if w.is_batch() {
            assert_eq!(
                batch_inputs(w, 5, Scale::Full),
                batch_inputs(w, 5, Scale::Full)
            );
            assert_ne!(
                batch_inputs(w, 5, Scale::Full),
                batch_inputs(w, 6, Scale::Full)
            );
        } else {
            assert_eq!(
                churn_stream(5, 0, Scale::Full),
                churn_stream(5, 0, Scale::Full)
            );
            assert_ne!(
                churn_stream(5, 0, Scale::Full),
                churn_stream(6, 0, Scale::Full)
            );
            assert_ne!(
                churn_stream(5, 0, Scale::Full),
                churn_stream(5, 1, Scale::Full)
            );
        }
    }
}

#[test]
fn miniature_workloads_pass_their_checks_with_repeatable_digests() {
    for w in Workload::ALL {
        let first = timed::run(w, 3, 0.0, Scale::Mini);
        assert!(first.correct, "{}: {first:?}", w.name());
        assert_eq!(first.failed, 0, "{}", w.name());
        assert!(first.attempted >= 1, "{}", w.name());
        for def in END_TO_END {
            let v = first.metric(def.name).expect("every end-to-end metric");
            assert!(v.is_finite() && v > 0.0, "{}: {} = {v}", w.name(), def.name);
        }
        let again = timed::run(w, 3, 0.0, Scale::Mini);
        assert_eq!(first.digest, again.digest, "{}", w.name());
        assert_ne!(first.digest, timed::run(w, 4, 0.0, Scale::Mini).digest);

        let traced = traced::run(w, 3, Scale::Mini);
        assert_eq!(traced.failed, 0, "{}: {traced:?}", w.name());
        assert_eq!(traced.attempted, first.attempted, "{}", w.name());
        assert_eq!(traced.digest, first.digest, "{}", w.name());
        for def in PER_LAYER {
            let v = traced.metric(def.name).expect("every per-layer metric");
            assert!(v.is_finite(), "{}: {} = {v}", w.name(), def.name);
        }
    }
}

#[test]
fn timed_and_traced_runs_print_their_whole_catalogue_in_order() {
    let names = |r: &sagbench::metrics::RunResult| -> Vec<&str> {
        r.metrics.iter().map(|(d, _)| d.name).collect()
    };
    let w = Workload::IlpqcIac;
    let timed = timed::run(w, 1, 0.0, Scale::Mini);
    let expect: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    assert_eq!(names(&timed), expect);
    let line = timed.json_line();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(!line.contains('\n'));
    let traced = traced::run(w, 1, Scale::Mini);
    let expect: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(names(&traced), expect);
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let root = json::parse(&text).expect("BENCHMARK.json parses");

    let workloads: Vec<&str> = root
        .get("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let expect: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expect);

    for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<MetricDef> = root
            .get(key)
            .items()
            .iter()
            .map(|m| {
                let name = m.get("name").str();
                assert!(
                    !name.is_empty()
                        && name
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "metric name {name:?}"
                );
                let unit = m.get("unit").str();
                assert!(!unit.is_empty(), "{name} has a unit");
                let better = m.get("better").str();
                assert!(better == "lower" || better == "higher", "{name}: {better}");
                let find = |n: &str| catalogue.iter().find(|d| d.name == n);
                let def = find(name).unwrap_or_else(|| panic!("{name} is not printed"));
                assert_eq!((def.unit, def.better), (unit, better), "{name}");
                *def
            })
            .collect();
        assert_eq!(listed, catalogue, "{key} lists the catalogue in order");
    }
}

/// Just enough JSON to read `BENCHMARK.json`.
mod json {
    #[derive(Debug)]
    pub enum Value {
        Scalar,
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> &Value {
            match self {
                Value::Obj(fields) => fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .unwrap_or_else(|| panic!("missing key {key}")),
                _ => panic!("not an object"),
            }
        }

        pub fn items(&self) -> &[Value] {
            match self {
                Value::Arr(items) => items,
                _ => panic!("not an array"),
            }
        }

        pub fn str(&self) -> &str {
            match self {
                Value::Str(s) => s,
                _ => panic!("not a string"),
            }
        }
    }

    pub fn parse(text: &str) -> Option<Value> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        (p.i == p.s.len()).then_some(v)
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, b: u8) -> Option<()> {
            self.ws();
            (self.s.get(self.i) == Some(&b)).then(|| self.i += 1)
        }

        fn value(&mut self) -> Option<Value> {
            self.ws();
            match *self.s.get(self.i)? {
                b'{' => {
                    self.i += 1;
                    let mut fields = Vec::new();
                    if self.eat(b'}').is_some() {
                        return Some(Value::Obj(fields));
                    }
                    loop {
                        self.ws();
                        let Value::Str(k) = self.string()? else {
                            return None;
                        };
                        self.eat(b':')?;
                        fields.push((k, self.value()?));
                        if self.eat(b'}').is_some() {
                            return Some(Value::Obj(fields));
                        }
                        self.eat(b',')?;
                    }
                }
                b'[' => {
                    self.i += 1;
                    let mut items = Vec::new();
                    if self.eat(b']').is_some() {
                        return Some(Value::Arr(items));
                    }
                    loop {
                        items.push(self.value()?);
                        if self.eat(b']').is_some() {
                            return Some(Value::Arr(items));
                        }
                        self.eat(b',')?;
                    }
                }
                b'"' => self.string(),
                _ => {
                    let start = self.i;
                    while self.i < self.s.len() && !b",]} \n\r\t".contains(&self.s[self.i]) {
                        self.i += 1;
                    }
                    (self.i > start).then_some(Value::Scalar)
                }
            }
        }

        fn string(&mut self) -> Option<Value> {
            if self.s.get(self.i) != Some(&b'"') {
                return None;
            }
            self.i += 1;
            let start = self.i;
            while *self.s.get(self.i)? != b'"' {
                // Metric names and units carry no escapes.
                if self.s[self.i] == b'\\' {
                    return None;
                }
                self.i += 1;
            }
            let out = std::str::from_utf8(&self.s[start..self.i])
                .ok()?
                .to_string();
            self.i += 1;
            Some(Value::Str(out))
        }
    }
}
