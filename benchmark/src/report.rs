//! What one workload run produced, and the two JSON lines it prints.

use crate::json::{obj, Value};
use crate::metrics::{Def, END_TO_END, PER_LAYER};

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run of one workload measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Operations attempted (requests due, or sweep cells compared).
    pub attempted: u64,
    /// Operations that failed although no injected fault covered them.
    pub failed: u64,
    /// One message per violated oracle; empty means the run was correct.
    pub violations: Vec<String>,
    /// Non-fatal remarks (e.g. a budget outside its tolerance).
    pub warnings: Vec<String>,
    /// Every named value, in emission order.
    pub metrics: Vec<Measured>,
    /// Run conditions (cores, threads, transport, tick, discipline …).
    pub info: Vec<(String, Value)>,
}

impl Report {
    /// Records a metric; a later value under the same name replaces the
    /// earlier one.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.unit = unit;
            }
            None => self.metrics.push(Measured {
                name: name.to_owned(),
                value,
                unit,
            }),
        }
    }

    /// Records a metric whose unit comes from its table entry.
    pub fn put_def(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is in neither table"));
        self.put(name, value, def.unit);
    }

    /// The value recorded under `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Records a run condition.
    pub fn note(&mut self, key: &str, value: Value) {
        self.info.push((key.to_owned(), value));
    }

    /// Checks an oracle: a false `holds` makes the run incorrect.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(what());
        }
    }

    /// Whether every oracle held.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The result line of the driver's contract: exactly `correct`,
    /// `attempted`, `failed`, `metrics`, the metrics being every entry of
    /// `table`. A per-layer metric this workload does not exercise reads 0.
    ///
    /// # Panics
    ///
    /// Panics when an end-to-end metric is missing — every workload must
    /// measure all of them.
    pub fn contract_line(&self, table: &[Def]) -> String {
        let metrics = table.iter().map(|def| {
            let value = match self.value(def.name) {
                Some(v) => v,
                None if def.bound.is_none() => 0.0,
                None => panic!("end-to-end metric `{}` was not measured", def.name),
            };
            (
                def.name,
                obj([
                    ("value", Value::Num(value)),
                    ("unit", Value::Str(def.unit.into())),
                ]),
            )
        });
        obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", obj(metrics)),
        ])
        .render()
    }

    /// The detail line: run conditions, every named value with its unit,
    /// violated oracles and warnings.
    pub fn detail_line(&self, workload: &str) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                obj([
                    ("value", Value::Num(m.value)),
                    ("unit", Value::Str(m.unit.into())),
                ]),
            )
        });
        let strings =
            |items: &[String]| Value::Arr(items.iter().cloned().map(Value::Str).collect());
        obj([
            ("workload", Value::Str(workload.into())),
            ("info", Value::Obj(self.info.clone())),
            ("detail", obj(metrics)),
            ("violations", strings(&self.violations)),
            ("warnings", strings(&self.warnings)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, valid_name, valid_unit};

    fn full_report() -> Report {
        let mut r = Report {
            attempted: 1000,
            ..Report::default()
        };
        for def in END_TO_END {
            r.put_def(def.name, 1.5);
        }
        r.put("requests_per_s", 16_000.25, "1/s");
        r
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let line = full_report().contract_line(END_TO_END);
        let v = parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("attempted").unwrap().as_f64(), Some(1000.0));
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, m), def) in metrics.iter().zip(END_TO_END) {
            assert_eq!(name, def.name);
            assert_eq!(m.get("unit").unwrap().as_str(), Some(def.unit));
            assert_eq!(m.get("value").unwrap().as_f64(), Some(1.5));
        }
    }

    #[test]
    fn unexercised_layers_read_zero_and_names_are_legal() {
        let mut r = full_report();
        r.put_def("crypto.hmac_mac_ns", 812.5);
        let v = parse(&r.contract_line(PER_LAYER)).unwrap();
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        let mut nonzero = 0;
        for (name, m) in metrics {
            assert!(valid_name(name), "{name}");
            assert!(
                valid_unit(m.get("unit").unwrap().as_str().unwrap()),
                "{name}"
            );
            nonzero += usize::from(m.get("value").unwrap().as_f64().unwrap() != 0.0);
        }
        assert_eq!(nonzero, 1);
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_end_to_end_metric_is_a_bug() {
        Report::default().contract_line(END_TO_END);
    }

    #[test]
    fn violations_make_the_run_incorrect_and_show_in_the_detail() {
        let mut r = full_report();
        r.check(true, || unreachable!());
        assert!(r.correct());
        r.check(false, || "responses 9 != requests 10".into());
        assert!(!r.correct());
        r.put("requests_per_s", 2.0, "1/s");
        assert_eq!(r.value("requests_per_s"), Some(2.0));
        r.note("threads", Value::Num(2.0));
        let v = parse(&r.detail_line("sim_s2_steady")).unwrap();
        assert_eq!(v.get("workload").unwrap().as_str(), Some("sim_s2_steady"));
        assert_eq!(v.get("violations").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(
            v.get("info").unwrap().get("threads").unwrap().as_f64(),
            Some(2.0)
        );
        for (name, m) in v.get("detail").unwrap().as_object().unwrap() {
            assert!(valid_name(name));
            assert!(valid_unit(m.get("unit").unwrap().as_str().unwrap()));
        }
        let c = parse(&r.contract_line(END_TO_END)).unwrap();
        assert_eq!(c.get("correct").unwrap().as_bool(), Some(false));
    }
}
