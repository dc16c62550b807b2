//! `BENCHMARK.json` and the driver must name the same things: every
//! workload the file lists is one the driver runs, and the metrics the
//! file declares are exactly the ones the driver can emit, unit for
//! unit.

use hfqo_perfbench::ledger::report::{END_TO_END, PER_LAYER};
use hfqo_perfbench::workloads::NAMES;

/// The bodies of the flat objects in the array under `"key"`. Enough
/// JSON for a file whose arrays hold one-level objects and whose strings
/// hold no brackets or braces.
fn objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let start = json
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"));
    let array = &json[start..];
    let array = &array[array.find('[').expect("an array") + 1..];
    let array = &array[..array.find(']').expect("the array closes")];
    array
        .split('{')
        .skip(1)
        .map(|o| &o[..o.find('}').expect("the object closes")])
        .collect()
}

/// The string value of `key` in an object body.
fn field<'a>(object: &'a str, key: &str) -> &'a str {
    let at = object
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("no `{key}` in {{{object}}}"));
    let value = object[at + key.len() + 3..].trim_start();
    let value = value.strip_prefix('"').expect("a string value");
    &value[..value.find('"').expect("the string closes")]
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

fn declared(json: &str, key: &str) -> Vec<(String, String)> {
    objects(json, key)
        .into_iter()
        .map(|o| (field(o, "name").to_string(), field(o, "unit").to_string()))
        .collect()
}

fn emitted(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn workloads_match_the_driver() {
    let json = benchmark_json();
    let names: Vec<&str> = objects(&json, "workloads")
        .into_iter()
        .map(|o| field(o, "name"))
        .collect();
    assert_eq!(names, NAMES);
}

#[test]
fn declared_metrics_are_exactly_the_emitted_ones() {
    let json = benchmark_json();
    assert_eq!(declared(&json, "end_to_end"), emitted(END_TO_END));
    assert_eq!(declared(&json, "per_layer"), emitted(PER_LAYER));
}

#[test]
fn set_up_time_is_declared_as_the_contract_requires() {
    let json = benchmark_json();
    let setup: Vec<_> = objects(&json, "end_to_end")
        .into_iter()
        .filter(|o| field(o, "name") == "setup_s")
        .collect();
    assert_eq!(setup.len(), 1);
    assert_eq!(
        (field(setup[0], "unit"), field(setup[0], "better")),
        ("s", "lower")
    );
}
