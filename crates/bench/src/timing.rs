//! Best-of-N wall-clock timing shared by the `harness = false` benches
//! (criterion is not vendored in this offline workspace), and the gate
//! that checks a microbench's cells against its committed reference.

use std::collections::BTreeMap;
use std::time::Instant;
use tetris_server::json::{self, Value};

/// Default sample count for the bench binaries.
pub const SAMPLES: usize = 5;

/// Runs `f` `samples` times and returns the best wall-clock seconds. The
/// minimum (not the mean) is the least noisy estimator of the work's
/// intrinsic cost on a shared machine.
pub fn best_of_secs<T>(samples: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Runs `f` `samples` times and prints the best wall-clock time under
/// `label`.
pub fn time_best_of<T>(label: &str, samples: usize, f: impl FnMut() -> T) {
    let best = best_of_secs(samples, f);
    println!("{label:<32} best of {samples}: {best:.3}s");
}

/// Checks a microbench report against its committed reference, both in
/// the `{"cells": [...]}` shape the benches write. Cells are keyed by the
/// `key` fields; the gate requires the same cell set, every cell's
/// `speedup` at least half its reference value (speedup ratios are
/// machine-portable, raw timings are not), and every `exact` field equal
/// to the reference. Returns one message per failed condition.
pub fn check_cells(report: &str, reference: &str, key: &[&str], exact: &[&str]) -> Vec<String> {
    let cells = |text: &str| -> BTreeMap<String, Value> {
        let doc = json::parse(text).expect("a microbench report is JSON");
        let cells = doc.get("cells").and_then(Value::as_arr).unwrap_or_default();
        let name = |cell: &Value| -> Vec<String> {
            key.iter()
                .map(|k| match cell.get(k) {
                    Some(Value::Str(s)) => s.clone(),
                    other => format!("{}", other.and_then(Value::as_num).unwrap_or(f64::NAN)),
                })
                .collect()
        };
        cells
            .iter()
            .map(|c| (name(c).join("@"), c.clone()))
            .collect()
    };
    let (got, want) = (cells(report), cells(reference));
    let num =
        |cell: &Value, field: &str| cell.get(field).and_then(Value::as_num).unwrap_or(f64::NAN);
    let mut failures = Vec::new();
    if !got.keys().eq(want.keys()) {
        let (got, want): (Vec<_>, Vec<_>) = (got.keys().collect(), want.keys().collect());
        failures.push(format!("cell set drifted: {got:?} != reference {want:?}"));
    }
    for (name, r) in &want {
        let Some(g) = got.get(name) else { continue };
        let (gs, rs) = (num(g, "speedup"), num(r, "speedup"));
        if gs.is_nan() || rs.is_nan() || gs < rs / 2.0 {
            failures.push(format!(
                "{name}: speedup {gs:.3}x < half the reference {rs:.3}x"
            ));
        }
        for field in exact {
            let (gv, rv) = (num(g, field), num(r, field));
            if gv != rv {
                failures.push(format!("{name}: {field} {gv} != reference {rv}"));
            }
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    const REFERENCE: &str = r#"{ "cells": [
        { "device": "a", "qubits": 4, "speedup": 10.0, "footprint_bytes": 64 },
        { "device": "b", "qubits": 8, "speedup": 0.5, "footprint_bytes": 128 }
    ] }"#;

    fn check(report: &str) -> Vec<String> {
        check_cells(
            report,
            REFERENCE,
            &["device", "qubits"],
            &["footprint_bytes"],
        )
    }

    #[test]
    fn reference_cells_pass_their_own_gate() {
        assert!(check(REFERENCE).is_empty());
        // Exactly half the reference speedup still passes.
        assert!(check(&REFERENCE.replace("10.0", "5.0")).is_empty());
        let committed: [(&str, &[&str], &[&str]); 2] = [
            (
                include_str!("../graph_ops.reference.json"),
                &["device"],
                &["footprint_bytes"],
            ),
            (
                include_str!("../scheduling_ops.reference.json"),
                &["kernel", "qubits"],
                &[],
            ),
        ];
        for (text, key, exact) in committed {
            assert!(check_cells(text, text, key, exact).is_empty());
        }
    }

    #[test]
    fn each_condition_fails_one_value_past_its_bound() {
        let slow = check(&REFERENCE.replace("10.0", "4.99"));
        assert_eq!(slow, ["a@4: speedup 4.990x < half the reference 10.000x"]);
        let grown =
            check(&REFERENCE.replace("\"footprint_bytes\": 128", "\"footprint_bytes\": 129"));
        assert_eq!(grown, ["b@8: footprint_bytes 129 != reference 128"]);
        let renamed = check(&REFERENCE.replace("\"b\"", "\"c\""));
        assert_eq!(renamed.len(), 1, "{renamed:?}");
        assert!(renamed[0].starts_with("cell set drifted"), "{renamed:?}");
        assert_eq!(check(r#"{ "cells": [] }"#).len(), 1);
    }

    #[test]
    fn runs_the_closure_the_requested_number_of_times() {
        let mut calls = 0;
        time_best_of("noop", 3, || calls += 1);
        assert_eq!(calls, 3);
    }
}
