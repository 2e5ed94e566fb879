//! Smoke test of the benchmark itself: every workload runs at a tiny size,
//! emits every metric `BENCHMARK.json` names with its unit, and passes its
//! oracles; a fault injected into a copy of the checkpoint is counted as
//! failed operations instead of aborting the run.
//!
//! Run: `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::process::Command;

const WORKLOADS: [&str; 3] = ["adapt_shock", "halo_assembly", "checkpoint_restart"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..start + text[start..].find(']').expect("section ends")];
    let string_after = |chunk: &str, key: &str| -> Option<String> {
        let at = chunk.find(&format!("\"{key}\""))? + key.len() + 2;
        let rest = &chunk[at..];
        let open = rest.find('"')? + 1;
        let close = open + rest[open..].find('"')?;
        Some(rest[open..close].to_string())
    };
    body.split('{')
        .filter_map(|chunk| Some((string_after(chunk, "name")?, string_after(chunk, "unit")?)))
        .collect()
}

struct Outcome {
    report: String,
    last: String,
}

fn run(args: &[&str]) -> Outcome {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--size", "tiny", "--seconds", "0.2"])
        .args(args)
        .output()
        .expect("run perfbench");
    let report = String::from_utf8(out.stdout).expect("utf-8 report");
    assert!(
        out.status.success(),
        "perfbench {args:?} failed: {}\n{report}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = report.lines().last().expect("a result line").to_string();
    Outcome { report, last }
}

/// The whole number after `"key": ` in the result line.
fn count(line: &str, key: &str) -> u64 {
    let at = line.find(&format!("\"{key}\": ")).expect("key present") + key.len() + 4;
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("a whole number")
}

fn assert_metrics(line: &str, section: &str, context: &str) {
    let metrics = declared(section);
    assert!(!metrics.is_empty(), "{section} lists no metrics");
    for (name, unit) in metrics {
        let at = line
            .find(&format!("\"{name}\": {{\"value\": "))
            .unwrap_or_else(|| panic!("{context}: metric {name} missing from {line}"));
        let entry = &line[at..at + line[at..].find('}').expect("entry ends")];
        assert!(
            entry.ends_with(&format!("\"unit\": \"{unit}\"")),
            "{context}: {name} should carry unit {unit}: {entry}"
        );
    }
}

#[test]
fn every_workload_emits_its_metrics_and_passes_its_oracles() {
    for w in WORKLOADS {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = run(&["--workload", w, "--seed", "3", "--trace", trace]);
            let context = format!("{w} --trace {trace}");
            assert!(
                out.last.starts_with("{\"correct\": true"),
                "{context}: oracles failed:\n{}",
                out.report
            );
            assert!(
                count(&out.last, "attempted") >= 1,
                "{context}: nothing attempted"
            );
            assert_eq!(count(&out.last, "failed"), 0, "{context}: failures counted");
            assert_metrics(&out.last, section, &context);
        }
    }
}

#[test]
fn injected_fault_counts_as_failed_operations() {
    let out = run(&[
        "--workload",
        "checkpoint_restart",
        "--seed",
        "5",
        "--trace",
        "0",
        "--inject-fault",
    ]);
    assert!(
        out.last.starts_with("{\"correct\": false"),
        "a flipped chunk byte must fail an oracle:\n{}",
        out.report
    );
    let (attempted, failed) = (count(&out.last, "attempted"), count(&out.last, "failed"));
    assert!(
        failed > 0 && failed < attempted,
        "failed {failed} of {attempted}"
    );
}

#[test]
fn adapt_shock_hash_repeats_across_runs_of_one_seed() {
    let hash = |seed: &str| {
        let out = run(&["--workload", "adapt_shock", "--seed", seed, "--trace", "0"]);
        out.report
            .lines()
            .find_map(|l| l.strip_prefix("struct_hash: "))
            .expect("the report prints the final struct_hash")
            .to_string()
    };
    assert_eq!(hash("11"), hash("11"));
    assert_ne!(hash("11"), hash("12"), "the seed must change the inputs");
}
