//! Suite and A/A modes: run workloads one after another, each in its own
//! process, and (for `--aa N`) judge N same-code runs against the
//! benchmark's own bounds.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::harness::Kind;
use crate::json::Json;
use crate::metrics::{Source, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median};

/// The parsed result line of one child run.
pub struct ChildResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process of this same executable and parses
/// the last line of its output.  The child's report is passed through when
/// `echo` is set.
pub fn run_child(
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    echo: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    if !output.status.success() {
        return Err(format!("{} exited with {}", kind.name(), output.status));
    }
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let json = Json::parse(last).map_err(|e| format!("bad result line: {e}"))?;
    let num = |key: &str| {
        json.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("no `{key}`"))
    };
    Ok(ChildResult {
        correct: json
            .get("correct")
            .and_then(Json::as_bool)
            .ok_or("no `correct`")?,
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics: json
            .get("metrics")
            .map(Json::fields)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// The suite: every workload once (and once more traced with `trace`).
/// Returns whether every run was correct.
pub fn suite(seed: u64, seconds: u64, trace: bool, smoke: bool) -> Result<bool, String> {
    let mut all_correct = true;
    for kind in Kind::ALL {
        for traced in [false, true] {
            if traced && !trace {
                continue;
            }
            let result = run_child(kind, seed, seconds, traced, smoke, true)?;
            all_correct &= result.correct;
        }
    }
    Ok(all_correct)
}

/// `bound` of every end-to-end metric, read from `BENCHMARK.json` in the
/// current directory.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("--aa reads the bounds from ./BENCHMARK.json: {e}"))?;
    let json = Json::parse(&text)?;
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "an end_to_end entry lacks name or bound".to_owned())
}

/// By how much of `first` the second median is worse, in the metric's own
/// direction (negative when it is better).
fn worse_by(first: f64, second: f64, better: &str) -> f64 {
    let delta = if better == "higher" {
        first - second
    } else {
        second - first
    };
    delta / first.abs().max(f64::MIN_POSITIVE)
}

/// `--aa N`: N untraced runs and two traced runs of every workload on the
/// same build and seed.  Prints per-metric min / median / max and spread,
/// and returns whether every end-to-end metric stayed within its bound,
/// every exact count repeated, and nothing failed.
pub fn aa(
    n: usize,
    only: Option<Kind>,
    seed: u64,
    seconds: u64,
    smoke: bool,
) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut ok = true;
    println!("A/A: {n} runs per workload, seed {seed}, {seconds} s, same build");
    println!();
    println!(
        "| workload | metric | min | median | max | range/median | IQR/median | half shift | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut count_lines = Vec::new();
    // All four workloads, or the one named with `--workload`.
    for kind in only.map_or_else(|| Kind::ALL.to_vec(), |kind| vec![kind]) {
        let mut runs = Vec::with_capacity(n);
        for _ in 0..n {
            let r = run_child(kind, seed, seconds, false, smoke, false)?;
            if !r.correct || r.failed > 0 {
                println!(
                    "{}: {} of {} ops failed",
                    kind.name(),
                    r.failed,
                    r.attempted
                );
                ok = false;
            }
            runs.push(r);
        }
        for &(name, unit, better) in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            if values.len() != n {
                return Err(format!("{}: a run did not report {name}", kind.name()));
            }
            let med = median(&values).unwrap_or(0.0);
            let (min, max) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let range = (max - min) / med.abs().max(f64::MIN_POSITIVE);
            let iqr = iqr_share(&values).unwrap_or(0.0);
            let (a, b) = values.split_at(n / 2);
            let shift = match (median(a), median(b)) {
                (Some(a), Some(b)) => worse_by(a, b, better),
                _ => 0.0,
            };
            let bound = *bounds
                .get(name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {name}"))?;
            // The driver exempts the spread of setup_s, not its shift.
            let within = (name == "setup_s" || iqr <= bound) && shift <= bound;
            ok &= within;
            println!(
                "| {} | {name} ({unit}) | {min:.4} | {med:.4} | {max:.4} | {:.2} % | {:.2} % | {:+.2} % | {:.0} % | {} |",
                kind.name(),
                range * 100.0,
                iqr * 100.0,
                shift * 100.0,
                bound * 100.0,
                if within { "ok" } else { "EXCEEDS" },
            );
        }

        let first = run_child(kind, seed, seconds, true, smoke, false)?;
        let second = run_child(kind, seed, seconds, true, smoke, false)?;
        for m in PER_LAYER {
            let (Some(&a), Some(&b)) = (first.metrics.get(m.name), second.metrics.get(m.name))
            else {
                return Err(format!(
                    "{}: a traced run did not report {}",
                    kind.name(),
                    m.name
                ));
            };
            match m.source {
                Source::ExactCount if a != b => {
                    count_lines.push(format!("{} {}: {a} vs {b}  DIFFERS", kind.name(), m.name));
                    ok = false;
                }
                Source::Scheduling => count_lines.push(format!(
                    "{} {}: {a} vs {b}  (scheduling-dependent, exempt)",
                    kind.name(),
                    m.name
                )),
                _ => {}
            }
        }
    }
    println!();
    println!("Counts of two traced runs (exact counts are listed only when they differ):");
    for line in count_lines {
        println!("  {line}");
    }
    println!();
    println!(
        "{}",
        if ok {
            "A/A: within bounds"
        } else {
            "A/A: FAILED"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, "higher") + 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
    }
}
