//! The run record: where and on what a number was measured.

use std::process::Command;

use crate::harness::Spec;
use crate::json::Json;

/// First line of a command's standard output, or `unknown`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Commit, seed, host and toolchain of a run.  The driver's checkout is
/// not a git repository, so the commit may be `unknown` there.
pub fn provenance(spec: &Spec, runtime_threads: usize) -> Json {
    Json::obj([
        ("workload", Json::str(spec.kind.name())),
        ("seed", Json::from(spec.seed)),
        ("seconds", Json::from(spec.seconds)),
        ("smoke", Json::Bool(spec.smoke)),
        (
            "commit",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, usize::from)),
        ),
        ("cpu_model", Json::str(cpu_model())),
        ("rustc", Json::str(first_line("rustc", &["--version"]))),
        ("runtime_threads", Json::from(runtime_threads)),
    ])
}
