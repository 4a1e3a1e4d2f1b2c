//! The QGP benchmark: four fixed-sequence workloads that drive the public
//! API of the whole stack from one thread, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced one.  See `README.md`.
//!
//! ```text
//! qgp-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's form)
//! qgp-benchmark [--seed N] [--seconds S] [--trace] [--smoke]       all four, one process each
//! qgp-benchmark --aa N [--workload NAME] [--seed N] [--seconds S]   N same-code runs vs the bounds
//! ```

#![forbid(unsafe_code)]

mod aa;
mod harness;
mod inputs;
mod json;
mod metrics;
mod probes;
mod record;
mod run;
#[cfg(test)]
mod selftest;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Kind, Spec, NOMINAL_SECONDS};

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    aa: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: NOMINAL_SECONDS,
        trace: false,
        smoke: false,
        aa: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let known = || Kind::ALL.map(Kind::name).join(", ");
                args.workload =
                    Some(Kind::parse(&name).ok_or_else(|| {
                        format!("unknown workload `{name}` (known: {})", known())
                    })?);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?;
            }
            "--aa" => {
                args.aa = Some(
                    value("--aa")?
                        .parse()
                        .ok()
                        .filter(|n| *n >= 2)
                        .ok_or("--aa takes a run count of at least 2")?,
                );
            }
            // `--trace 0|1` (the driver's form) or a bare `--trace`.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Where trace files and run records go: `$QGP_BENCH_OUT`, which `run.sh`
/// points at `benchmark/out` beside itself.
fn out_dir() -> PathBuf {
    std::env::var_os("QGP_BENCH_OUT").map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

fn write_out(name: &str, json: &json::Json) {
    let dir = out_dir();
    let path = dir.join(name);
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json.to_line() + "\n"));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// One run in this process.  Once a result line is printed the exit code
/// is 0 even if a check failed: the line's `correct` and `failed` carry
/// that, and the suite and `--aa` modes turn it into their own exit code.
fn run_one(spec: Spec, trace: bool) -> Result<bool, String> {
    let out = run::run(spec, trace)?;
    println!(
        "== {} (seed {}, {} s{}{}) ==",
        spec.kind.name(),
        spec.seed,
        spec.seconds,
        if trace { ", traced" } else { "" },
        if spec.smoke { ", smoke" } else { "" },
    );
    println!("record: {}", out.record.to_line());
    for m in &out.metrics {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "failed_frac {} ({} of {} ops)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    let suffix = if trace { "trace" } else { "run" };
    write_out(
        &format!("{suffix}-record-{}.json", spec.kind.name()),
        &out.record,
    );
    if let Some(trace_json) = &out.trace {
        write_out(&format!("trace-{}.json", spec.kind.name()), trace_json);
    }
    println!("{}", out.result_line());
    Ok(true)
}

fn main() -> ExitCode {
    // A fault-injected build answers differently on purpose; numbers from
    // it would be compared with clean ones.
    if std::env::var_os("QGP_FAULTS").is_some() {
        eprintln!(
            "error: QGP_FAULTS is set; the benchmark refuses to measure a fault-injected stack"
        );
        return ExitCode::from(2);
    }
    if std::env::var_os("QGP_THREADS").is_some() {
        eprintln!(
            "warning: QGP_THREADS is ignored; the engine runs on an explicit Runtime::new({})",
            harness::RUNTIME_THREADS
        );
    }
    if std::env::var_os("MALLOC_MMAP_THRESHOLD_").is_none() {
        eprintln!(
            "warning: the allocator policy is not pinned (start the benchmark through \
             benchmark/run.sh); set-up times will drift from one repetition to the next"
        );
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // The driver's form names a workload and says `--trace 0|1`; a suite
    // run says neither or a bare `--trace`.
    let outcome = match (args.aa, args.workload) {
        (Some(n), only) => aa::aa(n, only, args.seed, args.seconds, args.smoke),
        (None, Some(kind)) => run_one(
            Spec {
                kind,
                seed: args.seed,
                seconds: args.seconds,
                smoke: args.smoke,
            },
            args.trace,
        ),
        (None, None) => aa::suite(args.seed, args.seconds, args.trace, args.smoke),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: a check failed or a bound was exceeded");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
