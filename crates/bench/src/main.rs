//! The `experiments` binary: regenerates the tables/figures of the paper's
//! evaluation section.
//!
//! ```text
//! experiments [<exp>] [--scale F] [--dataset pokec|yago]
//!
//!   exp1       Fig. 8(a)  sequential QMatch vs QMatchn vs Enum
//!   exp2-n     Fig. 8(b,c) varying number of workers
//!   exp2-dpar  Fig. 8(d,e) DPar partition scalability
//!   exp2-q     Fig. 8(f,g) varying pattern size
//!   exp2-neg   Fig. 8(h,i) varying number of negated edges
//!   exp2-p     Fig. 8(j,k) varying ratio aggregate pa
//!   exp2-g     Fig. 8(l)   varying synthetic graph size
//!   exp3       Exp-3       QGAR discovery
//!   all        everything above (the default)
//! ```
//!
//! Performance is measured elsewhere: `bash benchmark/run.sh`.

#![forbid(unsafe_code)]

use std::env;
use std::process::ExitCode;

use qgp_bench::experiments::{
    exp1_qmatch, exp2_dpar, exp2_vary_graph_size, exp2_vary_n, exp2_vary_negated, exp2_vary_q,
    exp2_vary_ratio, exp3_qgar,
};
use qgp_bench::{Dataset, ExperimentScale, Table};

/// The experiment names the command line accepts.
const EXPERIMENTS: [&str; 9] = [
    "exp1",
    "exp2-n",
    "exp2-dpar",
    "exp2-q",
    "exp2-neg",
    "exp2-p",
    "exp2-g",
    "exp3",
    "all",
];

/// A parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    /// One of [`EXPERIMENTS`].
    experiment: String,
    /// The `--scale` factor.
    scale: f64,
    /// The datasets the per-dataset figures run on.
    datasets: Vec<Dataset>,
}

/// Parses the arguments after the program name.  Anything that is not a
/// complete, well-formed command line is an error (a one-line message): a
/// typo must not start minutes of work at the default scale.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut experiment = None;
    let mut scale = 1.0f64;
    let mut datasets = vec![Dataset::PokecLike, Dataset::YagoLike];

    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        match arg {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|f: &f64| f.is_finite() && *f > 0.0)
                    .ok_or("--scale expects a positive number")?;
            }
            "--dataset" => {
                datasets = match args.next() {
                    Some("pokec") => vec![Dataset::PokecLike],
                    Some("yago") => vec![Dataset::YagoLike],
                    other => {
                        return Err(format!("unknown dataset {other:?}; expected pokec or yago"))
                    }
                };
            }
            "bench" => {
                return Err(
                    "the `bench` subcommand was removed; measure with `bash benchmark/run.sh`"
                        .to_string(),
                )
            }
            name if experiment.is_none() => {
                if !EXPERIMENTS.contains(&name) {
                    return Err(format!(
                        "unknown experiment `{name}`; expected one of {}",
                        EXPERIMENTS.join(", ")
                    ));
                }
                experiment = Some(name.to_string());
            }
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    Ok(Args {
        experiment: experiment.unwrap_or_else(|| "all".to_string()),
        scale,
        datasets,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let scale = ExperimentScale::scaled(args.scale);
    println!(
        "# experiment `{}` at scale {} (pokec {} persons, yago {} persons, synthetic {} nodes)\n",
        args.experiment, args.scale, scale.pokec_persons, scale.yago_persons, scale.synthetic_nodes
    );

    let wanted = |name: &str| args.experiment == name || args.experiment == "all";
    let run_for_datasets = |f: &dyn Fn(Dataset, &ExperimentScale) -> Table| {
        for &d in &args.datasets {
            println!("{}", f(d, &scale));
        }
    };
    if wanted("exp1") {
        println!("{}", exp1_qmatch(&scale));
    }
    if wanted("exp2-n") {
        run_for_datasets(&exp2_vary_n);
    }
    if wanted("exp2-dpar") {
        run_for_datasets(&exp2_dpar);
    }
    if wanted("exp2-q") {
        run_for_datasets(&exp2_vary_q);
    }
    if wanted("exp2-neg") {
        run_for_datasets(&exp2_vary_negated);
    }
    if wanted("exp2-p") {
        run_for_datasets(&exp2_vary_ratio);
    }
    if wanted("exp2-g") {
        println!("{}", exp2_vary_graph_size(&scale));
    }
    if wanted("exp3") {
        for table in exp3_qgar(&scale) {
            println!("{table}");
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&args)
    }

    #[test]
    fn a_good_line_parses_and_the_defaults_are_everything_at_scale_one() {
        assert_eq!(
            parse("exp2-n --scale 0.05 --dataset pokec"),
            Ok(Args {
                experiment: "exp2-n".to_string(),
                scale: 0.05,
                datasets: vec![Dataset::PokecLike],
            })
        );
        assert_eq!(
            parse(""),
            Ok(Args {
                experiment: "all".to_string(),
                scale: 1.0,
                datasets: vec![Dataset::PokecLike, Dataset::YagoLike],
            })
        );
    }

    #[test]
    fn a_bad_or_missing_option_value_is_an_error() {
        for line in [
            "exp1 --scale abc",
            "exp1 --scale",
            "exp1 --scale 0",
            "exp1 --scale nan",
            "exp2-n --dataset",
            "exp2-n --dataset freebase",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
    }

    #[test]
    fn unknown_and_surplus_experiments_are_errors() {
        assert!(parse("exp4")
            .unwrap_err()
            .contains("unknown experiment `exp4`"));
        assert!(parse("--help").is_err());
        assert!(parse("exp1 exp3")
            .unwrap_err()
            .contains("unexpected argument exp3"));
    }

    #[test]
    fn the_removed_bench_subcommand_points_at_the_benchmark() {
        for line in ["bench", "bench exp1", "--scale 0.1 bench"] {
            assert!(
                parse(line).unwrap_err().contains("benchmark/run.sh"),
                "{line}"
            );
        }
    }
}
