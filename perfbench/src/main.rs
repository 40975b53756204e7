//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, then, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Databases live under `.bench_work/` and traces are written to
//! `.bench_out/`, both in the current directory. Each repetition's
//! timings go to standard error.

use reprowd_perfbench::run::{run, RunConfig};
use reprowd_perfbench::workloads::{prepare_rerun, write_reference, Sizes, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <label_wire|er_stream|label_rerun> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let seed = flag("--seed").and_then(|s| s.parse::<u64>().ok());

    // Child mode: make label_rerun's database with an earlier, untimed run.
    if let Some(i) = args.iter().position(|a| a == "--prepare-rerun") {
        let (Some(db), Some(reference), Some(rows), Some(seed)) = (
            args.get(i + 1),
            args.get(i + 2),
            flag("--rows").and_then(|r| r.parse::<usize>().ok()),
            seed,
        ) else {
            return usage();
        };
        let made = prepare_rerun(db.as_ref(), rows, seed)
            .and_then(|r| write_reference(reference.as_ref(), &r));
        return match made {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: preparing the rerun database: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        flag("--workload").and_then(|w| Workload::parse(&w)),
        seed,
        flag("--seconds").and_then(|s| s.parse::<f64>().ok()),
        flag("--trace").and_then(|t| match t.as_str() {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        return usage();
    };
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate its own executable");
        return ExitCode::FAILURE;
    };
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        trace,
        sizes: Sizes::BENCH,
        work_dir: PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
        exe,
    };
    let outcome = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    for p in &outcome.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!(
        "{}",
        serde_json::json!({ "provenance": outcome.provenance.clone() })
    );
    if let Some(csv) = &outcome.spans_csv {
        let out = PathBuf::from(".bench_out");
        let layers: Vec<String> = outcome
            .metrics
            .iter()
            .map(|m| format!("{} {} {}", m.name, m.value, m.unit))
            .collect();
        let written = std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(out.join(format!("spans-{}.csv", workload.name())), csv))
            .and_then(|()| {
                std::fs::write(
                    out.join(format!("layers-{}.txt", workload.name())),
                    format!("{}\n{}\n", outcome.provenance, layers.join("\n")),
                )
            });
        if let Err(e) = written {
            eprintln!("perfbench: writing the trace: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
