//! Command-line entry of the layer-ledger benchmark (driven by `run.py`).
//!
//! ```text
//! sketchad-perfbench gen     --workload W --seed N --work DIR
//! sketchad-perfbench measure --workload W --seed N --seconds S --trace 0|1
//!                            --work DIR [--context JSON]
//! ```

use sketchad_perfbench::runner::{generate, measure, MeasureArgs};
use sketchad_perfbench::workload::Workload;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<(String, HashMap<String, String>), String> {
    let (command, rest) = args.split_first().ok_or("missing command (gen|measure)")?;
    let mut options = HashMap::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        options.insert(name.to_string(), value.clone());
    }
    Ok((command.clone(), options))
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, options) = parse(&args)?;
    let get = |name: &str| options.get(name).ok_or_else(|| format!("missing --{name}"));
    let workload = Workload::by_name(get("workload")?)
        .ok_or_else(|| format!("unknown workload {:?}", options["workload"]))?;
    let seed: u64 = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let work = PathBuf::from(get("work")?);
    match command.as_str() {
        "gen" => generate(workload, seed, &work).map(|()| true),
        "measure" => {
            let seconds: u64 = get("seconds")?
                .parse()
                .map_err(|e| format!("--seconds: {e}"))?;
            if seconds == 0 {
                return Err("--seconds must be at least 1".into());
            }
            let trace = match get("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
            };
            let host = sketchad_eval::HostMeta::capture();
            println!(
                "header {{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \
                 \"trace\": {trace}, \"host\": {{\"available_parallelism\": {}, \"arch\": \"{}\", \
                 \"os\": \"{}\", \"simd_dispatch\": \"{}\"}}, \"context\": {}}}",
                workload.name,
                host.available_parallelism,
                host.arch,
                host.os,
                host.simd_dispatch,
                options.get("context").map_or("null", String::as_str)
            );
            let report = measure(&MeasureArgs {
                workload,
                seed,
                seconds,
                trace,
                work,
            })?;
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.json);
            Ok(report.correct)
        }
        other => Err(format!("unknown command {other:?} (gen|measure)")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
