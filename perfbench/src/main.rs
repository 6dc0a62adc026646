//! Benchmark entry point; `run.py` builds and runs it.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--git-rev <rev>] [--kernel <release>] [--trace-out <file>]
//! ```
//!
//! On success prints a provenance line and, last, one JSON result line.
//! A failed check or any panic exits with status 1 and prints no result.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

use perfbench::driver::CLIENTS;
use perfbench::{run, Report, WorkloadName};

struct Args {
    workload: WorkloadName,
    seed: u64,
    seconds: f64,
    trace: bool,
    git_rev: String,
    kernel: String,
    trace_out: Option<String>,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: WorkloadName::AllocChurn,
        seed: 0,
        seconds: 0.0,
        trace: false,
        git_rev: "unknown".into(),
        kernel: "unknown".into(),
        trace_out: None,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadName::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--git-rev" => args.git_rev = value,
            "--kernel" => args.kernel = value,
            "--trace-out" => args.trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if args.seconds == 0.0 {
        return Err("--seconds is required".into());
    }
    Ok(args)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn provenance(args: &Args, report: &Report) -> String {
    let engine = if pbs_percpu::env_disabled() {
        "off"
    } else {
        pbs_percpu::default_engine().label()
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = std::env::var("PBS_FASTPATH").unwrap_or_default();
    let pinned = &report.pinned;
    let mut samples = String::new();
    for (i, s) in report.samples.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            samples,
            "{sep}{}: {{\"samples\": {}, \"beyond\": {}}}",
            json_str(&s.metric),
            s.samples,
            s.beyond
        )
        .expect("write to String");
    }
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_rev\": {}, \"nproc\": {nproc}, \"kernel\": {}, \"client_threads\": {CLIENTS}, \
         \"fastpath_engine\": {}, \"PBS_FASTPATH\": {}, \"reclaim_backend\": {}, \
         \"rcu_config\": {}, \"page_limit_bytes\": {}}}, \"percentile_samples\": {{{samples}}}}}",
        json_str(args.workload.label()),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&args.git_rev),
        json_str(&args.kernel),
        json_str(engine),
        json_str(&env),
        json_str(pinned.backend.label()),
        json_str(pinned.rcu_preset),
        pinned.page_limit,
    )
}

fn result(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn write_spans(path: &str, report: &Report) -> std::io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    writeln!(out, "tid,op_id,span,parent,name,start_ns,end_ns")?;
    if let Some(p) = &report.traced {
        for (tid, t) in p.traces.iter().enumerate() {
            t.write_spans(tid, &mut out)?;
        }
    }
    out.flush()
}

fn main() -> ExitCode {
    perfbench::exit_on_panic();
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(args.workload, args.seed, args.seconds, args.trace);
    if let Some(path) = &args.trace_out {
        if let Err(e) = write_spans(path, &report) {
            eprintln!("perfbench: writing spans to {path}: {e}");
            return ExitCode::from(1);
        }
    }
    println!("{}", provenance(&args, &report));
    println!("{}", result(&report));
    ExitCode::SUCCESS
}
