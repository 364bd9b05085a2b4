//! Closed-loop service benchmark over `tm_service::ShardedKv`.
//!
//! ```text
//! svcbench --workload <point-hot|privatize|large-uniform|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints the run's configuration, checks and metrics one per line, then
//! as its last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer ones
//! with `--trace 1`). `--workload all` runs each workload in its own
//! process, one after another. See `README.md` for what is measured.

mod measure;
mod run;
mod spec;

use std::process::{Command, ExitCode};

use spec::{Spec, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|e| format!("--seed {val}: {e}"))?,
            "--seconds" => {
                args.seconds = val.parse().map_err(|e| format!("--seconds {val}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(format!("--seconds {val}: want 0 < S <= 120"));
                }
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {val}: want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn json_report(r: &run::Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} = {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// Each workload in a child process of its own, so `peak_rss_mb` is that
/// workload's alone.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for w in &WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("{}: {e}", w.name))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fix glibc's malloc thresholds for the whole process. By default glibc
/// raises its mmap and trim thresholds whenever a mapped chunk is freed,
/// so whether freed heap tops are handed back to the kernel (and faulted
/// in again by the next allocation) depends on everything the process
/// freed before, the benchmark's own buffers and set-up included, and on
/// `GLIBC_TUNABLES`. Scans allocate on every call: with trimming forced
/// on, `privatize` scan p50 rose from about 31 to 45 us and throughput fell
/// about 20%. Setting the thresholds turns the adjustment off; the values
/// are the largest ones the adjustment itself can reach on 64-bit Linux,
/// where a long-running process ends up.
fn pin_malloc_thresholds() -> bool {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only updates malloc's parameters; it is called
    // before this process starts any other thread.
    unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 64 << 20) == 1 }
}

fn main() -> ExitCode {
    if !pin_malloc_thresholds() {
        eprintln!("svcbench: mallopt refused the malloc thresholds");
        return ExitCode::FAILURE;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svcbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("svcbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(spec) = Spec::by_name(&args.workload) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("svcbench: --workload must be one of {names:?} or all");
        return ExitCode::from(2);
    };
    let report = run::run(spec, args.seed, args.seconds, args.trace);
    println!("malloc: mmap_threshold=32MiB trim_threshold=64MiB (pinned, no dynamic adjustment)");
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", json_report(&report));
    ExitCode::SUCCESS
}
