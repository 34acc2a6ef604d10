//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <suite_hwsw|pressure|fig7_sweep|sharded_x2> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a stamp (host cores, git revision, rustc version, seed), the
//! simulated-statistics fingerprint, a table of metrics, and as its last
//! line one JSON object: `correct`, `attempted`, `failed`, `metrics`. With
//! `--trace 1` it prints the per-layer metrics and self time per span, and
//! writes every span to `perfbench/out/`.

use std::path::Path;
use std::process::{Command, ExitCode};

use svmsyn_perfbench::bench::{self, Args, Ctx, WORKLOADS};
use svmsyn_perfbench::json::quote;
use svmsyn_perfbench::metrics::Values;

/// Simulated-statistics fingerprints recorded at the commit that defined
/// the benchmark, one `<workload> <seed> <digest>` line each.
const RECORDED: &str = include_str!("../fingerprints.txt");

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// First line of a command's standard output, or `unknown`.
fn command_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn recorded_fingerprint(workload: &str, seed: u64) -> Option<String> {
    RECORDED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.len() == 3 && f[0] == workload && f[1] == seed.to_string())
        .map(|f| f[2].to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let checkout = crate_dir.parent().unwrap_or(crate_dir);
    let out = crate_dir.join("out");
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        return ExitCode::from(2);
    }

    // Stamp: numbers from another host, commit or toolchain are never
    // compared silently. Git must not search above the checkout.
    let ceiling = checkout.parent().unwrap_or(checkout);
    let git_rev = command_line(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(checkout)
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    );
    let rustc = command_line(Command::new("rustc").arg("--version"));
    let stamp = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"git_rev\": {}, \"rustc\": {}}}",
        quote(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        svmsyn::host_cores(),
        quote(&git_rev),
        quote(&rustc),
    );
    println!("stamp {stamp}");

    let mut ctx = Ctx::new();
    let report = bench::run(&mut ctx, &args, &out).expect("workload validated above");
    let values: Values = report.values;
    for problem in values.problems(args.trace) {
        ctx.checks.check(false, || problem);
    }

    let digest = format!("{:016x}", report.fingerprint);
    let against = match recorded_fingerprint(&args.workload, args.seed) {
        None => "no recorded value for this seed".to_string(),
        Some(r) if r == digest => "matches the recorded value".to_string(),
        Some(r) => format!("differs from the recorded {r}"),
    };
    println!(
        "fingerprint {} seed={} stats_digest={digest} ({against})",
        args.workload, args.seed
    );

    if args.trace {
        println!(
            "{:<24} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, (n, total, self_ns)) in ctx.tr.summary() {
            println!(
                "{name:<24} {n:>8} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                self_ns as f64 / 1e6
            );
        }
        let path = out.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match ctx
            .tr
            .write_jsonl(&path, &format!("{{\"stamp\": {stamp}}}"))
        {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }

    println!(
        "operations={} checks_attempted={} checks_failed={} failed_frac={}",
        report.ops,
        ctx.checks.attempted,
        ctx.checks.failed,
        ctx.checks.failed as f64 / ctx.checks.attempted.max(1) as f64
    );
    let q = |p: f64| bench::quantile(&report.op_ms, p);
    println!(
        "untraced op_ms over {} ops: min {:.3} p10 {:.3} p25 {:.3} p50 {:.3} p90 {:.3} max {:.3}",
        report.op_ms.len(),
        q(0.0),
        q(0.1),
        q(0.25),
        q(0.5),
        q(0.9),
        q(1.0)
    );
    for m in Values::declared(args.trace) {
        println!(
            "{:<28} {:>18.6} {}",
            m.name,
            values.get(m.name).unwrap_or(f64::NAN),
            m.unit
        );
    }
    let correct = ctx.checks.failed == 0;
    println!(
        "{}",
        values.result_line(
            args.trace,
            correct,
            ctx.checks.attempted.max(1),
            ctx.checks.failed
        )
    );
    ExitCode::SUCCESS
}
