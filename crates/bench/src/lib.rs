//! # svmsyn-bench — experiment harnesses
//!
//! One binary per reconstructed table/figure (`src/bin/`) plus the
//! self-hosted component micro-benchmarks (`benches/micro.rs`). This
//! library holds the shared glue.

use svmsyn::flow::{synthesize, Placement, SystemDesign};
use svmsyn::platform::Platform;
use svmsyn::sim::{simulate, SimConfig, SimOutcome};
use svmsyn_workloads::Workload;

/// Synthesizes a single-thread workload onto hardware.
///
/// # Panics
///
/// Panics on synthesis failure (harness-level error).
pub fn hw_design(w: &Workload, platform: &Platform) -> SystemDesign {
    let placements = vec![Placement::Hardware; w.app.threads.len()];
    synthesize(&w.app, platform, &placements).expect("hardware synthesis")
}

/// Synthesizes a workload as software-only.
///
/// # Panics
///
/// Panics on synthesis failure.
pub fn sw_design(w: &Workload, platform: &Platform) -> SystemDesign {
    let placements = vec![Placement::Software; w.app.threads.len()];
    synthesize(&w.app, platform, &placements).expect("software synthesis")
}

/// Simulates and verifies a workload design; returns the outcome.
///
/// # Panics
///
/// Panics on simulation failure or an output mismatch — a harness must
/// never report numbers from a wrong answer.
pub fn run_checked(w: &Workload, design: &SystemDesign) -> SimOutcome {
    let outcome = simulate(design, &SimConfig::default()).expect("simulation");
    w.verify(&outcome).expect("output verification");
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use svmsyn_workloads::streaming::vecadd;

    #[test]
    fn helpers_run_a_workload_both_ways() {
        let w = vecadd(256, 9);
        let platform = Platform::default();
        let hw = run_checked(&w, &hw_design(&w, &platform));
        let sw = run_checked(&w, &sw_design(&w, &platform));
        assert!(hw.makespan.0 > 0 && sw.makespan.0 > 0);
    }
}
