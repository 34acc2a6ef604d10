//! The declared metrics and the result line.
//!
//! Every metric the benchmark can emit is declared here with its unit; the
//! tables must list the same names as `BENCHMARK.json` (a contract test
//! checks both directions). A run emits every end-to-end metric with
//! `--trace 0` and every per-layer metric with `--trace 1`; emitting an
//! undeclared name or leaving a declared one unset is a failed check.

use std::collections::BTreeMap;

/// A declared metric: name, unit, and whether it is a simulated quantity
/// (a pure function of the inputs, repeating exactly for a fixed seed) or
/// a host measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub exact: bool,
}

/// A host measurement.
const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        exact: false,
    }
}

/// A simulated quantity.
const fn c(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        exact: true,
    }
}

/// Measured with tracing off, on every workload.
pub const END_TO_END: &[Metric] = &[
    m("sim_minstr_per_s", "Minstr/s"),
    m("op_min_ms", "ms"),
    m("peak_rss_mb", "MB"),
    m("setup_s", "s"),
];

/// Measured by the traced run, on every workload (0 where the layer does
/// no work on that workload).
pub const PER_LAYER: &[Metric] = &[
    // core::sim — host time per simulation, from spans around the calls.
    m("sim.new_us", "us"),
    m("sim.run_ms", "ms"),
    m("sim.finish_us", "us"),
    m("sim.stats_us", "us"),
    m("workloads.verify_us", "us"),
    c("sim.events", "count"),
    m("sim.host_ns_per_event", "ns"),
    m("sim.host_ns_per_instr", "ns"),
    c("sim.makespan_cycles", "cycles"),
    // workloads generators, flow, hls — the set-up layers.
    m("workloads.generate_ms", "ms"),
    m("flow.synthesize_ms", "ms"),
    m("hls.compile_ms", "ms"),
    // hwt, vm, mem — deterministic counts per closed-loop operation.
    c("hwt.instrs", "count"),
    c("hwt.mem_ops", "count"),
    c("hwt.miss_parks", "count"),
    c("memif.hit_under_miss", "count"),
    c("vm.walks", "count"),
    c("vm.tlb_hit_rate", "ratio"),
    c("vm.l2_walk_hit_rate", "ratio"),
    c("fabric.merges", "count"),
    c("fabric.outstanding_mean", "txns"),
    c("dram.row_hit_rate", "ratio"),
    // os
    c("os.hw_faults", "count"),
    c("os.major_faults", "count"),
    c("os.reclaims", "count"),
    c("os.shootdowns", "count"),
    c("os.swap_ins", "count"),
    m("os.fault_path_ms", "ms"),
    // shard / merge
    c("shard.windows", "count"),
    c("shard.crossings", "count"),
    c("shard.barrier_wait_frac", "ratio"),
    m("shard.host_us_per_window", "us"),
    m("shard.overhead_ms", "ms"),
    c("shard.err_vs_serial", "ratio"),
    // dse
    m("dse.explore_ms", "ms"),
    m("dse.points_per_s", "1/s"),
    c("dse.evaluated", "count"),
    c("dse.memo_hits", "count"),
    m("dse.synthesize_ms_sum", "ms"),
    m("dse.simulate_ms_sum", "ms"),
    m("dse.pool_efficiency", "ratio"),
    // store
    m("store.open_ms", "ms"),
    c("store.published", "count"),
    c("store.bytes_written", "bytes"),
    m("store.publish_ms", "ms"),
    c("store.hits", "count"),
    m("store.warm_sweep_ms", "ms"),
    // tracing itself
    m("trace.overhead_frac", "ratio"),
];

/// Whether `name` is a well-formed metric name (`[A-Za-z0-9_.-]+`, at most
/// 64 characters, starting with a letter or digit).
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values collected during a run.
#[derive(Debug, Default)]
pub struct Values {
    values: BTreeMap<&'static str, f64>,
    undeclared: Vec<&'static str>,
}

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let declared = END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name);
        if !declared {
            self.undeclared.push(name);
        }
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The metrics a run in this mode must emit.
    pub fn declared(trace: bool) -> &'static [Metric] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Problems that make the emitted set differ from the declared one.
    pub fn problems(&self, trace: bool) -> Vec<String> {
        let mut out: Vec<String> = self
            .undeclared
            .iter()
            .map(|n| format!("metric {n} is not declared"))
            .collect();
        for m in Values::declared(trace) {
            match self.get(m.name) {
                None => out.push(format!("declared metric {} was not measured", m.name)),
                Some(v) if !v.is_finite() => out.push(format!("metric {} is {v}", m.name)),
                _ => {}
            }
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics of
    /// this mode, each with its unit. Values print with every digit.
    pub fn result_line(&self, trace: bool, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = Values::declared(trace)
            .iter()
            .map(|m| {
                let v = self.get(m.name).filter(|v| v.is_finite()).unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for n in &all {
            assert!(valid_name(n), "{n}");
            assert_eq!(
                all.iter().filter(|x| *x == n).count(),
                1,
                "{n} declared twice"
            );
        }
        assert!(!valid_name("a b") && !valid_name("_x") && !valid_name(""));
    }

    #[test]
    fn missing_and_undeclared_metrics_are_problems() {
        let mut v = Values::default();
        v.set("nope", 1.0);
        let p = v.problems(false);
        assert!(p.iter().any(|s| s.contains("nope")));
        assert!(p.iter().any(|s| s.contains("setup_s")));
        for m in END_TO_END {
            v.set(m.name, 1.5);
        }
        assert_eq!(v.problems(false).len(), 1);
        let line = v.result_line(false, true, 3, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }
}
