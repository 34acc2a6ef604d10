//! # svmsyn-perfbench — end-to-end and per-layer benchmark
//!
//! One command runs one workload for a fixed time, checks every output,
//! and prints its metrics by name and unit. See `README.md` beside this
//! crate for the workloads, the metrics, and which layer should move which
//! end-to-end number.

pub mod bench;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod trace;

/// Input fingerprint of a workload's generated inputs: the content hash of
/// every application plus every expected output.
pub fn input_fingerprint(workload: &str, seed: u64) -> Option<u64> {
    let ws = match workload {
        "suite_hwsw" => gen::suite(seed),
        "pressure" => gen::pressure(seed),
        "fig7_sweep" => vec![gen::fig7_mixed(seed)],
        "sharded_x2" => vec![gen::chase_stream_x2(seed)],
        _ => return None,
    };
    let mut h = svmsyn_snap::Fnv1a::new();
    for w in &ws {
        h.update(&svmsyn::app_fingerprint(&w.app).to_le_bytes());
        for (idx, bytes) in &w.expected {
            h.update(&(*idx as u64).to_le_bytes());
            h.update(bytes);
        }
    }
    Some(h.finish())
}
