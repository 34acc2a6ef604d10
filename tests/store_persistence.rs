//! Persistence conformance for the content-addressed result store: damaged
//! on-disk records are typed-error **misses** (the engine re-simulates and
//! republishes — the store self-heals), and store keys are a pure function
//! of content — two fresh processes derive identical fingerprints and the
//! second process's sweep is served entirely from the first one's store.
//!
//! Reproducing failures: every property failure prints its root seed; set
//! `PROPTEST_SEED=<printed value>` to replay the identical case sequence.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use svmsyn::dse::{explore_with_store, DseConfig, DseMethod, DseResult};
use svmsyn::fingerprint::{app_fingerprint, platform_fingerprint};
use svmsyn::platform::Platform;
use svmsyn::sim::SimConfig;
use svmsyn::{Application, Placement};
use svmsyn_store::ResultStore;

fn fast_dse() -> DseConfig {
    DseConfig {
        method: DseMethod::Exhaustive,
        sim: SimConfig {
            quantum: 50_000,
            ..SimConfig::default()
        },
        threads: 1,
    }
}

/// The fixed application both halves of every test agree on. Seed and size
/// are part of the content identity — the cross-process test depends on
/// both processes building the byte-identical app.
fn fixture_app() -> Application {
    svmsyn_workloads::streaming::vecadd(64, 7).app
}

fn fresh_root(tag: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!(
        "svmsyn-store-persistence-{tag}-{}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Every record file under the store root, sorted for determinism.
fn record_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for shard in std::fs::read_dir(root).expect("store root readable") {
        let shard = shard.unwrap().path();
        if !shard.is_dir() {
            continue;
        }
        for entry in std::fs::read_dir(&shard).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "rec") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

fn explore_warm(app: &Application, platform: &Platform, root: &Path) -> DseResult {
    let store = ResultStore::open(root).expect("open store");
    explore_with_store(app, platform, &fast_dse(), Some(&store)).expect("explore")
}

fn results_agree(a: &DseResult, b: &DseResult) -> bool {
    a.best.placements == b.best.placements
        && a.best.makespan == b.best.makespan
        && a.best.resources == b.best.resources
        && a.feasible == b.feasible
}

proptest! {
    /// Flipping any single bit of any on-disk record turns that probe into
    /// a typed miss: the engine silently re-simulates, the repeat sweep
    /// still returns the bit-identical result, and the republished record
    /// makes the store fully warm again.
    #[test]
    fn single_bitflip_is_a_miss_then_healed(
        file_sel in 0usize..16,
        pos_frac in 0u64..10_000,
        bit in 0u8..8,
    ) {
        let root = fresh_root("bitflip");
        let app = fixture_app();
        let platform = Platform::default();
        let cold = explore_warm(&app, &platform, &root);
        prop_assert!(cold.store_misses > 0 && cold.store_hits == 0);

        let files = record_files(&root);
        prop_assert!(!files.is_empty());
        let victim = &files[file_sel % files.len()];
        let mut bytes = std::fs::read(victim).unwrap();
        let pos = (pos_frac as usize * bytes.len()) / 10_000;
        bytes[pos] ^= 1 << bit;
        std::fs::write(victim, &bytes).unwrap();

        // The damaged record is a miss (every flip lands somewhere the
        // checksummed container or the embedded-digest check covers), the
        // rest still hit, and the result is unchanged.
        let store = ResultStore::open(&root).unwrap();
        let healed = explore_with_store(&app, &platform, &fast_dse(), Some(&store))
            .expect("explore over damaged store");
        prop_assert_eq!(healed.store_misses, 1, "exactly the damaged record misses");
        prop_assert_eq!(healed.store_hits, cold.store_misses - 1);
        prop_assert_eq!(store.stats().corrupt, 1, "the miss is a *typed* corruption");
        prop_assert!(results_agree(&cold, &healed), "damage changed the result");

        // Republish healed the store: a third fresh handle is 100% warm.
        let warm = explore_warm(&app, &platform, &root);
        prop_assert_eq!(warm.store_misses, 0);
        prop_assert_eq!(warm.store_hits, cold.store_misses);
        prop_assert!(results_agree(&cold, &warm));
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Truncating a record at any point is likewise a typed miss followed
    /// by republish — including truncation to zero bytes.
    #[test]
    fn truncation_is_a_miss_then_healed(
        file_sel in 0usize..16,
        len_frac in 0u64..10_000,
    ) {
        let root = fresh_root("truncate");
        let app = fixture_app();
        let platform = Platform::default();
        let cold = explore_warm(&app, &platform, &root);

        let files = record_files(&root);
        prop_assert!(!files.is_empty());
        let victim = &files[file_sel % files.len()];
        let bytes = std::fs::read(victim).unwrap();
        let keep = (len_frac as usize * (bytes.len() - 1)) / 10_000;
        std::fs::write(victim, &bytes[..keep]).unwrap();

        let store = ResultStore::open(&root).unwrap();
        let healed = explore_with_store(&app, &platform, &fast_dse(), Some(&store))
            .expect("explore over truncated store");
        prop_assert_eq!(healed.store_misses, 1);
        prop_assert_eq!(store.stats().corrupt, 1);
        prop_assert!(results_agree(&cold, &healed));

        let warm = explore_warm(&app, &platform, &root);
        prop_assert_eq!(warm.store_misses, 0);
        prop_assert!(results_agree(&cold, &warm));
        std::fs::remove_dir_all(&root).unwrap();
    }
}

/// A stray non-record file in a shard directory is ignored at open, and
/// deleting a record behind an open handle's back is a plain (non-corrupt)
/// miss that republishes.
#[test]
fn stray_files_and_stolen_records_degrade_to_misses() {
    let root = fresh_root("stray");
    let app = fixture_app();
    let platform = Platform::default();
    let cold = explore_warm(&app, &platform, &root);

    let files = record_files(&root);
    std::fs::write(files[0].parent().unwrap().join("README"), b"not a record").unwrap();
    std::fs::remove_file(&files[0]).unwrap();

    let store = ResultStore::open(&root).unwrap();
    let healed = explore_with_store(&app, &platform, &fast_dse(), Some(&store)).unwrap();
    assert_eq!(healed.store_misses, 1);
    assert_eq!(
        store.stats().corrupt,
        0,
        "a vanished record is not corruption"
    );
    assert!(results_agree(&cold, &healed));

    let warm = explore_warm(&app, &platform, &root);
    assert_eq!(warm.store_misses, 0);
    std::fs::remove_dir_all(&root).unwrap();
}

const CHILD_ROOT_ENV: &str = "SVMSYN_STORE_CHILD_ROOT";

fn placement_code(placements: &[Placement]) -> String {
    placements
        .iter()
        .map(|p| match p {
            Placement::Hardware => 'H',
            Placement::Software => 'S',
        })
        .collect()
}

/// Child half of the cross-process test: runs the fixture sweep against
/// the store root named by the environment and prints one machine-readable
/// line the parent greps out of the libtest noise.
fn child_sweep(root: &str) {
    let app = fixture_app();
    let platform = Platform::default();
    let result = explore_warm(&app, &platform, Path::new(root));
    println!(
        "CHILD app_fp={:016x} platform_fp={:016x} evaluated={} store_hits={} store_misses={} best={} placements={}",
        app_fingerprint(&app),
        platform_fingerprint(&platform),
        result.evaluated,
        result.store_hits,
        result.store_misses,
        result.best.makespan.0,
        placement_code(&result.best.placements),
    );
}

fn spawn_child(root: &Path) -> std::collections::HashMap<String, String> {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["cross_process_fingerprints_agree", "--exact", "--nocapture"])
        .env(CHILD_ROOT_ENV, root)
        .output()
        .expect("spawn child test process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "child failed:\n{stdout}");
    // libtest prints "test <name> ... " without a trailing newline before
    // the test body runs, so the marker is mid-line — search by substring.
    let at = stdout
        .find("CHILD ")
        .unwrap_or_else(|| panic!("no CHILD line in:\n{stdout}"));
    let line = stdout[at..].lines().next().expect("marker line");
    line["CHILD ".len()..]
        .split_whitespace()
        .map(|kv| {
            let (k, v) = kv.split_once('=').expect("key=value");
            (k.to_string(), v.to_string())
        })
        .collect()
}

/// Cross-process determinism: two *fresh* processes derive the identical
/// content fingerprints, and the second process's sweep is answered 100%
/// from the store the first one populated — the property that makes the
/// store shareable between runs, machines, and tenants.
#[test]
fn cross_process_fingerprints_agree() {
    if let Ok(root) = std::env::var(CHILD_ROOT_ENV) {
        child_sweep(&root);
        return;
    }

    let root = fresh_root("xproc");
    let first = spawn_child(&root);
    let second = spawn_child(&root);

    // Identical content → identical fingerprints, in both children and in
    // this (third) process.
    assert_eq!(first["app_fp"], second["app_fp"]);
    assert_eq!(first["platform_fp"], second["platform_fp"]);
    assert_eq!(
        first["app_fp"],
        format!("{:016x}", app_fingerprint(&fixture_app()))
    );
    assert_eq!(
        first["platform_fp"],
        format!("{:016x}", platform_fingerprint(&Platform::default()))
    );

    // First process was cold, second fully warm — and they agree on the
    // answer.
    assert_eq!(first["store_hits"], "0");
    assert_ne!(first["store_misses"], "0");
    assert_eq!(second["store_misses"], "0");
    assert_eq!(second["store_hits"], first["store_misses"]);
    assert_eq!(first["best"], second["best"]);
    assert_eq!(first["placements"], second["placements"]);
    assert_eq!(first["evaluated"], second["evaluated"]);
    std::fs::remove_dir_all(&root).unwrap();
}
