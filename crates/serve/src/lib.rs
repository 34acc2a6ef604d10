//! # svmsyn-serve — batch multi-tenant DSE sweeps
//!
//! The service front-end over the DSE engine: tenants submit [`SweepJob`]s
//! (one application × a list of platforms × DSE options), a worker pool
//! drains the queue sharing **one** persistent [`ResultStore`] handle, and
//! progress streams to the consumer as [`ProgressEvent`]s over a channel.
//! This is the batch ancestor of a long-running DSE-as-a-service daemon:
//! the job/queue/worker/stats split is already service-shaped, only the
//! transport (in-process channel today, RPC later) would change.
//!
//! ## Job lifecycle
//!
//! ```text
//! submit() ── Enqueued ──▶ queue ── worker claims ──▶ Started
//!      per platform cell:  explore_with_store() ──▶ Evaluated {n, cached}
//!      all cells done:                            ──▶ Done
//! ```
//!
//! [`SweepService::drain`] runs every queued job to completion and returns
//! a [`ServeReport`]: per-cell results in deterministic (job, platform)
//! order, per-tenant aggregate stats, and the shared store's session
//! counters. The [`ServeReport::matrix`] table (best point per app ×
//! platform cell) is a pure function of job content — repeating the same
//! sweep against a warm store renders the bit-identical table, while
//! [`ServeReport::economics`] shows the work moving from "simulated" to
//! "store".

use std::sync::mpsc;

use svmsyn::dse::{explore_with_store, DseConfig, DseError, DseResult};
use svmsyn::report::{fmt_cycles, fmt_ratio, Table};
use svmsyn::{Application, Placement, Platform};
use svmsyn_store::{ResultStore, StoreStats};

/// One sweep request: evaluate `app` on every platform in `platforms`
/// under the same DSE options, on behalf of `tenant`.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// The application to partition.
    pub app: Application,
    /// The platform axis: one DSE exploration per entry.
    pub platforms: Vec<Platform>,
    /// Search/simulation options. Every job runs against the one store
    /// handle passed to [`SweepService::new`], so every job hits the same
    /// cache.
    pub dse: DseConfig,
    /// Accounting identity of the submitter.
    pub tenant: String,
}

/// Queue position of a submitted job (dense, starting at 0).
pub type JobId = usize;

/// Streaming progress, delivered over the channel returned by
/// [`SweepService::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgressEvent {
    /// A job entered the queue.
    Enqueued {
        /// The job.
        job: JobId,
        /// Submitting tenant.
        tenant: String,
        /// Application name.
        app: String,
        /// Number of platform cells the job will evaluate.
        platforms: usize,
    },
    /// A worker claimed the job and began evaluating.
    Started {
        /// The job.
        job: JobId,
    },
    /// One platform cell finished: `evaluated` candidates were requested
    /// by the search, of which `cached` never cost a fresh simulation
    /// (in-process memo + persistent store).
    Evaluated {
        /// The job.
        job: JobId,
        /// Index into the job's platform axis.
        platform: usize,
        /// Candidate evaluations requested by the search.
        evaluated: usize,
        /// Of `evaluated`, served without a fresh simulation.
        cached: usize,
    },
    /// Every cell of the job finished.
    Done {
        /// The job.
        job: JobId,
    },
}

/// One (job, platform) cell's outcome.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The job this cell belongs to.
    pub job: JobId,
    /// Submitting tenant.
    pub tenant: String,
    /// Application name.
    pub app: String,
    /// Platform name (display only; cells are keyed by index).
    pub platform: String,
    /// Index into the job's platform axis.
    pub platform_index: usize,
    /// The exploration outcome.
    pub outcome: Result<DseResult, DseError>,
}

/// Aggregate accounting for one tenant across all their jobs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant.
    pub tenant: String,
    /// Jobs submitted.
    pub jobs: usize,
    /// Platform cells evaluated.
    pub cells: usize,
    /// Candidate evaluations across all cells.
    pub evaluated: usize,
    /// Served by the in-process memo tables.
    pub memo_hits: usize,
    /// Served by the persistent store.
    pub store_hits: usize,
    /// Paid for with a fresh simulation.
    pub simulated: usize,
}

/// The consolidated result of one [`SweepService::drain`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Every cell, sorted by (job, platform index) — deterministic
    /// regardless of worker scheduling.
    pub cells: Vec<CellResult>,
    /// Per-tenant aggregates, sorted by tenant name.
    pub tenants: Vec<TenantStats>,
    /// The shared store's session counters (`None` when the service ran
    /// without persistence).
    pub store: Option<StoreStats>,
}

fn placement_code(placements: &[Placement]) -> String {
    placements
        .iter()
        .map(|p| match p {
            Placement::Hardware => 'H',
            Placement::Software => 'S',
        })
        .collect()
}

impl ServeReport {
    /// The multi-app × multi-platform result matrix: best feasible point
    /// per cell. A pure function of job content — repeat sweeps render the
    /// bit-identical table whether the store was cold or warm.
    pub fn matrix(&self) -> Table {
        let mut t = Table::new(
            "DSE sweep: best point per app x platform",
            &["tenant", "app", "platform", "best", "makespan", "lut"],
        );
        for cell in &self.cells {
            match &cell.outcome {
                Ok(r) => t.row_owned(vec![
                    cell.tenant.clone(),
                    cell.app.clone(),
                    cell.platform.clone(),
                    placement_code(&r.best.placements),
                    fmt_cycles(r.best.makespan.0),
                    r.best.resources.lut.to_string(),
                ]),
                Err(e) => t.row_owned(vec![
                    cell.tenant.clone(),
                    cell.app.clone(),
                    cell.platform.clone(),
                    format!("<{e}>"),
                    String::new(),
                    String::new(),
                ]),
            };
        }
        t
    }

    /// Cache-hit economics per cell: where each evaluation was answered.
    /// Run-dependent by design (a warm store shifts work from "simulated"
    /// to "store") — keep it out of bit-identity comparisons.
    pub fn economics(&self) -> Table {
        let mut t = Table::new(
            "DSE sweep: cache economics",
            &[
                "app",
                "platform",
                "evaluated",
                "memo",
                "store",
                "simulated",
                "cached",
            ],
        );
        for cell in &self.cells {
            if let Ok(r) = &cell.outcome {
                let simulated = r.evaluated - r.cache_hits - r.store_hits;
                let cached = r.evaluated - simulated;
                t.row_owned(vec![
                    cell.app.clone(),
                    cell.platform.clone(),
                    r.evaluated.to_string(),
                    r.cache_hits.to_string(),
                    r.store_hits.to_string(),
                    simulated.to_string(),
                    fmt_ratio(cached as f64 / r.evaluated.max(1) as f64),
                ]);
            }
        }
        t
    }

    /// Per-tenant aggregate table.
    pub fn tenant_table(&self) -> Table {
        let mut t = Table::new(
            "Per-tenant stats",
            &[
                "tenant",
                "jobs",
                "cells",
                "evaluated",
                "memo",
                "store",
                "simulated",
            ],
        );
        for s in &self.tenants {
            t.row_owned(vec![
                s.tenant.clone(),
                s.jobs.to_string(),
                s.cells.to_string(),
                s.evaluated.to_string(),
                s.memo_hits.to_string(),
                s.store_hits.to_string(),
                s.simulated.to_string(),
            ]);
        }
        t
    }

    /// Fraction of all candidate evaluations served without a fresh
    /// simulation (memo + store), across every successful cell.
    pub fn cached_fraction(&self) -> f64 {
        let (mut evaluated, mut cached) = (0usize, 0usize);
        for cell in &self.cells {
            if let Ok(r) = &cell.outcome {
                evaluated += r.evaluated;
                cached += r.cache_hits + r.store_hits;
            }
        }
        if evaluated == 0 {
            0.0
        } else {
            cached as f64 / evaluated as f64
        }
    }

    /// Fraction of memo-missed evaluations served from the persistent
    /// store — the warm-hit rate the ≥95 % service-level target is stated
    /// against.
    pub fn store_hit_fraction(&self) -> f64 {
        let (mut probes, mut hits) = (0usize, 0usize);
        for cell in &self.cells {
            if let Ok(r) = &cell.outcome {
                probes += r.store_hits + r.store_misses;
                hits += r.store_hits;
            }
        }
        if probes == 0 {
            0.0
        } else {
            hits as f64 / probes as f64
        }
    }
}

/// The batch sweep service: a job queue plus the worker pool that drains
/// it. Progress streams over the channel handed back by [`new`](Self::new).
#[derive(Debug)]
pub struct SweepService {
    jobs: Vec<SweepJob>,
    store: Option<ResultStore>,
    workers: usize,
    events: mpsc::Sender<ProgressEvent>,
}

impl SweepService {
    /// Creates a service with `workers` pool threads (`0` = auto-sized
    /// from the host cores and the queued jobs' shard counts at drain
    /// time) over an optional caller-opened store handle — one handle,
    /// shared by every worker and every job, so cross-job overlap turns
    /// into cache hits. Returns the service plus the progress-event
    /// receiver; drop the receiver if you don't care about streaming.
    pub fn new(
        workers: usize,
        store: Option<ResultStore>,
    ) -> (SweepService, mpsc::Receiver<ProgressEvent>) {
        let (events, rx) = mpsc::channel();
        (
            SweepService {
                jobs: Vec::new(),
                store,
                workers,
                events,
            },
            rx,
        )
    }

    /// Queue length.
    pub fn queued(&self) -> usize {
        self.jobs.len()
    }

    /// Enqueues a job and emits [`ProgressEvent::Enqueued`].
    pub fn submit(&mut self, job: SweepJob) -> JobId {
        let id = self.jobs.len();
        let _ = self.events.send(ProgressEvent::Enqueued {
            job: id,
            tenant: job.tenant.clone(),
            app: job.app.name.clone(),
            platforms: job.platforms.len(),
        });
        self.jobs.push(job);
        id
    }

    /// Drains the queue: jobs run on a [`svmsyn::map_ordered`] pool, each
    /// evaluating every platform cell via [`explore_with_store`] against
    /// the shared handle and streaming progress. Returns the consolidated
    /// report; results come back in job order, so cells are in (job,
    /// platform) order by construction.
    ///
    /// Parallelism composes multiplicatively with the DSE engine's own
    /// batch workers — keep `SweepJob::dse.threads` at 1 when the service
    /// pool already saturates the host. Jobs running sharded simulations
    /// (`SweepJob::dse.sim.shards > 1`) multiply the same way, so the pool
    /// is budgeted down with [`svmsyn::worker_budget`] against the widest
    /// shard count in the queue.
    ///
    /// # Panics
    ///
    /// Panics if a job panics; the message names the job.
    pub fn drain(self) -> ServeReport {
        let SweepService {
            jobs,
            store,
            workers,
            events,
        } = self;
        let store_ref = store.as_ref();
        let widest_shards = jobs
            .iter()
            .map(|j| j.dse.sim.shards as usize)
            .max()
            .unwrap_or(1);
        let pool = svmsyn::worker_budget(workers, widest_shards);
        let run_job = |&(id, job): &(JobId, &SweepJob)| {
            let _ = events.send(ProgressEvent::Started { job: id });
            let cells: Vec<CellResult> = job
                .platforms
                .iter()
                .enumerate()
                .map(|(pi, platform)| {
                    let outcome = explore_with_store(&job.app, platform, &job.dse, store_ref);
                    if let Ok(r) = &outcome {
                        let _ = events.send(ProgressEvent::Evaluated {
                            job: id,
                            platform: pi,
                            evaluated: r.evaluated,
                            cached: r.cache_hits + r.store_hits,
                        });
                    }
                    CellResult {
                        job: id,
                        tenant: job.tenant.clone(),
                        app: job.app.name.clone(),
                        platform: platform.name.clone(),
                        platform_index: pi,
                        outcome,
                    }
                })
                .collect();
            let _ = events.send(ProgressEvent::Done { job: id });
            cells
        };
        let numbered: Vec<(JobId, &SweepJob)> = jobs.iter().enumerate().collect();
        let cells: Vec<CellResult> = svmsyn::map_ordered(&numbered, pool, run_job)
            .into_iter()
            .enumerate()
            .flat_map(|(id, cells)| {
                cells.unwrap_or_else(|message| panic!("sweep job {id} panicked: {message}"))
            })
            .collect();
        let tenants = aggregate_tenants(&jobs, &cells);
        ServeReport {
            cells,
            tenants,
            store: store.map(|s| s.stats()),
        }
    }
}

fn aggregate_tenants(jobs: &[SweepJob], cells: &[CellResult]) -> Vec<TenantStats> {
    let mut by_tenant: std::collections::BTreeMap<String, TenantStats> =
        std::collections::BTreeMap::new();
    for job in jobs {
        let s = by_tenant
            .entry(job.tenant.clone())
            .or_insert_with(|| TenantStats {
                tenant: job.tenant.clone(),
                ..TenantStats::default()
            });
        s.jobs += 1;
    }
    for cell in cells {
        let s = by_tenant.get_mut(&cell.tenant).expect("tenant from a job");
        s.cells += 1;
        if let Ok(r) = &cell.outcome {
            s.evaluated += r.evaluated;
            s.memo_hits += r.cache_hits;
            s.store_hits += r.store_hits;
            s.simulated += r.evaluated - r.cache_hits - r.store_hits;
        }
    }
    by_tenant.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use svmsyn::dse::DseMethod;
    use svmsyn::sim::SimConfig;

    fn fast_dse() -> DseConfig {
        DseConfig {
            method: DseMethod::Exhaustive,
            sim: SimConfig {
                quantum: 50_000,
                ..SimConfig::default()
            },
            threads: 1,
            ..DseConfig::default()
        }
    }

    fn jobs_fixture() -> Vec<SweepJob> {
        let platforms = vec![Platform::default(), Platform::small()];
        vec![
            SweepJob {
                app: svmsyn_workloads::streaming::vecadd(64, 1).app,
                platforms: platforms.clone(),
                dse: fast_dse(),
                tenant: "acme".into(),
            },
            SweepJob {
                app: svmsyn_workloads::streaming::saxpy(64, 1).app,
                platforms: platforms.clone(),
                dse: fast_dse(),
                tenant: "acme".into(),
            },
            SweepJob {
                app: svmsyn_workloads::streaming::vecadd(64, 1).app,
                platforms,
                dse: fast_dse(),
                tenant: "globex".into(),
            },
        ]
    }

    fn store_root(tag: &str) -> std::path::PathBuf {
        let root =
            std::env::temp_dir().join(format!("svmsyn-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn run(
        jobs: Vec<SweepJob>,
        workers: usize,
        store: Option<ResultStore>,
    ) -> (ServeReport, Vec<ProgressEvent>) {
        let (mut svc, rx) = SweepService::new(workers, store);
        for j in jobs {
            svc.submit(j);
        }
        let report = svc.drain();
        let events: Vec<ProgressEvent> = rx.try_iter().collect();
        (report, events)
    }

    #[test]
    fn events_follow_the_job_lifecycle() {
        let (report, events) = run(jobs_fixture(), 2, None);
        assert_eq!(report.cells.len(), 6);
        for job in 0..3usize {
            let pos = |pred: &dyn Fn(&ProgressEvent) -> bool| {
                events.iter().position(pred).expect("event present")
            };
            let enq = pos(&|e| matches!(e, ProgressEvent::Enqueued { job: j, .. } if *j == job));
            let started = pos(&|e| matches!(e, ProgressEvent::Started { job: j } if *j == job));
            let done = pos(&|e| matches!(e, ProgressEvent::Done { job: j } if *j == job));
            assert!(enq < started && started < done);
            let evaluated = events
                .iter()
                .filter(|e| matches!(e, ProgressEvent::Evaluated { job: j, .. } if *j == job))
                .count();
            assert_eq!(evaluated, 2, "one Evaluated per platform cell");
        }
    }

    #[test]
    fn report_order_is_deterministic_across_worker_counts() {
        let (serial, _) = run(jobs_fixture(), 1, None);
        let (parallel, _) = run(jobs_fixture(), 4, None);
        assert_eq!(serial.matrix().to_string(), parallel.matrix().to_string());
        assert_eq!(serial.tenants, parallel.tenants);
    }

    #[test]
    fn tenants_aggregate_their_own_jobs() {
        let (report, _) = run(jobs_fixture(), 2, None);
        assert_eq!(report.tenants.len(), 2);
        let acme = &report.tenants[0];
        let globex = &report.tenants[1];
        assert_eq!(
            (acme.tenant.as_str(), acme.jobs, acme.cells),
            ("acme", 2, 4)
        );
        assert_eq!(
            (globex.tenant.as_str(), globex.jobs, globex.cells),
            ("globex", 1, 2)
        );
        assert!(acme.evaluated > 0 && globex.evaluated > 0);
        assert_eq!(report.store, None);
    }

    #[test]
    fn shared_store_turns_cross_job_overlap_into_hits() {
        let root = store_root("overlap");
        // Jobs 0 and 2 are the identical app: with one shared handle, the
        // second occurrence must be answered entirely from the store.
        let (report, _) = run(jobs_fixture(), 1, Some(ResultStore::open(&root).unwrap()));
        let stats = report.store.expect("store stats present");
        assert!(stats.hits > 0, "duplicate job must hit the shared store");
        let dup = &report.cells[4..6]; // job 2's cells
        for cell in dup {
            let r = cell.outcome.as_ref().unwrap();
            assert_eq!(r.store_misses, 0, "warm cell re-simulated");
            assert_eq!(r.store_hits, r.evaluated - r.cache_hits);
        }

        // A fresh service over the same root: 100% warm, identical matrix.
        let (cold_matrix, cold_tenants) = (report.matrix().to_string(), report.tenants.clone());
        let (warm, _) = run(jobs_fixture(), 2, Some(ResultStore::open(&root).unwrap()));
        assert!(warm.store_hit_fraction() >= 0.95);
        assert_eq!(warm.matrix().to_string(), cold_matrix);
        // Tenant evaluated/memo counts are search-determined; store hits
        // shift work away from "simulated": compare the deterministic
        // columns, then require zero fresh simulations.
        for (w, c) in warm.tenants.iter().zip(&cold_tenants) {
            assert_eq!(
                (&w.tenant, w.jobs, w.cells, w.evaluated, w.memo_hits),
                (&c.tenant, c.jobs, c.cells, c.evaluated, c.memo_hits)
            );
            assert_eq!(w.simulated, 0, "warm sweep must not simulate");
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn report_tables_render() {
        let (report, _) = run(jobs_fixture(), 2, None);
        let matrix = report.matrix().to_string();
        assert!(matrix.contains("vecadd"));
        assert!(matrix.contains("zynq7020-class"));
        let econ = report.economics().to_string();
        assert!(econ.contains("evaluated"));
        let tenants = report.tenant_table().to_string();
        assert!(tenants.contains("acme") && tenants.contains("globex"));
        assert!(report.cached_fraction() >= 0.0);
    }
}
