//! Deterministic fault injection for the storage stack.
//!
//! Durability claims are only as good as the crash schedule they were
//! tested under.  This module gives the engine a *deterministic* one: a
//! [`StorageFaults`] plan installed process-globally decides, for each
//! named **crash site** the storage and recovery code passes through,
//! whether execution proceeds, unwinds with an injected I/O error,
//! tears a write short, or kills the process on the spot (exit code
//! [`CRASH_EXIT_CODE`], so a torture harness can tell an injected crash
//! from a genuine panic).
//!
//! The registry lives in `chronos-obs` because it is the one crate
//! every layer already depends on and it depends on nothing; the
//! storage crate re-exports it as `chronos_storage::fault`.
//!
//! Design constraints:
//!
//! * **Zero cost when disarmed.**  Every site starts with one relaxed
//!   atomic load; production binaries never take the slow path.
//! * **Deterministic.**  Sites are hit in program order; the plan keys
//!   on `(site, per-site hit count)`, so "fail the 3rd WAL append" is
//!   reproducible byte-for-byte.
//! * **Cross-process.**  [`arm_from_env`] arms a plan from
//!   `CHRONOS_FAULT_*` environment variables, which is how the torture
//!   harness injects crashes into spawned child processes.
//!
//! The catalog of sites the engine declares is [`CRASH_SITES`]; the
//! fault matrix (`tests/fault_matrix.rs`)
//! iterates over it and verifies workload → crash → recover → verify
//! for every entry.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Exit code used for injected crashes, distinguishable from panics
/// (101) and clean exits (0).
pub const CRASH_EXIT_CODE: i32 = 86;

/// Every named crash site the engine declares, with the module that
/// hosts it.  The fault matrix iterates this list; adding a site here
/// without wiring `crash_point`/`write_decision` at the matching code
/// path makes the matrix fail (the child completes without crashing).
pub const CRASH_SITES: &[(&str, &str)] = &[
    ("wal.append.pre_frame", "storage/wal.rs"),
    ("wal.append.frame", "storage/wal.rs"),
    ("wal.group_sync.pre", "storage/wal.rs"),
    ("wal.group_fsync", "storage/wal.rs"),
    ("wal.group_sync.post", "storage/wal.rs"),
    ("wal.reset.pre_truncate", "storage/wal.rs"),
    ("wal.reset.post_truncate", "storage/wal.rs"),
    ("pager.read.miss", "storage/pager.rs"),
    ("pager.allocate", "storage/pager.rs"),
    ("heap.insert", "storage/heap.rs"),
    ("table.commit.apply", "storage/table.rs"),
    ("segment.write", "storage/segment.rs"),
    ("segment.rename", "storage/segment.rs"),
    ("segment.mmap_open", "storage/segment.rs"),
    ("checkpoint.save.pre_write", "db/checkpoint.rs"),
    ("checkpoint.save.pre_rename", "db/checkpoint.rs"),
    ("checkpoint.save.post_rename", "db/checkpoint.rs"),
    ("journal.emit", "obs/events.rs"),
];

/// What happens when execution reaches an armed crash site.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultAction {
    /// Nothing: the site is not (yet) the one being faulted.
    Proceed,
    /// Unwind with an injected I/O error.
    Error,
    /// Kill the process immediately with [`CRASH_EXIT_CODE`].
    Crash,
    /// For write sites only: persist the first `keep` bytes of the
    /// buffer, then crash (or unwind, when `unwind` is set) — a torn
    /// write.
    Torn { keep: usize, unwind: bool },
}

/// A fault schedule: asked once per site execution, in program order.
pub trait StorageFaults: Send + Sync {
    /// Decides the fate of the `hit`-th (1-based) execution of `site`.
    /// `len` is the buffer length at write sites, 0 elsewhere.
    fn decide(&self, site: &str, hit: u64, len: usize) -> FaultAction;
}

/// The common plan: fault one site on its Nth hit.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// The site to fault (must match a [`CRASH_SITES`] name).
    pub site: String,
    /// 1-based hit number to fault on.
    pub hit: u64,
    /// `Some(k)`: tear the write after `k` bytes (write sites only).
    pub torn_keep: Option<usize>,
    /// `true`: unwind with an error instead of killing the process.
    pub unwind: bool,
}

impl FaultPlan {
    /// A plan that kills the process at the `hit`-th execution of `site`.
    pub fn crash_at(site: &str, hit: u64) -> FaultPlan {
        FaultPlan {
            site: site.to_string(),
            hit,
            torn_keep: None,
            unwind: false,
        }
    }

    /// A plan that injects an I/O error at the `hit`-th execution of
    /// `site` instead of crashing.
    pub fn error_at(site: &str, hit: u64) -> FaultPlan {
        FaultPlan {
            site: site.to_string(),
            hit,
            torn_keep: None,
            unwind: true,
        }
    }
}

impl StorageFaults for FaultPlan {
    fn decide(&self, site: &str, hit: u64, len: usize) -> FaultAction {
        if site != self.site || hit != self.hit {
            return FaultAction::Proceed;
        }
        match self.torn_keep {
            Some(keep) => FaultAction::Torn {
                keep: keep.min(len),
                unwind: self.unwind,
            },
            None if self.unwind => FaultAction::Error,
            None => FaultAction::Crash,
        }
    }
}

struct Registry {
    plan: Option<Arc<dyn StorageFaults>>,
    hits: HashMap<String, u64>,
}

static ARMED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            plan: None,
            hits: HashMap::new(),
        })
    })
}

/// Installs a fault plan (replacing any previous one) and resets the
/// per-site hit counters.
pub fn install(plan: Arc<dyn StorageFaults>) {
    let mut reg = registry().lock().expect("fault registry poisoned");
    reg.plan = Some(plan);
    reg.hits.clear();
    ARMED.store(true, Ordering::SeqCst);
}

/// Removes the installed plan; every site reverts to zero-cost
/// pass-through.
pub fn clear() {
    let mut reg = registry().lock().expect("fault registry poisoned");
    reg.plan = None;
    reg.hits.clear();
    ARMED.store(false, Ordering::SeqCst);
}

/// True while a plan is installed.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

fn decide(site: &str, len: usize) -> FaultAction {
    let mut reg = registry().lock().expect("fault registry poisoned");
    let Some(plan) = reg.plan.clone() else {
        return FaultAction::Proceed;
    };
    let hit = reg.hits.entry(site.to_string()).or_insert(0);
    *hit += 1;
    let hit = *hit;
    drop(reg);
    plan.decide(site, hit, len)
}

/// The injected error returned by unwinding faults; recognizable by
/// its message prefix.
pub fn injected_error(site: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault at {site}"))
}

/// Kills the process the way an injected crash does, after announcing
/// the site on stderr (the torture harness greps for this line).
pub fn crash_now(site: &str) -> ! {
    eprintln!("chronos-fault: crashing at site {site}");
    std::process::exit(CRASH_EXIT_CODE);
}

/// A non-write crash site.  Returns `Ok(())` when disarmed or when the
/// plan lets this hit proceed; never returns on [`FaultAction::Crash`].
pub fn crash_point(site: &str) -> std::io::Result<()> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    match decide(site, 0) {
        FaultAction::Proceed => Ok(()),
        // A torn action at a non-write site degrades to an error/crash.
        FaultAction::Error | FaultAction::Torn { unwind: true, .. } => Err(injected_error(site)),
        FaultAction::Crash | FaultAction::Torn { unwind: false, .. } => crash_now(site),
    }
}

/// Peeks whether the *next* execution of `site` would kill the process
/// (as opposed to proceeding or unwinding).  Does **not** consume a
/// hit.  This lets a site that has staged unsynced bytes model a power
/// cut — dropping the staged bytes from the file — before the
/// subsequent [`crash_point`] fires, the same way torn-write sites
/// persist their tear before dying.
pub fn crash_imminent(site: &str) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    let reg = registry().lock().expect("fault registry poisoned");
    let Some(plan) = reg.plan.clone() else {
        return false;
    };
    let next_hit = reg.hits.get(site).copied().unwrap_or(0) + 1;
    drop(reg);
    matches!(
        plan.decide(site, next_hit, 0),
        FaultAction::Crash | FaultAction::Torn { unwind: false, .. }
    )
}

/// The fate of a buffer about to be written at a write site.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IoFault {
    /// Write the whole buffer, as normal.
    Full,
    /// Write only the first `keep` bytes, then crash (`unwind` false)
    /// or return [`injected_error`] (`unwind` true).  The caller is
    /// responsible for persisting the partial bytes *before* invoking
    /// the aftermath, so the tear is actually on disk.
    Torn { keep: usize, unwind: bool },
}

/// A write crash site: decides whether the `len`-byte buffer about to
/// be written is written whole, torn, or not at all.
pub fn write_decision(site: &str, len: usize) -> std::io::Result<IoFault> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(IoFault::Full);
    }
    match decide(site, len) {
        FaultAction::Proceed => Ok(IoFault::Full),
        FaultAction::Error => Err(injected_error(site)),
        FaultAction::Crash => crash_now(site),
        FaultAction::Torn { keep, unwind } => Ok(IoFault::Torn {
            keep: keep.min(len),
            unwind,
        }),
    }
}

/// Arms a [`FaultPlan`] from the environment, for fault injection into
/// spawned processes:
///
/// * `CHRONOS_FAULT_SITE` — site name (required; absent means no-op);
/// * `CHRONOS_FAULT_HIT` — 1-based hit number (default 1);
/// * `CHRONOS_FAULT_MODE` — `crash` (default) or `error`;
/// * `CHRONOS_FAULT_KEEP` — torn-write byte count (write sites).
///
/// Returns `true` when a plan was installed.
pub fn arm_from_env() -> bool {
    let Ok(site) = std::env::var("CHRONOS_FAULT_SITE") else {
        return false;
    };
    if site.is_empty() {
        return false;
    }
    let hit = std::env::var("CHRONOS_FAULT_HIT")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(1);
    let unwind = matches!(
        std::env::var("CHRONOS_FAULT_MODE").as_deref(),
        Ok("error") | Ok("unwind")
    );
    let torn_keep = std::env::var("CHRONOS_FAULT_KEEP")
        .ok()
        .and_then(|v| v.parse::<usize>().ok());
    install(Arc::new(FaultPlan {
        site,
        hit,
        torn_keep,
        unwind,
    }));
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global; serialize the tests that arm it.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disarmed_sites_pass_through() {
        let _g = guard();
        clear();
        assert!(crash_point("wal.append.pre_frame").is_ok());
        assert_eq!(
            write_decision("wal.append.frame", 64).unwrap(),
            IoFault::Full
        );
    }

    #[test]
    fn error_plan_fires_on_exact_hit_only() {
        let _g = guard();
        install(Arc::new(FaultPlan::error_at("heap.insert", 3)));
        assert!(crash_point("heap.insert").is_ok());
        assert!(crash_point("heap.insert").is_ok());
        let err = crash_point("heap.insert").unwrap_err();
        assert!(err.to_string().contains("injected fault at heap.insert"));
        // Other sites and later hits are untouched.
        assert!(crash_point("heap.insert").is_ok());
        assert!(crash_point("pager.allocate").is_ok());
        clear();
    }

    #[test]
    fn torn_write_keeps_prefix_and_unwinds() {
        let _g = guard();
        install(Arc::new(FaultPlan {
            site: "wal.append.frame".into(),
            hit: 1,
            torn_keep: Some(5),
            unwind: true,
        }));
        match write_decision("wal.append.frame", 64).unwrap() {
            IoFault::Torn { keep, unwind } => {
                assert_eq!(keep, 5);
                assert!(unwind);
            }
            other => panic!("expected torn, got {other:?}"),
        }
        clear();
    }

    #[test]
    fn reinstall_resets_hit_counters() {
        let _g = guard();
        install(Arc::new(FaultPlan::error_at("pager.read.miss", 1)));
        assert!(crash_point("pager.read.miss").is_err());
        install(Arc::new(FaultPlan::error_at("pager.read.miss", 1)));
        assert!(crash_point("pager.read.miss").is_err());
        clear();
        assert!(crash_point("pager.read.miss").is_ok());
    }

    #[test]
    fn crash_imminent_peeks_without_consuming_a_hit() {
        let _g = guard();
        install(Arc::new(FaultPlan::crash_at("wal.group_fsync", 2)));
        assert!(!crash_imminent("wal.group_fsync"), "next hit is 1, not 2");
        assert!(crash_point("wal.group_fsync").is_ok()); // consumes hit 1
        assert!(crash_imminent("wal.group_fsync"), "next hit would crash");
        assert!(crash_imminent("wal.group_fsync"), "peek does not consume");
        // Unwind plans are not imminent crashes.
        install(Arc::new(FaultPlan::error_at("wal.group_fsync", 1)));
        assert!(!crash_imminent("wal.group_fsync"));
        clear();
        assert!(!crash_imminent("wal.group_fsync"));
    }

    #[test]
    fn catalog_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (site, module) in CRASH_SITES {
            assert!(seen.insert(*site), "duplicate site {site}");
            assert!(site.split('.').count() >= 2, "site {site} not dotted");
            assert!(module.ends_with(".rs"));
        }
        assert!(CRASH_SITES.len() >= 12);
    }
}
