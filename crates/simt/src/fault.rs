//! Deterministic fault injection for the staged kernel pipeline.
//!
//! A service-grade runtime has to *prove* its recovery paths, not hope for
//! them.  This module provides the harness: a [`FaultPlan`] is a seeded
//! schedule of faults keyed by `(KernelKind, launch_index, lane)` — the
//! coordinates of one logical device thread of one population-wide kernel
//! launch — and a [`FaultSession`] arms that plan for a run.  While a
//! session is installed on the launching thread (see [`install`]),
//! [`Executor::launch`](crate::Executor::launch) consults it before every
//! lane and fires the armed fault:
//!
//! * [`FaultKind::Panic`] — the lane panics with a payload naming the site,
//!   exercising the engine supervisor's `catch_unwind` / retry path.
//! * [`FaultKind::Nan`] — the lane is flagged for *cooperative* NaN
//!   poisoning: the stage kernel consults [`take_nan`] and writes a
//!   non-finite value into its own output slot, exercising the numerical
//!   health guards.  Stages whose outputs are not floating-point treat the
//!   flag as a no-op (it is cleared after the lane either way).
//! * [`FaultKind::Stall`] — the lane sleeps before running, exercising
//!   wall-clock deadlines.
//!
//! Everything is deterministic: launch indices are per-kernel counters on
//! the session (the stage sequence of the pipeline is itself
//! deterministic), lanes are population member indices, and the seeded
//! plan generator is a pure function of its seed.  Because a session's
//! counters advance monotonically *across* same-seed retries, a fault
//! keyed to an early launch behaves like a transient: the retry runs past
//! it, which is exactly the failure model the supervisor targets.
//!
//! The whole module sits behind the `fault-injection` cargo feature; with
//! the feature off, none of this code exists and the executor's launch
//! path is unchanged.

use crate::kernel::KernelKind;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What an armed fault site does when its launch reaches the keyed lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Panic on the faulted lane; the payload names the site so the
    /// supervisor's `JobPanicked` detail identifies the injection.
    Panic,
    /// Arm cooperative NaN poisoning for the faulted lane: the stage
    /// kernel consults [`take_nan`] and writes a non-finite value into its
    /// output slot.  Inert on stages with non-float outputs.
    Nan,
    /// Sleep for the given duration before the lane runs (an artificial
    /// stall, caught by wall-clock deadlines).
    Stall(Duration),
}

/// The coordinates of one fault: a kernel, the ordinal of that kernel's
/// launch within the run (0-based, counted per kernel kind), and the lane
/// (logical device thread index, i.e. population member or CCD closure
/// segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FaultSite {
    /// Which kernel the fault targets.
    pub kind: KernelKind,
    /// 0-based ordinal of the targeted launch among all launches of
    /// `kind` in the session.
    pub launch_index: u64,
    /// Logical device thread index within the launch.
    pub lane: usize,
}

impl FaultSite {
    /// A fault site from its three coordinates.
    pub fn new(kind: KernelKind, launch_index: u64, lane: usize) -> FaultSite {
        FaultSite {
            kind,
            launch_index,
            lane,
        }
    }
}

/// A deterministic schedule of faults: which sites fire, and what each
/// does.  Build one explicitly with [`FaultPlan::inject`] or generate a
/// pseudo-random schedule with [`FaultPlan::seeded`] (a pure function of
/// the seed — the property tests rely on replayability).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    sites: HashMap<FaultSite, FaultKind>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Arm `fault` at `(kind, launch_index, lane)`, replacing any fault
    /// already armed there.  Builder-style.
    pub fn inject(
        mut self,
        kind: KernelKind,
        launch_index: u64,
        lane: usize,
        fault: FaultKind,
    ) -> FaultPlan {
        self.sites
            .insert(FaultSite::new(kind, launch_index, lane), fault);
        self
    }

    /// A pseudo-random schedule of `count` faults drawn deterministically
    /// from `seed`: kernels from `stages`, launch indices below
    /// `max_launch_index`, lanes below `max_lane`, cycling through
    /// panic/NaN/stall kinds.  Same seed, same plan — always.
    pub fn seeded(
        seed: u64,
        count: usize,
        stages: &[KernelKind],
        max_launch_index: u64,
        max_lane: usize,
    ) -> FaultPlan {
        assert!(!stages.is_empty(), "seeded plan needs at least one stage");
        assert!(max_launch_index > 0 && max_lane > 0, "bounds must be > 0");
        let mut state = seed;
        let mut plan = FaultPlan::new();
        for _ in 0..count {
            let kind = stages[(splitmix64(&mut state) as usize) % stages.len()];
            let launch_index = splitmix64(&mut state) % max_launch_index;
            let lane = (splitmix64(&mut state) as usize) % max_lane;
            let fault = match splitmix64(&mut state) % 3 {
                0 => FaultKind::Panic,
                1 => FaultKind::Nan,
                _ => FaultKind::Stall(Duration::from_millis(1)),
            };
            plan = plan.inject(kind, launch_index, lane, fault);
        }
        plan
    }

    /// Number of armed sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The fault armed at a site, if any.
    pub fn fault_at(&self, site: FaultSite) -> Option<FaultKind> {
        self.sites.get(&site).copied()
    }

    /// The armed sites, in an arbitrary order.
    pub fn sites(&self) -> impl Iterator<Item = (FaultSite, FaultKind)> + '_ {
        self.sites.iter().map(|(s, f)| (*s, *f))
    }
}

/// SplitMix64: the tiny, well-mixed PRNG step used by the seeded plan
/// generator (no external RNG dependency in this crate).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Dense per-kernel index for the launch counters.
fn kernel_slot(kind: KernelKind) -> usize {
    KernelKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("every KernelKind is in ALL")
}

/// An armed [`FaultPlan`] plus the per-kernel launch counters that give
/// each launch its deterministic `launch_index`.  One session spans one
/// job — including its same-seed retries, so counters keep advancing
/// across attempts and an injected fault behaves like a transient.
#[derive(Debug)]
pub struct FaultSession {
    plan: FaultPlan,
    counters: Vec<AtomicU64>,
}

impl FaultSession {
    /// Arm a plan: counters start at zero.
    pub fn begin(plan: FaultPlan) -> Arc<FaultSession> {
        Arc::new(FaultSession {
            plan,
            counters: KernelKind::ALL.iter().map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// The session's plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Claim the next launch index for `kind` (called once per
    /// [`Executor::launch`](crate::Executor::launch), on the launching
    /// thread, so the sequence is deterministic).
    pub fn next_launch_index(&self, kind: KernelKind) -> u64 {
        self.counters[kernel_slot(kind)].fetch_add(1, Ordering::Relaxed)
    }

    /// Launches of `kind` recorded so far.
    pub fn launches(&self, kind: KernelKind) -> u64 {
        self.counters[kernel_slot(kind)].load(Ordering::Relaxed)
    }

    /// Fire the fault armed at `(kind, launch_index, lane)`, if any:
    /// panics, sleeps, or arms the thread-local NaN-poison flag.  Called
    /// by the executor on whichever worker runs the lane.
    pub fn fire(&self, kind: KernelKind, launch_index: u64, lane: usize) {
        match self.plan.fault_at(FaultSite::new(kind, launch_index, lane)) {
            None => {}
            Some(FaultKind::Panic) => panic!(
                "injected fault: panic in {} launch {launch_index} lane {lane}",
                kind.name()
            ),
            Some(FaultKind::Stall(d)) => std::thread::sleep(d),
            Some(FaultKind::Nan) => NAN_PENDING.with(|f| f.set(true)),
        }
    }
}

thread_local! {
    /// The session consulted by `Executor::launch` on this thread.
    static ACTIVE: RefCell<Option<Arc<FaultSession>>> = const { RefCell::new(None) };
    /// Set by `FaultSession::fire` for a NaN site, consumed by the stage
    /// kernel (or cleared by the executor after the lane).
    static NAN_PENDING: Cell<bool> = const { Cell::new(false) };
}

/// Install `session` as the active fault session on the *calling* thread
/// until the returned guard drops.  Launches issued from this thread (the
/// job's worker thread) consult the session; the per-lane fault checks
/// follow the launch onto pool workers automatically.
#[must_use = "the session is uninstalled when the guard drops"]
pub fn install(session: Arc<FaultSession>) -> FaultGuard {
    let prev = ACTIVE.with(|a| a.borrow_mut().replace(session));
    FaultGuard { prev }
}

/// Uninstalls the session installed by [`install`] on drop, restoring
/// whatever was active before (sessions nest).
#[derive(Debug)]
pub struct FaultGuard {
    prev: Option<Arc<FaultSession>>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        ACTIVE.with(|a| *a.borrow_mut() = prev);
    }
}

/// The session installed on this thread, if any (used by
/// [`Executor::launch`](crate::Executor::launch)).
pub fn active() -> Option<Arc<FaultSession>> {
    ACTIVE.with(|a| a.borrow().clone())
}

/// Consume the NaN-poison flag for the current lane.  Stage kernels call
/// this once per lane and, when it returns `true`, write a non-finite
/// value into their output slot — the cooperative half of
/// [`FaultKind::Nan`].
pub fn take_nan() -> bool {
    NAN_PENDING.with(|f| f.replace(false))
}

/// Clear any unconsumed NaN-poison flag (the executor calls this after
/// every lane so an inert stage cannot leak the flag to the next lane
/// scheduled on the same worker thread).
pub fn clear_nan() {
    NAN_PENDING.with(|f| f.set(false));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecutorConfig;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn seeded_plans_are_replayable_and_seed_sensitive() {
        let stages = [KernelKind::Reproduction, KernelKind::EvalVdw];
        let a = FaultPlan::seeded(42, 8, &stages, 10, 16);
        let b = FaultPlan::seeded(42, 8, &stages, 10, 16);
        let c = FaultPlan::seeded(43, 8, &stages, 10, 16);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty());
        assert!(a.len() <= 8); // collisions may merge sites
        for (site, _) in a.sites() {
            assert!(stages.contains(&site.kind));
            assert!(site.launch_index < 10);
            assert!(site.lane < 16);
        }
    }

    #[test]
    fn session_counts_launches_per_kernel() {
        let s = FaultSession::begin(FaultPlan::new());
        assert_eq!(s.next_launch_index(KernelKind::Ccd), 0);
        assert_eq!(s.next_launch_index(KernelKind::Ccd), 1);
        assert_eq!(s.next_launch_index(KernelKind::Select), 0);
        assert_eq!(s.launches(KernelKind::Ccd), 2);
        assert_eq!(s.launches(KernelKind::Select), 1);
        assert_eq!(s.launches(KernelKind::Metropolis), 0);
    }

    #[test]
    fn injected_panic_fires_at_exactly_the_keyed_site() {
        let plan = FaultPlan::new().inject(KernelKind::EvalVdw, 1, 3, FaultKind::Panic);
        let session = FaultSession::begin(plan);
        let _guard = install(session);
        let exec = ExecutorConfig::scalar().build().unwrap();
        // Launch 0 of EvalVdw and any launch of another kernel are clean.
        let ran = AtomicUsize::new(0);
        let _ = exec.launch(KernelKind::EvalVdw, 8, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        let _ = exec.launch(KernelKind::EvalDist, 8, |_| {});
        assert_eq!(ran.load(Ordering::Relaxed), 8);
        // Launch 1 of EvalVdw panics on lane 3.
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _ = exec.launch(KernelKind::EvalVdw, 8, |_| {});
        }));
        let payload = result.expect_err("lane 3 must panic");
        let detail = payload
            .downcast_ref::<String>()
            .expect("injected panic carries a String payload");
        assert!(detail.contains("[EvalVDW]"), "payload: {detail}");
        assert!(detail.contains("lane 3"), "payload: {detail}");
    }

    #[test]
    fn nan_flag_is_armed_for_the_faulted_lane_and_cleared_after() {
        let plan = FaultPlan::new().inject(KernelKind::Reproduction, 0, 2, FaultKind::Nan);
        let _guard = install(FaultSession::begin(plan));
        let exec = ExecutorConfig::scalar().build().unwrap();
        let mut poisoned = vec![false; 4];
        {
            let flags = std::sync::Mutex::new(&mut poisoned);
            let _ = exec.launch(KernelKind::Reproduction, 4, |i| {
                flags.lock().unwrap()[i] = take_nan();
            });
        }
        assert_eq!(poisoned, vec![false, false, true, false]);
        // A second launch (index 1) matches no site; a kernel that never
        // consults take_nan must not see a stale flag either.
        let _ = exec.launch(KernelKind::Reproduction, 4, |_| {});
        assert!(!take_nan());
    }

    #[test]
    fn stall_delays_the_keyed_lane() {
        let stall = Duration::from_millis(20);
        let plan = FaultPlan::new().inject(KernelKind::Ccd, 0, 0, FaultKind::Stall(stall));
        let _guard = install(FaultSession::begin(plan));
        let launch = ExecutorConfig::scalar()
            .build()
            .unwrap()
            .launch(KernelKind::Ccd, 1, |_| {});
        assert!(launch.host >= stall, "host time {:?}", launch.host);
    }

    #[test]
    fn faults_fire_under_the_parallel_executor_too() {
        let plan = FaultPlan::new().inject(KernelKind::Select, 0, 5, FaultKind::Panic);
        let _guard = install(FaultSession::begin(plan));
        let exec = ExecutorConfig::parallel().threads(2).build().unwrap();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _ = exec.launch(KernelKind::Select, 16, |_| {});
        }));
        assert!(result.is_err(), "panic must propagate through the pool");
    }

    #[test]
    fn guard_restores_the_previous_session() {
        assert!(active().is_none());
        let outer = FaultSession::begin(FaultPlan::new());
        let g1 = install(Arc::clone(&outer));
        {
            let inner = FaultSession::begin(FaultPlan::new());
            let _g2 = install(Arc::clone(&inner));
            assert!(Arc::ptr_eq(&active().unwrap(), &inner));
        }
        assert!(Arc::ptr_eq(&active().unwrap(), &outer));
        drop(g1);
        assert!(active().is_none());
    }
}
