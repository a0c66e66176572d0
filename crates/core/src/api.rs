//! The application-facing shared-memory API.
//!
//! This module defines the **one** interface every workload in this
//! repository programs against, plus its LOTS implementation:
//!
//! * [`DsmApi`] — one node's handle on a shared object space (alloc,
//!   lock/unlock, barrier, cost accounting, stats). Implemented by
//!   [`Dsm`] here (covering both LOTS and the LOTS-x ablation) and by
//!   `lots_jiajia::JiaDsm`, so applications are written once and run
//!   on every system, exactly as the paper ports each app to both
//!   DSMs (§4.1).
//! * [`DsmSlice`] — the paper's `Pointer<T>` (§3.2/§3.3): a small
//!   copyable handle supporting pointer arithmetic whose accessors run
//!   the status-checking routine that C++ LOTS hides behind operator
//!   overloading.
//! * View guards ([`ObjView`]/[`ObjViewMut`] for LOTS) — RAII bulk
//!   access scopes returned by [`DsmSlice::view`]/[`DsmSlice::view_mut`].
//!
//! # Check accounting (§4.2)
//!
//! The paper measures 20–25 ns per software access check and shows SOR
//! spending more than half its time in checks because **every** `a[i]`
//! is a checked access. The accounting rules here mirror that:
//!
//! * **Element ops** ([`DsmSlice::read`], [`DsmSlice::write`],
//!   [`DsmSlice::read_into`], [`DsmSlice::write_from`], …) charge one
//!   access check *per element touched* ([`DsmSlice::update`] charges
//!   two, like `a[i] += x`). They model the paper's original
//!   per-access-check API.
//! * **View guards** charge one access check *per guard*, however many
//!   elements the view spans: the check and miss handling run once at
//!   guard creation, the object stays pinned (§3.3's statement
//!   pinning, subsuming [`Dsm::statement`]) for the guard's lifetime,
//!   and the inner loop runs over a plain `&[T]`/`&mut [T]` with no
//!   further checks. This is the API change that collapses the §4.2
//!   overhead on hot loops.
//! * A guard over an **empty range** touches no object and charges no
//!   checks.
//!
//! Guards buffer their range once at creation (the real system hands
//! out a direct pointer; the simulated cost model is identical), so
//! two rules are enforced with panics in both implementations:
//!
//! 1. Guards must be dropped before the next synchronization operation
//!    ([`DsmApi::barrier`], [`DsmApi::lock`], [`DsmApi::unlock`]) —
//!    sync redefines what the memory contains.
//! 2. While a guard is live, other accesses to the same data may not
//!    overlap it: a write may not overlap any live view, and any
//!    access may not overlap a live mutable view (the buffered
//!    snapshot would go stale, or clobber the access on write-back).
//!    Disjoint ranges — e.g. a read view and a mutable view of
//!    different rows, or of different halves of one object — interleave
//!    freely.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut, Range};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::Receiver;
use lots_analyze::RaceDetector;
use lots_net::{Envelope, NetSender, NodeId, TrafficStats};
use lots_sim::{CrashFault, NodeStats, SimInstant, TimeCategory};
use parking_lot::Mutex;

use crate::config::Placement;
use crate::consistency::barrier::BarrierService;
use crate::consistency::locks::{LockId, LockService};
use crate::consistency::SyncCtx;
use crate::node::{LotsError, NodeState, RangeAccess};
use crate::object::{NamedAllocReq, ObjectId};
use crate::pod::Pod;
use crate::protocol::messages::Msg;

// ----------------------------------------------------------------------
// The shared-memory traits
// ----------------------------------------------------------------------

/// One node's handle on a shared memory space: the single API every
/// workload is written against (see the module docs).
///
/// Implementations: [`Dsm`] (LOTS and LOTS-x) and `lots_jiajia::JiaDsm`.
pub trait DsmApi {
    /// Errors surfaced by the fallible (`try_*`) surface.
    type Error: std::error::Error + Send + Sync + 'static;

    /// The `Pointer<T>` handle type this system hands out.
    type Slice<'d, T: Pod>: DsmSlice<Elem = T, Error = Self::Error>
    where
        Self: 'd;

    /// This node's rank.
    fn me(&self) -> NodeId;

    /// Cluster size.
    fn n(&self) -> usize;

    /// Current virtual time on this node.
    fn now(&self) -> SimInstant;

    /// The cluster seed (`ClusterOptions::seed` / `JiaOptions::seed`,
    /// default 0). Seeded workloads fold it into their RNG streams so
    /// a run's data set is reproducible end to end from one `u64`.
    fn seed(&self) -> u64;

    /// Allocate a shared array of `len` elements (the paper's
    /// `Pointer<T> p; p.alloc(len)`) under the configuration's default
    /// [`Placement`]. Collective in the SPMD sense: every node must
    /// perform the same allocations in the same order, which is what
    /// makes the handles agree cluster-wide (named allocations lift
    /// this restriction — see [`DsmApi::try_alloc_named`]).
    fn try_alloc<T: Pod>(&self, len: usize) -> Result<Self::Slice<'_, T>, Self::Error>;

    /// Panicking [`DsmApi::try_alloc`].
    fn alloc<T: Pod>(&self, len: usize) -> Self::Slice<'_, T> {
        self.try_alloc(len)
            .unwrap_or_else(|e| panic!("alloc of {len} elements: {e}"))
    }

    /// [`DsmApi::try_alloc`] with an explicit initial-home
    /// [`Placement`] (collective like `try_alloc`; every node must
    /// pass the same placement).
    fn try_alloc_placed<T: Pod>(
        &self,
        len: usize,
        placement: Placement,
    ) -> Result<Self::Slice<'_, T>, Self::Error>;

    /// Panicking [`DsmApi::try_alloc_placed`].
    fn alloc_placed<T: Pod>(&self, len: usize, placement: Placement) -> Self::Slice<'_, T> {
        self.try_alloc_placed(len, placement)
            .unwrap_or_else(|e| panic!("alloc of {len} elements ({placement:?}): {e}"))
    }

    /// Free a shared object. The handle must cover the whole original
    /// allocation (no `offset`/`prefix` sub-slices). The object is
    /// tombstoned immediately — any further access through any handle
    /// panics like the view-guard fences — and its DMM/twin/control
    /// space, swap image and directory entries are reclaimed
    /// **cluster-wide at the next barrier**, riding the barrier's
    /// diff-propagation round; the freed id is then reused by later
    /// allocations. Unlike `alloc`, `free` is *not* collective: any
    /// one node's free reclaims the object everywhere.
    ///
    /// # Fence durability
    ///
    /// Handles are `Copy`, so stale copies can outlive the free — as
    /// dangling pointers do in the real systems — and the fence is
    /// best-effort beyond the tombstone window:
    ///
    /// * **LOTS** keeps the freeing node's fence through reclamation
    ///   (the slot stays `Free`) and drops it only when a later
    ///   allocation *reuses* the slot — from then on a stale handle
    ///   aliases the new object, exactly like a dangling `Pointer<T>`
    ///   in the C++ runtime.
    /// * **JIAJIA** fences tombstoned pages only until the reclaiming
    ///   barrier re-zeroes them: pages, like raw memory, carry no
    ///   identity afterwards, so a stale handle silently reads the
    ///   fresh zero fill (or a later allocation's data). Page-based
    ///   systems cannot do better — one of the object-vs-page contrasts
    ///   the paper draws.
    fn try_free<T: Pod>(&self, slice: Self::Slice<'_, T>) -> Result<(), Self::Error>;

    /// Panicking [`DsmApi::try_free`].
    fn free<T: Pod>(&self, slice: Self::Slice<'_, T>) {
        self.try_free(slice)
            .unwrap_or_else(|e| panic!("free failed: {e}"))
    }

    /// Stage a named allocation of `len` elements under the
    /// configuration's default placement. Named allocations are *not*
    /// collective: any subset of nodes (typically one) stages them,
    /// and they materialize cluster-wide at the next barrier, after
    /// which **every** node — the allocator included — attaches via
    /// [`DsmApi::try_lookup`]. Staging the same name twice (locally or
    /// from two nodes in one interval) is an error/panic.
    fn try_alloc_named<T: Pod>(&self, name: &str, len: usize) -> Result<(), Self::Error>;

    /// Panicking [`DsmApi::try_alloc_named`].
    fn alloc_named<T: Pod>(&self, name: &str, len: usize) {
        self.try_alloc_named::<T>(name, len)
            .unwrap_or_else(|e| panic!("alloc_named({name:?}, {len}): {e}"))
    }

    /// [`DsmApi::try_alloc_named`] with an explicit [`Placement`].
    fn try_alloc_named_placed<T: Pod>(
        &self,
        name: &str,
        len: usize,
        placement: Placement,
    ) -> Result<(), Self::Error>;

    /// Panicking [`DsmApi::try_alloc_named_placed`].
    fn alloc_named_placed<T: Pod>(&self, name: &str, len: usize, placement: Placement) {
        self.try_alloc_named_placed::<T>(name, len, placement)
            .unwrap_or_else(|e| panic!("alloc_named({name:?}, {len}, {placement:?}): {e}"))
    }

    /// Resolve a committed name into a handle. The element type must
    /// match the staging `alloc_named::<T>` call (checked through the
    /// element size recorded in the replicated directory). Names
    /// staged this interval are not yet visible — they commit at the
    /// next barrier.
    fn try_lookup<T: Pod>(&self, name: &str) -> Result<Self::Slice<'_, T>, Self::Error>;

    /// Panicking [`DsmApi::try_lookup`].
    fn lookup<T: Pod>(&self, name: &str) -> Self::Slice<'_, T> {
        self.try_lookup(name)
            .unwrap_or_else(|e| panic!("lookup({name:?}): {e}"))
    }

    /// Fallible [`DsmApi::alloc_chunks`]: `chunks == 0` or
    /// `chunk_len == 0` is rejected with the same error as
    /// `try_alloc(0)` (`EmptyAlloc`), on every system.
    fn try_alloc_chunks<T: Pod>(
        &self,
        chunks: usize,
        chunk_len: usize,
    ) -> Result<Vec<Self::Slice<'_, T>>, Self::Error> {
        if chunks == 0 || chunk_len == 0 {
            // Reject exactly like a zero-length alloc, whatever this
            // system's error type calls it.
            self.try_alloc::<T>(0)?;
            unreachable!("try_alloc(0) must return the empty-alloc error");
        }
        (0..chunks).map(|_| self.try_alloc(chunk_len)).collect()
    }

    /// Allocate `chunks` arrays of `chunk_len` elements each in this
    /// system's natural data layout. The default allocates one object
    /// per chunk — §3.2: "LOTS treats each pointer or row as a separate
    /// object". Page-based systems override this with one flat
    /// allocation whose chunks share pages (the false sharing §4.1
    /// analyses in LU).
    fn alloc_chunks<T: Pod>(&self, chunks: usize, chunk_len: usize) -> Vec<Self::Slice<'_, T>> {
        self.try_alloc_chunks(chunks, chunk_len)
            .unwrap_or_else(|e| panic!("alloc of {chunks} chunks × {chunk_len} elements: {e}"))
    }

    /// Global memory barrier: publish this interval's writes and make
    /// every other node's writes visible (§3.4).
    fn barrier(&self);

    /// Acquire a cluster-wide lock, applying the updates that Scope
    /// Consistency makes visible at this acquire (§3.4).
    fn lock(&self, lock: LockId);

    /// Release a cluster-wide lock, publishing the critical section's
    /// updates.
    fn unlock(&self, lock: LockId);

    /// Run `f` inside the critical section guarded by `lock`.
    fn with_lock<R>(&self, lock: LockId, f: impl FnOnce() -> R) -> R {
        self.lock(lock);
        let r = f();
        self.unlock(lock);
        r
    }

    /// Charge `ops` element operations of application compute to this
    /// node's virtual clock (the workload cost model).
    fn charge_compute(&self, ops: u64);

    /// Charge `n` additional access checks without touching data — the
    /// workload cost-model hook for per-element re-accesses the
    /// object-based system would check (§4.2). A no-op on systems with
    /// no software check (JIAJIA).
    fn charge_access_checks(&self, n: u64);

    /// Node statistics (time breakdown, access-check counts, swaps).
    fn stats(&self) -> &NodeStats;

    /// Network traffic counters of this node.
    fn traffic(&self) -> &TrafficStats;
}

/// A typed handle on a shared array — the paper's `Pointer<T>`.
///
/// Copyable like a raw pointer; supports the paper's pointer
/// arithmetic (§3.3: LOTS "supports a limited set of pointer
/// operations … such as `*(a+4)=1`") via [`DsmSlice::offset`] and
/// [`DsmSlice::prefix`]. All data access goes through the element ops
/// or the view guards; see the module docs for the check-accounting
/// contract of each.
pub trait DsmSlice: Copy + std::fmt::Debug {
    /// Element type stored in the shared array.
    type Elem: Pod;

    /// Error type of the fallible surface (matches the owning
    /// [`DsmApi::Error`]).
    type Error: std::error::Error + Send + Sync + 'static;

    /// Read-only view guard: derefs to `&[Self::Elem]`.
    type View<'g>: Deref<Target = [Self::Elem]>
    where
        Self: 'g;

    /// Mutable view guard: derefs to `&mut [Self::Elem]`, written back
    /// to the shared object when dropped.
    type ViewMut<'g>: DerefMut<Target = [Self::Elem]>
    where
        Self: 'g;

    /// Elements addressable through this handle.
    fn len(&self) -> usize;

    /// Pointer arithmetic: a handle shifted forward by `delta`
    /// elements. `offset(len)` is allowed and yields an explicitly
    /// **empty tail handle**: `is_empty()` is true, empty views and
    /// bulk ops over zero elements succeed, and element accessors
    /// panic with a message naming the empty handle.
    fn offset(&self, delta: usize) -> Self;

    /// Pointer arithmetic: a handle restricted to the first `len`
    /// elements.
    fn prefix(&self, len: usize) -> Self;

    /// Accounting primitive behind every read: a read view over
    /// `range` charging `checks` access checks. Applications normally
    /// call [`DsmSlice::view`] (one check per guard); the element-wise
    /// compat ops call this with per-element check counts.
    fn try_view_checked(
        &self,
        range: Range<usize>,
        checks: u64,
    ) -> Result<Self::View<'_>, Self::Error>;

    /// Accounting primitive behind every write: the mutable
    /// counterpart of [`DsmSlice::try_view_checked`].
    fn try_view_mut_checked(
        &self,
        range: Range<usize>,
        checks: u64,
    ) -> Result<Self::ViewMut<'_>, Self::Error>;

    /// True iff the handle addresses zero elements.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Open a bulk read scope over `range`: one access check, one miss
    /// resolution, then check-free `&[T]` access for the guard's
    /// lifetime. The guard buffers the range once at creation (the
    /// real system would hand out a direct pointer; the simulated cost
    /// model is identical — no per-element checks).
    fn view(&self, range: Range<usize>) -> Self::View<'_> {
        self.try_view(range.clone())
            .unwrap_or_else(|e| panic!("view {range:?} of {self:?}: {e}"))
    }

    /// Fallible [`DsmSlice::view`].
    fn try_view(&self, range: Range<usize>) -> Result<Self::View<'_>, Self::Error> {
        let checks = !range.is_empty() as u64;
        self.try_view_checked(range, checks)
    }

    /// Open a bulk write scope over `range`: one access check at
    /// creation, check-free `&mut [T]` access for the guard's
    /// lifetime, write-back on drop. The guard buffers the range once
    /// at creation; overlapping accesses to the same data while the
    /// guard is live are rejected with a panic (the snapshot would go
    /// stale or clobber them on write-back).
    fn view_mut(&self, range: Range<usize>) -> Self::ViewMut<'_> {
        self.try_view_mut(range.clone())
            .unwrap_or_else(|e| panic!("view_mut {range:?} of {self:?}: {e}"))
    }

    /// Fallible [`DsmSlice::view_mut`].
    fn try_view_mut(&self, range: Range<usize>) -> Result<Self::ViewMut<'_>, Self::Error> {
        let checks = !range.is_empty() as u64;
        self.try_view_mut_checked(range, checks)
    }

    /// Read element `i` (one access check).
    fn read(&self, i: usize) -> Self::Elem {
        self.try_read(i)
            .unwrap_or_else(|e| panic!("read {self:?}[{i}]: {e}"))
    }

    /// Fallible [`DsmSlice::read`].
    fn try_read(&self, i: usize) -> Result<Self::Elem, Self::Error> {
        element_bounds(self, self.len(), i);
        Ok(self.try_view_checked(i..i + 1, 1)?[0])
    }

    /// Write element `i` (one access check).
    fn write(&self, i: usize, v: Self::Elem) {
        self.try_write(i, v)
            .unwrap_or_else(|e| panic!("write {self:?}[{i}]: {e}"))
    }

    /// Fallible [`DsmSlice::write`].
    fn try_write(&self, i: usize, v: Self::Elem) -> Result<(), Self::Error> {
        element_bounds(self, self.len(), i);
        self.try_view_mut_checked(i..i + 1, 1)?[0] = v;
        Ok(())
    }

    /// Read-modify-write element `i` (two access checks, like
    /// `a[i] += x`).
    fn update(&self, i: usize, f: impl FnOnce(Self::Elem) -> Self::Elem) {
        self.try_update(i, f)
            .unwrap_or_else(|e| panic!("update {self:?}[{i}]: {e}"))
    }

    /// Fallible [`DsmSlice::update`].
    fn try_update(
        &self,
        i: usize,
        f: impl FnOnce(Self::Elem) -> Self::Elem,
    ) -> Result<(), Self::Error> {
        element_bounds(self, self.len(), i);
        let mut g = self.try_view_mut_checked(i..i + 1, 2)?;
        g[0] = f(g[0]);
        Ok(())
    }

    /// Bulk read of `out.len()` elements starting at `start`; charged
    /// as one access check per element, like the element loop it
    /// replaces (§4.2's accounting).
    fn read_into(&self, start: usize, out: &mut [Self::Elem]) {
        self.try_read_into(start, out)
            .unwrap_or_else(|e| panic!("bulk read of {self:?}: {e}"))
    }

    /// Fallible [`DsmSlice::read_into`].
    fn try_read_into(&self, start: usize, out: &mut [Self::Elem]) -> Result<(), Self::Error> {
        if out.is_empty() {
            return Ok(());
        }
        let v = self.try_view_checked(start..start + out.len(), out.len() as u64)?;
        out.copy_from_slice(&v);
        Ok(())
    }

    /// Bulk read returning a fresh vector (one check per element).
    fn read_vec(&self, start: usize, len: usize) -> Vec<Self::Elem> {
        let mut out = vec![Self::Elem::default(); len];
        self.read_into(start, &mut out);
        out
    }

    /// Bulk write of `vals` starting at `start` (one check per
    /// element).
    fn write_from(&self, start: usize, vals: &[Self::Elem]) {
        self.try_write_from(start, vals)
            .unwrap_or_else(|e| panic!("bulk write of {self:?}: {e}"))
    }

    /// Fallible [`DsmSlice::write_from`].
    fn try_write_from(&self, start: usize, vals: &[Self::Elem]) -> Result<(), Self::Error> {
        if vals.is_empty() {
            return Ok(());
        }
        let mut g = self.try_view_mut_checked(start..start + vals.len(), vals.len() as u64)?;
        g.copy_from_slice(vals);
        Ok(())
    }

    /// Fill the whole slice with `v` (one check per element, one
    /// write-only pass).
    fn fill(&self, v: Self::Elem) {
        self.write_from(0, &vec![v; self.len()]);
    }
}

/// Panic with an explicit message when an element accessor is used on
/// an empty (e.g. `offset(len)`) handle or past the end (shared by the
/// [`DsmSlice`] implementations; not part of the application API).
#[doc(hidden)]
pub fn element_bounds(slice: &impl std::fmt::Debug, len: usize, i: usize) {
    if len == 0 {
        panic!("element access on empty handle {slice:?} (offset(len) tail)");
    }
    assert!(i < len, "index {i} out of bounds (len {len}) on {slice:?}");
}

/// Validate a view range against the handle length (shared by the
/// [`DsmSlice`] implementations; not part of the application API).
#[doc(hidden)]
pub fn range_bounds(slice: &impl std::fmt::Debug, len: usize, range: &Range<usize>) {
    assert!(
        range.start <= range.end && range.end <= len,
        "view range {range:?} out of bounds (len {len}) on {slice:?}"
    );
}

// ----------------------------------------------------------------------
// The LOTS implementation
// ----------------------------------------------------------------------

/// One node's handle on the LOTS shared object space (the paper's
/// runtime library instance).
///
/// Not `Sync`: each simulated process has exactly one application
/// thread driving its `Dsm` (SPMD style, as in the paper). The shared
/// API lives on the [`DsmApi`] and [`DsmSlice`] traits; LOTS-specific
/// extras (statement scopes, swap introspection) are inherent methods.
pub struct Dsm {
    pub(crate) ctx: SyncCtx,
    pub(crate) node: Arc<Mutex<NodeState>>,
    pub(crate) net: NetSender<Msg>,
    pub(crate) replies: Receiver<Envelope<Msg>>,
    pub(crate) locks: Arc<LockService>,
    pub(crate) barrier: Arc<BarrierService>,
    pub(crate) me: NodeId,
    pub(crate) n: usize,
    /// Cluster seed surfaced through [`DsmApi::seed`].
    pub(crate) seed: u64,
    /// Fault injection: panic on entering this (1-based) barrier.
    pub(crate) fault_barrier: Option<u64>,
    /// Fault injection: crash after completing this fault's barrier,
    /// then rejoin (see [`NodeState::crash_rejoin`]).
    pub(crate) crash_fault: Option<CrashFault>,
    /// Barriers this node has entered (drives `fault_barrier`).
    pub(crate) barriers_entered: Cell<u64>,
    /// Live view guards; synchronization ops assert this is zero.
    pub(crate) live_views: Cell<u32>,
    /// Byte spans of live non-empty guards, used to reject conflicting
    /// same-object accesses (a stale-snapshot/lost-update hazard with
    /// buffered guards).
    pub(crate) view_spans: RefCell<Vec<ViewSpan>>,
    /// Token source for [`ViewSpan`] registration.
    pub(crate) view_token: Cell<u64>,
    /// ScC race detector, shared cluster-wide when analysis is on
    /// (see [`lots_analyze::AnalyzeConfig`]). `None` costs one branch
    /// per access and leaves virtual times untouched.
    pub(crate) analyze: Option<Arc<RaceDetector>>,
    /// Persistence journal (`Some` iff `LotsConfig::persist` is set):
    /// appended after every completed barrier, shared with the node's
    /// background compaction daemon. `None` skips the whole subsystem
    /// — one branch per barrier, virtual times untouched.
    pub(crate) journal: Option<Arc<Mutex<lots_persist::NodeJournal>>>,
}

/// One live guard's byte extent (see [`Dsm::view_spans`]).
pub(crate) struct ViewSpan {
    token: u64,
    obj: u32,
    start: usize,
    end: usize,
    mutable: bool,
}

impl DsmApi for Dsm {
    type Error = LotsError;
    type Slice<'d, T: Pod> = SharedSlice<'d, T>;

    fn me(&self) -> NodeId {
        self.me
    }

    fn n(&self) -> usize {
        self.n
    }

    fn now(&self) -> SimInstant {
        self.ctx.clock.now()
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn try_alloc<T: Pod>(&self, len: usize) -> Result<SharedSlice<'_, T>, LotsError> {
        if len == 0 {
            return Err(LotsError::EmptyAlloc);
        }
        let (id, striped) = {
            let mut node = self.node.lock();
            let id = node.register_object(len * T::SIZE)?;
            (id, node.stripe_of(id).is_some())
        };
        Ok(SharedSlice {
            dsm: self,
            id,
            base: 0,
            len,
            striped,
            _pd: PhantomData,
        })
    }

    fn try_alloc_placed<T: Pod>(
        &self,
        len: usize,
        placement: Placement,
    ) -> Result<SharedSlice<'_, T>, LotsError> {
        if len == 0 {
            return Err(LotsError::EmptyAlloc);
        }
        let (id, striped) = {
            let mut node = self.node.lock();
            let id = node.register_object_placed(len * T::SIZE, placement)?;
            (id, node.stripe_of(id).is_some())
        };
        Ok(SharedSlice {
            dsm: self,
            id,
            base: 0,
            len,
            striped,
            _pd: PhantomData,
        })
    }

    fn try_free<T: Pod>(&self, slice: SharedSlice<'_, T>) -> Result<(), LotsError> {
        // Same fence as the sync operations: a buffered guard over a
        // dying object would write back into a reclaimed slot.
        self.assert_no_views_of(slice.id, "free");
        if slice.base != 0 {
            return Err(LotsError::BadFree {
                obj: slice.id,
                reason: format!(
                    "handle is offset {} elements into the object — free \
                     needs the original allocation handle",
                    slice.base
                ),
            });
        }
        self.node.lock().free_object(slice.id, slice.len * T::SIZE)
    }

    fn try_alloc_named<T: Pod>(&self, name: &str, len: usize) -> Result<(), LotsError> {
        let placement = self.node.lock().cfg.alloc.placement;
        self.stage_named_req::<T>(name, len, placement, false)
    }

    fn try_alloc_named_placed<T: Pod>(
        &self,
        name: &str,
        len: usize,
        placement: Placement,
    ) -> Result<(), LotsError> {
        self.stage_named_req::<T>(name, len, placement, true)
    }

    fn try_lookup<T: Pod>(&self, name: &str) -> Result<SharedSlice<'_, T>, LotsError> {
        let (id, len, striped) = {
            let node = self.node.lock();
            let (id, len) = node.lookup_named(name, T::SIZE)?;
            (id, len, node.stripe_of(id).is_some())
        };
        Ok(SharedSlice {
            dsm: self,
            id,
            base: 0,
            len,
            striped,
            _pd: PhantomData,
        })
    }

    fn barrier(&self) {
        self.try_barrier()
            .unwrap_or_else(|e| panic!("barrier failed: {e}"))
    }

    fn lock(&self, lock: LockId) {
        self.assert_no_live_views("lock");
        let grant = self.locks.acquire(lock, &self.ctx);
        // Happens-before edge lands only once the grant is actually
        // held, so a racing acquirer can't observe it early.
        if let Some(d) = &self.analyze {
            d.on_lock_acquire(self.me, lock);
        }
        let mut node = self.node.lock();
        node.apply_lock_updates(&grant.updates);
        for &(obj, holder) in &grant.invalidate {
            node.wi_invalidate(obj, holder)
                .unwrap_or_else(|e| panic!("lock {lock}: invalidate {obj}: {e}"));
        }
        node.enter_cs(lock);
    }

    fn unlock(&self, lock: LockId) {
        self.assert_no_live_views("unlock");
        // Publish the clock before the service hands the lock on —
        // the next acquirer must join everything done in this CS.
        if let Some(d) = &self.analyze {
            d.on_lock_release(self.me, lock);
        }
        self.locks
            .release(lock, &self.ctx, |ts| self.node.lock().exit_cs(lock, ts));
    }

    fn charge_compute(&self, ops: u64) {
        let d = self.ctx.cpu.compute(ops);
        self.ctx.clock.advance(d);
        self.ctx.stats.charge(TimeCategory::Compute, d);
    }

    fn charge_access_checks(&self, n: u64) {
        self.node.lock().charge_checks(n);
    }

    fn stats(&self) -> &NodeStats {
        &self.ctx.stats
    }

    fn traffic(&self) -> &TrafficStats {
        &self.ctx.traffic
    }
}

impl Dsm {
    /// Group several accesses into one pinning scope — the equivalent
    /// of the multi-operand statement `a[5] = b[5] + c[5]` of §3.3:
    /// every object touched inside stays mapped until the scope ends.
    /// View guards open the same kind of scope implicitly.
    pub fn statement(&self) -> StmtGuard<'_> {
        self.node.lock().enter_stmt();
        StmtGuard { dsm: self }
    }

    /// Fallible [`DsmApi::barrier`].
    pub fn try_barrier(&self) -> Result<(), LotsError> {
        self.assert_no_live_views("barrier");
        let entered = self.barriers_entered.get() + 1;
        self.barriers_entered.set(entered);
        if self.fault_barrier == Some(entered) {
            panic!(
                "fault injection: node {} killed entering barrier {entered}",
                self.me
            );
        }
        // Stamp the detector before the rendezvous: the node that
        // completes the barrier must see every earlier node's clock.
        if let Some(d) = &self.analyze {
            d.on_barrier_enter(self.me);
        }
        // Phase A: collect notices plus the interval's staged frees
        // and named allocations, and receive the plan.
        let (notices, frees, named) = {
            let mut node = self.node.lock();
            let notices = node.barrier_collect()?;
            let (frees, named) = node.take_lifecycle();
            (notices, frees, named)
        };
        let plan = self.barrier.enter(&self.ctx, notices, frees, named);
        // Phase B: propagate diffs of multi-writer objects to homes.
        self.node
            .lock()
            .barrier_prepare(&plan.send_diffs, self.me)?;
        let sends: Vec<(ObjectId, NodeId)> = plan.my_sends(self.me).collect();
        for &(obj, home) in &sends {
            let (payload, ts) = {
                let node = self.node.lock();
                (node.cached_diff(obj).encode(), node.release_ts_of(obj))
            };
            let tx = self.net.send(
                home,
                Msg::DiffSend { obj, ts },
                payload,
                self.ctx.clock.now(),
            );
            self.ctx.clock.advance_to(tx.sender_free);
        }
        let mut pending = sends.len();
        while pending > 0 {
            let env = self.recv_reply();
            match env.msg {
                Msg::DiffAck { .. } => {
                    let before = self.ctx.clock.now();
                    let now = self.ctx.clock.advance_to(env.arrival);
                    self.ctx
                        .stats
                        .charge(TimeCategory::Network, now.saturating_sub(before));
                    pending -= 1;
                }
                other => panic!("unexpected message during barrier: {other:?}"),
            }
        }
        // Phase C: drain, then apply migrations/invalidations, reclaim
        // the freed set, and commit named allocations.
        let seq = self.barrier.drain(&self.ctx);
        self.node
            .lock()
            .barrier_finish(&plan.written, &plan.freed, &plan.named, seq)?;
        // Persistence: journal the interval just published (before the
        // crash-fault check below — the paper's crash model dies right
        // *after* a completed barrier, so that barrier's records are on
        // the log the rejoin reads back).
        self.journal_barrier(&plan.written, seq)?;
        // Only after the full rendezvous: the exit clock joins every
        // node's enter stamp, starting a fresh interval.
        if let Some(d) = &self.analyze {
            d.on_barrier_exit(self.me);
        }
        if self
            .crash_fault
            .as_ref()
            .is_some_and(|c| c.at_barrier == entered)
        {
            self.crash_rejoin_now()?;
        }
        Ok(())
    }

    /// Fault injection: the node dies right after completing the chosen
    /// barrier and comes back through the rejoin protocol. State moves
    /// per [`NodeState::crash_rejoin`]; this wrapper charges the reboot
    /// outage and the analytic directory/image rebuild transfer (the
    /// same modeling style as the lock/barrier control plane) and
    /// surfaces the rejoin counters.
    fn crash_rejoin_now(&self) -> Result<(), LotsError> {
        let fault = self.crash_fault.as_ref().expect("checked by caller");
        let summary = self.node.lock().crash_rejoin()?;
        // The outage: the node is simply gone while it reboots.
        self.ctx.clock.advance(fault.reboot);
        self.ctx.stats.charge(TimeCategory::SyncWait, fault.reboot);
        // With the journal on, the node rebuilds its home-owned
        // masters from its own checkpointed log — a local blocking
        // disk read — and peers only re-send the directory/name table
        // plus the deltas appended after the checkpoint. Without it,
        // peers re-send the full master images (the PR-era protocol).
        let peer_bytes = match &self.journal {
            Some(journal) => {
                let (log_bytes, since) = {
                    let j = journal.lock();
                    (j.log_bytes_at_checkpoint(), j.log_bytes_since_checkpoint())
                };
                if log_bytes > 0 {
                    self.node.lock().persist_read_blocking(log_bytes);
                    self.ctx.stats.count_rejoin_log_bytes(log_bytes);
                }
                summary.directory_bytes + since
            }
            None => summary.directory_bytes + summary.master_bytes,
        };
        let d = self.ctx.net.request_reply(64, peer_bytes as usize);
        self.ctx.clock.advance(d);
        self.ctx.stats.charge(TimeCategory::Network, d);
        self.ctx.traffic.record_send(64, 1);
        self.ctx.traffic.record_recv(peer_bytes as usize);
        self.ctx.stats.count_rejoin(peer_bytes);
        Ok(())
    }

    /// Persistence hook, run after every completed barrier: snapshot
    /// the post-barrier directory, name table and written home-owned
    /// masters, append one deterministic record batch to the node's
    /// journal, and book the bytes on the node's serial disk device as
    /// a write-behind batch — the application never stalls on journal
    /// I/O.
    fn journal_barrier(&self, written: &[(ObjectId, NodeId)], seq: u64) -> Result<(), LotsError> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        let mut j = journal.lock();
        let mut node = self.node.lock();
        let input = lots_persist::BarrierInput {
            seq,
            clock_nanos: self.ctx.clock.now().nanos(),
            live: node.persist_live_meta(),
            names: node.persist_names(),
            written_home: node.persist_written_content(written)?,
            extents: if j.checkpoint_due(seq) {
                node.persist_extents()
            } else {
                Vec::new()
            },
        };
        let out = j.append_barrier(input);
        node.persist_book_log_write(&out.write_sizes);
        self.ctx.stats.count_log_append(out.records, out.bytes);
        if out.checkpoint_bytes > 0 {
            self.ctx.stats.count_checkpoint(out.checkpoint_bytes);
        }
        if out.replayed {
            self.ctx.stats.count_restore_replay_barrier();
        }
        Ok(())
    }

    /// Event-only barrier (`run_barrier()`, §3.6): no memory effects.
    ///
    /// Deliberately invisible to the race detector: the paper defines
    /// it as a pure rendezvous with no memory semantics, so it orders
    /// *events*, not accesses — treating it as a happens-before edge
    /// would hide real ScC races.
    pub fn run_barrier(&self) {
        self.barrier.run_barrier(&self.ctx);
    }

    /// Bytes of shared objects registered (cluster-wide logical size).
    pub fn total_object_bytes(&self) -> u64 {
        self.node.lock().total_object_bytes()
    }

    /// Current home node of an object (tests/diagnostics; homes move
    /// at barriers under the migrating-home protocol).
    pub fn object_home(&self, id: ObjectId) -> NodeId {
        self.node.lock().home_of(id)
    }

    /// Is the local copy of `id` usable without a remote fetch?
    pub fn object_locally_valid(&self, id: ObjectId) -> bool {
        self.node.lock().ctl(id).locally_valid()
    }

    /// Is `id` currently mapped in this node's DMM area?
    pub fn object_mapped(&self, id: ObjectId) -> bool {
        self.node.lock().ctl(id).offset().is_some()
    }

    /// Bytes currently held by this node's backing store — the actual
    /// (post-compression) store-resident size.
    pub fn swapped_bytes(&self) -> u64 {
        self.node.lock().swapped_bytes()
    }

    /// Snapshot and cross-check the node's swap accounting (resident
    /// vs swapped vs materialized bytes, including the cumulative
    /// free/dematerialization counters); panics if the incremental
    /// counters drifted from the mapping states.
    pub fn swap_accounting(&self) -> crate::node::SwapAccounting {
        self.node.lock().swap_accounting()
    }

    /// Fragmentation snapshot of this node's DMM allocator (free
    /// bytes, largest hole, external-fragmentation ratio).
    pub fn frag_stats(&self) -> crate::alloc::FragStats {
        self.node.lock().frag_stats()
    }

    /// Object-table slots on this node (live + tombstoned + reusable).
    /// Bounded by the peak working set under alloc/free churn, however
    /// large the cumulative allocation history grows — the control-
    /// space half of address reuse.
    pub fn object_slots(&self) -> usize {
        self.node.lock().object_count()
    }

    fn assert_no_live_views(&self, what: &str) {
        assert_eq!(
            self.live_views.get(),
            0,
            "{what} while view guards are live — drop views before synchronizing"
        );
    }

    /// Panic (fence-style) if any live guard covers `obj`.
    fn assert_no_views_of(&self, obj: ObjectId, what: &str) {
        assert!(
            !self.view_spans.borrow().iter().any(|s| s.obj == obj.0),
            "{what} of {obj} while a view guard over it is live — drop it first"
        );
    }

    /// Reject an access to `obj`'s byte `range` that conflicts with a
    /// live guard: a write may not overlap any view, a read may not
    /// overlap a mutable view (the buffered snapshot would go stale or
    /// clobber the access on write-back).
    fn check_view_conflict(&self, obj: ObjectId, range: &Range<usize>, write: bool) {
        if self.live_views.get() == 0 {
            return;
        }
        for s in self.view_spans.borrow().iter() {
            if s.obj == obj.0 && s.start < range.end && range.start < s.end && (write || s.mutable)
            {
                panic!(
                    "{} bytes {}..{} of {obj} overlap a live {} view ({}..{}) — drop it first",
                    if write { "write to" } else { "read of" },
                    range.start,
                    range.end,
                    if s.mutable { "mutable" } else { "read" },
                    s.start,
                    s.end
                );
            }
        }
    }

    /// Record an application access with the race detector. A no-op
    /// branch when analysis is off; never advances virtual time.
    ///
    /// Reads of **striped** objects are not recorded: a striped read
    /// pins the segment versions published at the last barrier (the
    /// snapshot the writer can no longer touch), so a concurrent
    /// in-flight write is not a data race — the reader provably sees
    /// the pre-write version. Writes are still recorded: two writers
    /// hitting one segment in the same interval race exactly as they
    /// would on an unstriped object.
    fn analyze_access(&self, obj: ObjectId, range: &Range<usize>, write: bool, striped: bool) {
        if striped && !write {
            return;
        }
        if let Some(d) = &self.analyze {
            d.on_access(self.me, obj.0, range.start as u64, range.end as u64, write);
        }
    }

    /// Register a live guard's span (after conflict checking it).
    fn register_view_span(
        &self,
        obj: ObjectId,
        range: &Range<usize>,
        mutable: bool,
        striped: bool,
    ) -> Option<u64> {
        if range.is_empty() {
            return None;
        }
        self.check_view_conflict(obj, range, mutable);
        // A guard is one logical access over its whole span: mutable
        // views count as writes, read views as reads.
        self.analyze_access(obj, range, mutable, striped);
        let token = self.view_token.get();
        self.view_token.set(token + 1);
        self.view_spans.borrow_mut().push(ViewSpan {
            token,
            obj: obj.0,
            start: range.start,
            end: range.end,
            mutable,
        });
        Some(token)
    }

    /// Stage a named allocation, recording whether the placement was an
    /// explicit `*_placed` choice (explicit placements override the
    /// striping config's per-segment default).
    fn stage_named_req<T: Pod>(
        &self,
        name: &str,
        len: usize,
        placement: Placement,
        placement_explicit: bool,
    ) -> Result<(), LotsError> {
        if len == 0 {
            return Err(LotsError::EmptyAlloc);
        }
        self.node.lock().stage_named(NamedAllocReq {
            name: name.to_string(),
            bytes: len * T::SIZE,
            elem_size: T::SIZE,
            len,
            placement,
            placement_explicit,
        })
    }

    /// Number of segments backing `id`: the stripe-child count of a
    /// striped object, `1` for an ordinary single-home object
    /// (tests/diagnostics).
    pub fn segment_count(&self, id: ObjectId) -> usize {
        self.node
            .lock()
            .stripe_of(id)
            .map_or(1, |s| s.children.len())
    }

    /// Current home of every segment of `id`, in segment order — a
    /// one-element vector for unstriped objects (tests/diagnostics;
    /// homes move at barriers under the migrating-home protocol).
    pub fn segment_homes(&self, id: ObjectId) -> Vec<NodeId> {
        let node = self.node.lock();
        match node.stripe_of(id) {
            Some(s) => {
                let children = s.children.clone();
                children
                    .into_iter()
                    .map(|c| node.home_of(ObjectId(c)))
                    .collect()
            }
            None => vec![node.home_of(id)],
        }
    }

    // ------------------------------------------------------------------
    // Access plumbing
    // ------------------------------------------------------------------

    /// Run `f` over byte range `bytes` of object `id` once the access
    /// check passes, fetching whatever the range needs from its home —
    /// or, for a striped object, from every covered segment's home in
    /// one parallel fan-out. `f` sees exactly the range's bytes
    /// (`bytes.len()` long), not the whole object.
    pub(crate) fn with_range<R>(
        &self,
        id: ObjectId,
        bytes: Range<usize>,
        write: bool,
        checks: u64,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, LotsError> {
        let mut f = Some(f);
        let mut checks = checks;
        loop {
            let fetches = {
                let mut node = self.node.lock();
                match node.begin_access_range(id, &bytes, write, checks)? {
                    RangeAccess::Ready { offset } => {
                        let g = f.take().expect("with_range resolves at most once");
                        let from = offset + bytes.start;
                        return Ok(g(node.object_bytes_mut(from, bytes.len())));
                    }
                    RangeAccess::Striped => {
                        let g = f.take().expect("with_range resolves at most once");
                        return Ok(node.striped_range_run(id, &bytes, write, g));
                    }
                    RangeAccess::Fetch(list) => list,
                }
            };
            self.fetch_objects(&fetches)?;
            // The retry re-runs the (now cheap) check once, as the real
            // system would on returning from the miss handler.
            checks = 1;
        }
    }

    /// Fetch clean copies of several objects through the data plane in
    /// one round: all requests leave now (the NIC pipelines the tiny
    /// request headers), and the replies — served by *distinct* homes
    /// for a striped range — overlap in flight. The caller's clock
    /// advances to the last arrival, so a range striped over `k` homes
    /// pays roughly one segment's transfer time, not `k` of them.
    fn fetch_objects(&self, targets: &[(ObjectId, NodeId)]) -> Result<(), LotsError> {
        let t0 = self.ctx.clock.now();
        for &(id, target) in targets {
            assert_ne!(target, self.me, "fetch from self implies corrupted state");
            self.net
                .send(target, Msg::ObjReq { obj: id }, Bytes::new(), t0);
        }
        let mut pending = targets.len();
        while pending > 0 {
            let env = self.recv_reply();
            match env.msg {
                Msg::ObjReply { obj, version } if targets.iter().any(|&(id, _)| id == obj) => {
                    let before = self.ctx.clock.now();
                    let now = self.ctx.clock.advance_to(env.arrival);
                    self.ctx
                        .stats
                        .charge(TimeCategory::Network, now.saturating_sub(before));
                    self.node.lock().install_fetch(obj, &env.payload, version)?;
                    pending -= 1;
                }
                other => panic!("unexpected reply while fetching {targets:?}: {other:?}"),
            }
        }
        Ok(())
    }

    fn recv_reply(&self) -> Envelope<Msg> {
        crate::harness::recv_reply(&self.replies, &self.ctx.sched)
    }
}

/// RAII pin scope returned by [`Dsm::statement`].
pub struct StmtGuard<'d> {
    dsm: &'d Dsm,
}

impl Drop for StmtGuard<'_> {
    fn drop(&mut self) {
        self.dsm.node.lock().exit_stmt();
    }
}

/// A typed handle on a LOTS shared object — the paper's `Pointer<T>`.
///
/// All access methods live on the [`DsmSlice`] trait; the inherent
/// surface only exposes the LOTS object identity.
pub struct SharedSlice<'d, T: Pod> {
    dsm: &'d Dsm,
    id: ObjectId,
    base: usize,
    len: usize,
    /// Whether the object is striped (cached at handle creation; drives
    /// the snapshot-read exemption in the race detector).
    striped: bool,
    _pd: PhantomData<T>,
}

impl<T: Pod> Clone for SharedSlice<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Pod> Copy for SharedSlice<'_, T> {}

impl<T: Pod> SharedSlice<'_, T> {
    /// The object's cluster-wide ID.
    pub fn id(&self) -> ObjectId {
        self.id
    }
}

impl<'d, T: Pod> DsmSlice for SharedSlice<'d, T> {
    type Elem = T;
    type Error = LotsError;
    type View<'g>
        = ObjView<'g, T>
    where
        Self: 'g;
    type ViewMut<'g>
        = ObjViewMut<'g, T>
    where
        Self: 'g;

    fn len(&self) -> usize {
        self.len
    }

    fn offset(&self, delta: usize) -> Self {
        assert!(delta <= self.len, "pointer arithmetic out of bounds");
        SharedSlice {
            base: self.base + delta,
            len: self.len - delta,
            ..*self
        }
    }

    fn prefix(&self, len: usize) -> Self {
        assert!(len <= self.len, "pointer arithmetic out of bounds");
        SharedSlice { len, ..*self }
    }

    fn try_view_checked(
        &self,
        range: Range<usize>,
        checks: u64,
    ) -> Result<ObjView<'_, T>, LotsError> {
        range_bounds(self, self.len, &range);
        let bytes = (self.base + range.start) * T::SIZE..(self.base + range.end) * T::SIZE;
        let mut view = ObjView {
            pin: ViewPin::new(self.dsm, self.id, bytes.clone(), false, self.striped),
            data: Vec::new(),
        };
        if !range.is_empty() {
            let n = range.len();
            view.data = self.dsm.with_range(self.id, bytes, false, checks, |b| {
                (0..n).map(|k| T::read_from(&b[k * T::SIZE..])).collect()
            })?;
        }
        Ok(view)
    }

    // Element and bulk ops: the trait defaults (guard-based) are
    // semantically right but allocate a buffer per call; these direct
    // overrides keep the §4.2 fast path at one table lookup, exactly
    // like the seed's element-wise implementation.

    fn try_read(&self, i: usize) -> Result<T, LotsError> {
        element_bounds(self, self.len, i);
        let at = (self.base + i) * T::SIZE;
        self.dsm
            .check_view_conflict(self.id, &(at..at + T::SIZE), false);
        self.dsm
            .analyze_access(self.id, &(at..at + T::SIZE), false, self.striped);
        self.dsm
            .with_range(self.id, at..at + T::SIZE, false, 1, |b| T::read_from(b))
    }

    fn try_write(&self, i: usize, v: T) -> Result<(), LotsError> {
        element_bounds(self, self.len, i);
        let at = (self.base + i) * T::SIZE;
        self.dsm
            .check_view_conflict(self.id, &(at..at + T::SIZE), true);
        self.dsm
            .analyze_access(self.id, &(at..at + T::SIZE), true, self.striped);
        self.dsm
            .with_range(self.id, at..at + T::SIZE, true, 1, |b| v.write_to(b))
    }

    fn try_update(&self, i: usize, f: impl FnOnce(T) -> T) -> Result<(), LotsError> {
        element_bounds(self, self.len, i);
        let at = (self.base + i) * T::SIZE;
        self.dsm
            .check_view_conflict(self.id, &(at..at + T::SIZE), true);
        self.dsm
            .analyze_access(self.id, &(at..at + T::SIZE), true, self.striped);
        self.dsm
            .with_range(self.id, at..at + T::SIZE, true, 2, |b| {
                let v = f(T::read_from(b));
                v.write_to(b);
            })
    }

    fn try_read_into(&self, start: usize, out: &mut [T]) -> Result<(), LotsError> {
        if out.is_empty() {
            return Ok(());
        }
        range_bounds(self, self.len, &(start..start + out.len()));
        let at = (self.base + start) * T::SIZE;
        let span = at..at + out.len() * T::SIZE;
        self.dsm.check_view_conflict(self.id, &span, false);
        self.dsm.analyze_access(self.id, &span, false, self.striped);
        self.dsm
            .with_range(self.id, span, false, out.len() as u64, |b| {
                for (k, slot) in out.iter_mut().enumerate() {
                    *slot = T::read_from(&b[k * T::SIZE..]);
                }
            })
    }

    fn try_write_from(&self, start: usize, vals: &[T]) -> Result<(), LotsError> {
        if vals.is_empty() {
            return Ok(());
        }
        range_bounds(self, self.len, &(start..start + vals.len()));
        let at = (self.base + start) * T::SIZE;
        let span = at..at + vals.len() * T::SIZE;
        self.dsm.check_view_conflict(self.id, &span, true);
        self.dsm.analyze_access(self.id, &span, true, self.striped);
        self.dsm
            .with_range(self.id, span, true, vals.len() as u64, |b| {
                for (k, v) in vals.iter().enumerate() {
                    v.write_to(&mut b[k * T::SIZE..]);
                }
            })
    }

    fn try_view_mut_checked(
        &self,
        range: Range<usize>,
        checks: u64,
    ) -> Result<ObjViewMut<'_, T>, LotsError> {
        range_bounds(self, self.len, &range);
        let bytes = (self.base + range.start) * T::SIZE..(self.base + range.end) * T::SIZE;
        let mut view = ObjViewMut {
            pin: ViewPin::new(self.dsm, self.id, bytes.clone(), true, self.striped),
            id: self.id,
            at: bytes.start,
            data: Vec::new(),
        };
        if !range.is_empty() {
            let n = range.len();
            // The write access runs the check, resolves a miss, creates
            // the twin and marks the object dirty once, up front; the
            // guard's write-back then costs nothing extra.
            view.data = self.dsm.with_range(self.id, bytes, true, checks, |b| {
                (0..n).map(|k| T::read_from(&b[k * T::SIZE..])).collect()
            })?;
        }
        Ok(view)
    }
}

impl<T: Pod> std::fmt::Debug for SharedSlice<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SharedSlice({}, base {}, len {})",
            self.id, self.base, self.len
        )
    }
}

/// Shared bookkeeping of both guard types: a statement pin scope, the
/// guard's registered byte span, and the live-view count that sync
/// operations assert on.
struct ViewPin<'d> {
    dsm: &'d Dsm,
    token: Option<u64>,
}

impl<'d> ViewPin<'d> {
    fn new(
        dsm: &'d Dsm,
        obj: ObjectId,
        bytes: Range<usize>,
        mutable: bool,
        striped: bool,
    ) -> ViewPin<'d> {
        let token = dsm.register_view_span(obj, &bytes, mutable, striped);
        dsm.node.lock().enter_stmt();
        dsm.live_views.set(dsm.live_views.get() + 1);
        ViewPin { dsm, token }
    }
}

impl Drop for ViewPin<'_> {
    fn drop(&mut self) {
        if let Some(token) = self.token {
            self.dsm
                .view_spans
                .borrow_mut()
                .retain(|s| s.token != token);
        }
        self.dsm.node.lock().exit_stmt();
        self.dsm.live_views.set(self.dsm.live_views.get() - 1);
    }
}

/// Read view guard over a LOTS object (returned by
/// [`DsmSlice::view`]): the access check and any miss handling ran
/// once at creation, and the object stays pinned in the DMM area until
/// the guard drops.
pub struct ObjView<'d, T: Pod> {
    pin: ViewPin<'d>,
    data: Vec<T>,
}

impl<T: Pod> Deref for ObjView<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        let _ = &self.pin;
        &self.data
    }
}

/// Mutable view guard over a LOTS object (returned by
/// [`DsmSlice::view_mut`]): one access check at creation, the object
/// pinned for the guard's lifetime, and the buffered elements written
/// back to the shared object on drop.
pub struct ObjViewMut<'d, T: Pod> {
    pin: ViewPin<'d>,
    id: ObjectId,
    at: usize,
    data: Vec<T>,
}

impl<T: Pod> Deref for ObjViewMut<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T: Pod> DerefMut for ObjViewMut<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T: Pod> Drop for ObjViewMut<'_, T> {
    fn drop(&mut self) {
        if self.data.is_empty() {
            return;
        }
        let data = std::mem::take(&mut self.data);
        let span = self.at..self.at + data.len() * T::SIZE;
        // Zero further checks: the check ran at guard creation, and the
        // pin guarantees the object is still mapped.
        self.pin
            .dsm
            .with_range(self.id, span, true, 0, |b| {
                for (k, v) in data.iter().enumerate() {
                    v.write_to(&mut b[k * T::SIZE..]);
                }
            })
            .unwrap_or_else(|e| panic!("view_mut write-back of {}: {e}", self.id));
    }
}
