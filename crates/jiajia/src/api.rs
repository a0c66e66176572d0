//! Application-facing JIAJIA API: the same [`DsmApi`]/[`DsmSlice`]
//! traits the LOTS system implements, so the paper's workloads run
//! unchanged on both systems (§4.1).
//!
//! Accounting differences from LOTS are captured inside the trait
//! impl: JIAJIA runs no per-access software check (page protection
//! hardware does the work), so `charge_access_checks` is a no-op and
//! view guards charge page faults only on actual misses. The flat
//! address space is captured by the `alloc_chunks` override: chunks of
//! one allocation are consecutive ranges of shared pages, so chunks
//! that are not page-multiples share pages — the false sharing §4.1
//! analyses in LU.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut, Range};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::Receiver;
use lots_analyze::RaceDetector;
use lots_core::api::{element_bounds, range_bounds};
use lots_core::consistency::SyncCtx;
use lots_core::pod::Pod;
use lots_core::{DsmApi, DsmSlice, NamedAllocReq, Placement};
use lots_net::{Envelope, NetSender, NodeId, TrafficStats, WireSize};
use lots_sim::{NodeStats, SimInstant, TimeCategory};
use parking_lot::Mutex;

use crate::node::{JiaError, JiaNode, PageAccess};
use crate::services::{JiaBarrier, JiaLocks};

/// Data-plane messages between JIAJIA nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JMsg {
    /// Fault-service request for one page.
    PageReq {
        /// Page number.
        page: u32,
    },
    /// Home's reply carrying the page bytes.
    PageReply {
        /// Page number.
        page: u32,
        /// Barrier epoch of the served copy.
        version: u64,
    },
    /// A flushed interval diff for a non-home page.
    DiffSend {
        /// Page number.
        page: u32,
    },
    /// Home's acknowledgement of an applied diff.
    DiffAck {
        /// Page number.
        page: u32,
    },
}

impl WireSize for JMsg {
    fn wire_size(&self) -> usize {
        match self {
            JMsg::PageReq { .. } => 2 + 4,
            JMsg::PageReply { .. } => 2 + 4 + 8,
            JMsg::DiffSend { .. } => 2 + 4,
            JMsg::DiffAck { .. } => 2 + 4,
        }
    }
}

/// One node's handle on the JIAJIA shared space.
pub struct JiaDsm {
    pub(crate) ctx: SyncCtx,
    pub(crate) node: Arc<Mutex<JiaNode>>,
    pub(crate) net: NetSender<JMsg>,
    pub(crate) replies: Receiver<Envelope<JMsg>>,
    pub(crate) barrier: Arc<JiaBarrier>,
    pub(crate) locks: Arc<JiaLocks>,
    pub(crate) me: NodeId,
    pub(crate) n: usize,
    /// Cluster seed surfaced through [`DsmApi::seed`].
    pub(crate) seed: u64,
    /// Fault injection: panic on entering this (1-based) barrier.
    pub(crate) fault_barrier: Option<u64>,
    /// Barriers this node has entered (drives `fault_barrier`).
    pub(crate) barriers_entered: Cell<u64>,
    /// Live view guards; synchronization ops assert this is zero.
    pub(crate) live_views: Cell<u32>,
    /// Byte spans of live non-empty guards (flat shared addresses),
    /// used to reject conflicting overlapping accesses — the
    /// stale-snapshot/lost-update hazard of buffered guards.
    pub(crate) view_spans: RefCell<Vec<ViewSpan>>,
    /// Token source for [`ViewSpan`] registration.
    pub(crate) view_token: Cell<u64>,
    /// ScC race detector, shared cluster-wide when analysis is on
    /// (see [`lots_analyze::AnalyzeConfig`]). Race objects on the
    /// JIAJIA side are *pages*: accesses are split on page bounds.
    pub(crate) analyze: Option<Arc<RaceDetector>>,
    /// Persistence journal (`Some` iff [`crate::Jia::persist`]
    /// is set): appended after every barrier, pages as objects.
    pub(crate) journal: Option<Arc<Mutex<lots_persist::NodeJournal>>>,
}

/// One live guard's byte extent in the flat shared space.
pub(crate) struct ViewSpan {
    token: u64,
    start: usize,
    end: usize,
    mutable: bool,
}

impl DsmApi for JiaDsm {
    type Error = JiaError;
    type Slice<'d, T: Pod> = JiaSlice<'d, T>;

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

    /// `jia_alloc`: allocate a shared array of `len` elements.
    fn try_alloc<T: Pod>(&self, len: usize) -> Result<JiaSlice<'_, T>, JiaError> {
        if len == 0 {
            return Err(JiaError::EmptyAlloc);
        }
        let addr = self.node.lock().jia_alloc(len * T::SIZE)?;
        Ok(JiaSlice {
            dsm: self,
            addr,
            len,
            _pd: PhantomData,
        })
    }

    /// `jia_alloc` with an explicit page placement ([`Placement`]
    /// drives the per-page home assignment of §4.1).
    fn try_alloc_placed<T: Pod>(
        &self,
        len: usize,
        placement: Placement,
    ) -> Result<JiaSlice<'_, T>, JiaError> {
        if len == 0 {
            return Err(JiaError::EmptyAlloc);
        }
        let addr = self
            .node
            .lock()
            .jia_alloc_placed(len * T::SIZE, placement)?;
        Ok(JiaSlice {
            dsm: self,
            addr,
            len,
            _pd: PhantomData,
        })
    }

    /// Page-granular free: tombstones the allocation's pages
    /// immediately and reclaims the range cluster-wide at the next
    /// barrier.
    fn try_free<T: Pod>(&self, slice: JiaSlice<'_, T>) -> Result<(), JiaError> {
        self.assert_no_views_over(slice.addr, slice.len * T::SIZE, "free");
        self.node.lock().free_alloc(slice.addr, slice.len * T::SIZE)
    }

    fn try_alloc_named<T: Pod>(&self, name: &str, len: usize) -> Result<(), JiaError> {
        let placement = self.node.lock().default_placement;
        self.try_alloc_named_placed::<T>(name, len, placement)
    }

    fn try_alloc_named_placed<T: Pod>(
        &self,
        name: &str,
        len: usize,
        placement: Placement,
    ) -> Result<(), JiaError> {
        if len == 0 {
            return Err(JiaError::EmptyAlloc);
        }
        self.node.lock().stage_named(NamedAllocReq {
            name: name.to_string(),
            bytes: len * T::SIZE,
            elem_size: T::SIZE,
            len,
            placement,
            // JIAJIA has no striping config to override; the flag only
            // matters to the LOTS segment-placement logic.
            placement_explicit: true,
        })
    }

    fn try_lookup<T: Pod>(&self, name: &str) -> Result<JiaSlice<'_, T>, JiaError> {
        let (addr, len) = self.node.lock().lookup_named(name, T::SIZE)?;
        Ok(JiaSlice {
            dsm: self,
            addr,
            len,
            _pd: PhantomData,
        })
    }

    /// One flat allocation carved into `chunks` consecutive ranges —
    /// real JIAJIA has no object granularity, so chunks share pages
    /// wherever `chunk_len` is not a page multiple.
    fn try_alloc_chunks<T: Pod>(
        &self,
        chunks: usize,
        chunk_len: usize,
    ) -> Result<Vec<JiaSlice<'_, T>>, JiaError> {
        if chunks == 0 || chunk_len == 0 {
            return Err(JiaError::EmptyAlloc);
        }
        let flat = self.try_alloc::<T>(chunks * chunk_len)?;
        Ok((0..chunks)
            .map(|c| flat.offset(c * chunk_len).prefix(chunk_len))
            .collect())
    }

    /// Global barrier: flush diffs to homes, exchange write notices,
    /// invalidate written pages.
    fn barrier(&self) {
        self.assert_no_live_views("barrier");
        let entered = self.barriers_entered.get() + 1;
        self.barriers_entered.set(entered);
        if self.fault_barrier == Some(entered) {
            panic!(
                "fault injection: node {} killed entering barrier {entered}",
                self.me
            );
        }
        let (diffs, notices) = self.node.lock().flush_dirty();
        self.flush_diffs(diffs);
        let (frees, named) = self.node.lock().take_lifecycle();
        // Stamp the detector before the rendezvous: the node that
        // completes the barrier must see every earlier node's clock.
        if let Some(d) = &self.analyze {
            d.on_barrier_enter(self.me);
        }
        let round = self.barrier.enter(&self.ctx, notices, frees, named);
        let mut node = self.node.lock();
        // First-touch placement resolves before invalidation, so the
        // new home keeps its (authoritative) copy.
        node.resolve_pending_homes(&round.written);
        // A page stays valid at its sole writer (it holds the newest
        // data); everyone else — including the writers of a falsely
        // shared page — must refetch from the home.
        let stale: Vec<u32> = round
            .written
            .iter()
            .filter(|n| n.multi || n.writer != self.me)
            .map(|n| n.page)
            .collect();
        node.invalidate(&stale, round.seq);
        // Version bookkeeping for pages this node kept.
        let kept: Vec<u32> = round
            .written
            .iter()
            .filter(|n| !n.multi && n.writer == self.me)
            .map(|n| n.page)
            .collect();
        node.bump_versions(&kept, round.seq);
        // Reclaim the cluster-agreed freed ranges and commit the named
        // allocations (deterministic order on every node).
        node.finish_lifecycle(&round.freed, &round.named, round.seq);
        drop(node);
        // Journal the completed interval (diffs of home-owned written
        // pages, lifecycle records, checkpoint manifest when due).
        self.journal_barrier(&round.written, round.seq);
        // Only after the full rendezvous: the exit clock joins every
        // node's enter stamp, starting a fresh interval.
        if let Some(d) = &self.analyze {
            d.on_barrier_exit(self.me);
        }
    }

    /// Acquire a lock, invalidating pages its notices name.
    fn lock(&self, lock: u32) {
        self.assert_no_live_views("lock");
        let invalidate = self.locks.acquire(lock, &self.ctx);
        // Happens-before edge lands only once the grant is actually
        // held, so a racing acquirer can't observe it early.
        if let Some(d) = &self.analyze {
            d.on_lock_acquire(self.me, lock);
        }
        // Version bump is barrier-scoped; locks just invalidate.
        self.node.lock().invalidate(&invalidate, 0);
    }

    /// Release a lock: flush this interval's diffs to homes and attach
    /// the write notices to the lock.
    fn unlock(&self, lock: u32) {
        self.assert_no_live_views("unlock");
        let (diffs, notices) = self.node.lock().flush_dirty();
        self.flush_diffs(diffs);
        // Publish the clock before the service hands the lock on —
        // the next acquirer must join everything done in this CS.
        if let Some(d) = &self.analyze {
            d.on_lock_release(self.me, lock);
        }
        self.locks.release(lock, &self.ctx, notices);
    }

    fn charge_compute(&self, ops: u64) {
        let d = self.ctx.cpu.compute(ops);
        self.ctx.clock.advance(d);
        self.ctx.stats.charge(TimeCategory::Compute, d);
    }

    /// No-op: a page-based system runs no software access check —
    /// §4.1's "factor 2" overhead exists only on the object side.
    fn charge_access_checks(&self, _n: u64) {}

    fn stats(&self) -> &NodeStats {
        &self.ctx.stats
    }

    fn traffic(&self) -> &TrafficStats {
        &self.ctx.traffic
    }
}

impl JiaDsm {
    fn assert_no_live_views(&self, what: &str) {
        assert_eq!(
            self.live_views.get(),
            0,
            "{what} while view guards are live — drop views before synchronizing"
        );
    }

    /// Panic (fence-style) if any live guard overlaps
    /// `[addr, addr + len)`.
    fn assert_no_views_over(&self, addr: usize, len: usize, what: &str) {
        assert!(
            !self
                .view_spans
                .borrow()
                .iter()
                .any(|s| s.start < addr + len && addr < s.end),
            "{what} of shared bytes {addr:#x}..{:#x} while a view guard over them \
             is live — drop it first",
            addr + len
        );
    }

    /// Reject an access to shared bytes `range` conflicting with a
    /// live guard: a write may not overlap any view, a read may not
    /// overlap a mutable view (the buffered snapshot would go stale or
    /// clobber the access on write-back).
    fn check_view_conflict(&self, range: &Range<usize>, write: bool) {
        if self.live_views.get() == 0 {
            return;
        }
        for s in self.view_spans.borrow().iter() {
            if s.start < range.end && range.start < s.end && (write || s.mutable) {
                panic!(
                    "{} shared bytes {:#x}..{:#x} overlap a live {} view ({:#x}..{:#x}) — drop it first",
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

    /// Register a live guard's span (after conflict checking it).
    fn register_view_span(&self, range: &Range<usize>, mutable: bool) -> Option<u64> {
        if range.is_empty() {
            return None;
        }
        self.check_view_conflict(range, mutable);
        let token = self.view_token.get();
        self.view_token.set(token + 1);
        self.view_spans.borrow_mut().push(ViewSpan {
            token,
            start: range.start,
            end: range.end,
            mutable,
        });
        Some(token)
    }

    /// Append one completed barrier interval to the persistence
    /// journal (no-op when the journal is off). Lock order matches the
    /// compaction daemon: journal first, then node.
    fn journal_barrier(&self, written: &[crate::services::PageNotice], seq: u64) {
        let Some(journal) = &self.journal else {
            return;
        };
        let mut j = journal.lock();
        let mut node = self.node.lock();
        let input = lots_persist::BarrierInput {
            seq,
            clock_nanos: self.ctx.clock.now().nanos(),
            live: node.persist_live_meta(),
            names: node.persist_names(),
            written_home: node.persist_written_content(written),
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
    }

    fn flush_diffs(&self, diffs: Vec<(u32, lots_core::WordDiff)>) {
        let mut pending = 0usize;
        for (page, diff) in diffs {
            let home = self.node.lock().page_home(page as usize);
            debug_assert_ne!(home, self.me);
            let tx = self.net.send(
                home,
                JMsg::DiffSend { page },
                diff.encode(),
                self.ctx.clock.now(),
            );
            self.ctx.clock.advance_to(tx.sender_free);
            pending += 1;
        }
        while pending > 0 {
            let env = self.recv_reply();
            match env.msg {
                JMsg::DiffAck { .. } => {
                    let before = self.ctx.clock.now();
                    let now = self.ctx.clock.advance_to(env.arrival);
                    self.ctx
                        .stats
                        .charge(TimeCategory::Network, now.saturating_sub(before));
                    pending -= 1;
                }
                other => panic!("unexpected message during flush: {other:?}"),
            }
        }
    }

    /// Access orchestration: fault in pages until the range is usable.
    pub(crate) fn with_range<R>(
        &self,
        addr: usize,
        len: usize,
        write: bool,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> R {
        // Race objects are pages here (the system's coherence unit):
        // split the flat range on page bounds, one record per page.
        if let Some(d) = &self.analyze {
            for (page, off, chunk) in crate::page::split_range(addr, len) {
                d.on_access(
                    self.me,
                    page as u32,
                    off as u64,
                    (off + chunk) as u64,
                    write,
                );
            }
        }
        loop {
            let (page, home) = {
                let mut node = self.node.lock();
                let access = if write {
                    node.begin_write(addr, len)
                } else {
                    node.begin_read(addr, len)
                };
                match access {
                    PageAccess::Ready => return f(node.bytes_mut(addr, len)),
                    PageAccess::NeedFetch { page, home } => (page, home),
                }
            };
            self.fetch_page(page, home);
        }
    }

    /// Fetch one page from its home (one fault service round trip).
    fn fetch_page(&self, page: usize, home: NodeId) {
        self.net.send(
            home,
            JMsg::PageReq { page: page as u32 },
            Bytes::new(),
            self.ctx.clock.now(),
        );
        let env = self.recv_reply();
        match env.msg {
            JMsg::PageReply { page, version } => {
                let before = self.ctx.clock.now();
                let now = self.ctx.clock.advance_to(env.arrival);
                self.ctx
                    .stats
                    .charge(TimeCategory::Network, now.saturating_sub(before));
                self.node
                    .lock()
                    .install_page(page as usize, &env.payload, version);
            }
            other => panic!("unexpected reply while fetching page: {other:?}"),
        }
    }

    fn recv_reply(&self) -> Envelope<JMsg> {
        lots_core::harness::recv_reply(&self.replies, &self.ctx.sched)
    }
}

/// A typed handle on a JIAJIA shared array (flat addresses — ordinary
/// pointers in real JIAJIA). All access methods live on the
/// [`DsmSlice`] trait.
pub struct JiaSlice<'d, T: Pod> {
    dsm: &'d JiaDsm,
    addr: usize,
    len: usize,
    _pd: PhantomData<T>,
}

impl<T: Pod> Clone for JiaSlice<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Pod> Copy for JiaSlice<'_, T> {}

impl<T: Pod> JiaSlice<'_, T> {
    /// Byte address of element 0 (diagnostics; shows page alignment).
    pub fn addr(&self) -> usize {
        self.addr
    }
}

impl<'d, T: Pod> DsmSlice for JiaSlice<'d, T> {
    type Elem = T;
    type Error = JiaError;
    type View<'g>
        = PageView<'g, T>
    where
        Self: 'g;
    type ViewMut<'g>
        = PageViewMut<'g, T>
    where
        Self: 'g;

    fn len(&self) -> usize {
        self.len
    }

    fn offset(&self, delta: usize) -> Self {
        assert!(delta <= self.len, "pointer arithmetic out of bounds");
        JiaSlice {
            addr: self.addr + delta * T::SIZE,
            len: self.len - delta,
            ..*self
        }
    }

    fn prefix(&self, len: usize) -> Self {
        assert!(len <= self.len, "pointer arithmetic out of bounds");
        JiaSlice { len, ..*self }
    }

    fn try_view_checked(
        &self,
        range: Range<usize>,
        _checks: u64,
    ) -> Result<PageView<'_, T>, JiaError> {
        range_bounds(self, self.len, &range);
        let bytes = self.addr + range.start * T::SIZE..self.addr + range.end * T::SIZE;
        let mut view = PageView {
            pin: JiaViewPin::new(self.dsm, bytes, false),
            data: Vec::new(),
        };
        if !range.is_empty() {
            let addr = self.addr + range.start * T::SIZE;
            let n = range.len();
            view.data = self.dsm.with_range(addr, n * T::SIZE, false, |b| {
                (0..n).map(|k| T::read_from(&b[k * T::SIZE..])).collect()
            });
        }
        Ok(view)
    }

    // Direct element/bulk overrides, mirroring the LOTS impl: keep the
    // hot path free of per-call buffer allocation.

    fn try_read(&self, i: usize) -> Result<T, JiaError> {
        element_bounds(self, self.len, i);
        let at = self.addr + i * T::SIZE;
        self.dsm.check_view_conflict(&(at..at + T::SIZE), false);
        Ok(self.dsm.with_range(at, T::SIZE, false, |b| T::read_from(b)))
    }

    fn try_write(&self, i: usize, v: T) -> Result<(), JiaError> {
        element_bounds(self, self.len, i);
        let at = self.addr + i * T::SIZE;
        self.dsm.check_view_conflict(&(at..at + T::SIZE), true);
        self.dsm.with_range(at, T::SIZE, true, |b| v.write_to(b));
        Ok(())
    }

    fn try_update(&self, i: usize, f: impl FnOnce(T) -> T) -> Result<(), JiaError> {
        element_bounds(self, self.len, i);
        let at = self.addr + i * T::SIZE;
        self.dsm.check_view_conflict(&(at..at + T::SIZE), true);
        self.dsm
            .with_range(at, T::SIZE, true, |b| f(T::read_from(b)).write_to(b));
        Ok(())
    }

    fn try_read_into(&self, start: usize, out: &mut [T]) -> Result<(), JiaError> {
        if out.is_empty() {
            return Ok(());
        }
        range_bounds(self, self.len, &(start..start + out.len()));
        let at = self.addr + start * T::SIZE;
        self.dsm
            .check_view_conflict(&(at..at + out.len() * T::SIZE), false);
        self.dsm.with_range(
            self.addr + start * T::SIZE,
            out.len() * T::SIZE,
            false,
            |b| {
                for (k, slot) in out.iter_mut().enumerate() {
                    *slot = T::read_from(&b[k * T::SIZE..]);
                }
            },
        );
        Ok(())
    }

    fn try_write_from(&self, start: usize, vals: &[T]) -> Result<(), JiaError> {
        if vals.is_empty() {
            return Ok(());
        }
        range_bounds(self, self.len, &(start..start + vals.len()));
        let at = self.addr + start * T::SIZE;
        self.dsm
            .check_view_conflict(&(at..at + vals.len() * T::SIZE), true);
        self.dsm.with_range(
            self.addr + start * T::SIZE,
            vals.len() * T::SIZE,
            true,
            |b| {
                for (k, v) in vals.iter().enumerate() {
                    v.write_to(&mut b[k * T::SIZE..]);
                }
            },
        );
        Ok(())
    }

    fn try_view_mut_checked(
        &self,
        range: Range<usize>,
        _checks: u64,
    ) -> Result<PageViewMut<'_, T>, JiaError> {
        range_bounds(self, self.len, &range);
        let bytes = self.addr + range.start * T::SIZE..self.addr + range.end * T::SIZE;
        let mut view = PageViewMut {
            pin: JiaViewPin::new(self.dsm, bytes, true),
            addr: self.addr + range.start * T::SIZE,
            data: Vec::new(),
        };
        if !range.is_empty() {
            let addr = view.addr;
            let n = range.len();
            // The write walk faults pages in and twins them once, up
            // front; the guard's write-back then costs nothing extra.
            view.data = self.dsm.with_range(addr, n * T::SIZE, true, |b| {
                (0..n).map(|k| T::read_from(&b[k * T::SIZE..])).collect()
            });
        }
        Ok(view)
    }
}

impl<T: Pod> std::fmt::Debug for JiaSlice<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JiaSlice(addr {:#x}, len {})", self.addr, self.len)
    }
}

/// Live-view bookkeeping shared by both guard types.
struct JiaViewPin<'d> {
    dsm: &'d JiaDsm,
    token: Option<u64>,
}

impl<'d> JiaViewPin<'d> {
    fn new(dsm: &'d JiaDsm, bytes: Range<usize>, mutable: bool) -> JiaViewPin<'d> {
        let token = dsm.register_view_span(&bytes, mutable);
        dsm.live_views.set(dsm.live_views.get() + 1);
        JiaViewPin { dsm, token }
    }
}

impl Drop for JiaViewPin<'_> {
    fn drop(&mut self) {
        if let Some(token) = self.token {
            self.dsm
                .view_spans
                .borrow_mut()
                .retain(|s| s.token != token);
        }
        self.dsm.live_views.set(self.dsm.live_views.get() - 1);
    }
}

/// Read view guard over JIAJIA pages (returned by [`DsmSlice::view`]):
/// the page-fault walk ran once at creation.
pub struct PageView<'d, T: Pod> {
    pin: JiaViewPin<'d>,
    data: Vec<T>,
}

impl<T: Pod> Deref for PageView<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        let _ = &self.pin;
        &self.data
    }
}

/// Mutable view guard over JIAJIA pages (returned by
/// [`DsmSlice::view_mut`]): pages faulted and twinned once at
/// creation, buffered elements written back on drop.
pub struct PageViewMut<'d, T: Pod> {
    pin: JiaViewPin<'d>,
    addr: usize,
    data: Vec<T>,
}

impl<T: Pod> Deref for PageViewMut<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T: Pod> DerefMut for PageViewMut<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T: Pod> Drop for PageViewMut<'_, T> {
    fn drop(&mut self) {
        if self.data.is_empty() {
            return;
        }
        let data = std::mem::take(&mut self.data);
        let addr = self.addr;
        self.pin
            .dsm
            .with_range(addr, data.len() * T::SIZE, true, |b| {
                for (k, v) in data.iter().enumerate() {
                    v.write_to(&mut b[k * T::SIZE..]);
                }
            });
    }
}
