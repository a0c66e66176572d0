//! The traced run: a delegating [`DsmApi`]/[`DsmSlice`] wrapper that
//! records one span per API call from outside the DSM.
//!
//! Every method forwards to the same method of the wrapped handle, so
//! the wrapped system executes exactly the calls it would execute
//! untraced. The wrapper only reads the node's virtual clock
//! ([`DsmApi::now`], a pure read) and the host clock around each call,
//! which keeps the run byte-neutral: checksums, virtual times and
//! counters equal the untraced run's (the self-tests and `run.py`
//! both check this).
//!
//! Spans cover the calls that resolve data or synchronize: barrier,
//! lock/unlock (one kind, `lock`), alloc (plain, placed, named and
//! chunked), free, lookup, and the opening of a view guard (`view`,
//! `view_mut`). Element operations (`read`, `write`, `update`, the
//! bulk element copies and the raw checked-view primitives) are
//! counted, not spanned.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::io::Write;
use std::ops::Range;
use std::time::Instant;

use lots_core::{DsmApi, DsmSlice, LockId, Placement, Pod};
use lots_net::{NodeId, TrafficStats};
use lots_sim::{NodeStats, SimInstant};

/// What an API span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `barrier`.
    Barrier,
    /// `lock` and `unlock`.
    Lock,
    /// Every allocation entry point.
    Alloc,
    /// `free`.
    Free,
    /// `lookup` of a named object.
    Lookup,
    /// Opening a read view guard.
    View,
    /// Opening a write view guard.
    ViewMut,
}

/// Every span kind, in report order.
pub const KINDS: [Kind; 7] = [
    Kind::Barrier,
    Kind::Lock,
    Kind::Alloc,
    Kind::Free,
    Kind::Lookup,
    Kind::View,
    Kind::ViewMut,
];

impl Kind {
    /// Name used in metric keys (`core.<name>.*`) and the span file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Barrier => "barrier",
            Kind::Lock => "lock",
            Kind::Alloc => "alloc",
            Kind::Free => "free",
            Kind::Lookup => "lookup",
            Kind::View => "view",
            Kind::ViewMut => "view_mut",
        }
    }
}

/// One recorded API call. Its parent is the node's kernel span, whose
/// id is the node rank.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the call was.
    pub kind: Kind,
    /// Virtual start on the calling node, in ns.
    pub virt_start: u64,
    /// Virtual end on the calling node, in ns.
    pub virt_end: u64,
    /// Host start, in ns since the instance's epoch.
    pub host_start: u64,
    /// Host end, in ns since the instance's epoch.
    pub host_end: u64,
}

impl Span {
    /// Virtual duration in ns.
    pub fn virt_ns(&self) -> u64 {
        self.virt_end - self.virt_start
    }
}

/// Everything one node's traced kernel recorded.
#[derive(Debug, Clone)]
pub struct NodeTrace {
    /// Node rank (also the id of the kernel span).
    pub node: NodeId,
    /// The kernel span: virtual start/end (ns).
    pub kernel_virt: (u64, u64),
    /// The kernel span: host start/end (ns since the epoch).
    pub kernel_host: (u64, u64),
    /// API spans, in call order; each one's parent is the kernel span.
    pub spans: Vec<Span>,
    /// Element operations counted (not spanned).
    pub elem_ops: u64,
}

/// Per-node span sink.
struct Recorder {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    elem_ops: Cell<u64>,
}

impl Recorder {
    fn host_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn span<D: DsmApi, R>(&self, dsm: &D, kind: Kind, f: impl FnOnce() -> R) -> R {
        let (virt_start, host_start) = (dsm.now().0, self.host_ns());
        let r = f();
        let (virt_end, host_end) = (dsm.now().0, self.host_ns());
        self.spans.borrow_mut().push(Span {
            kind,
            virt_start,
            virt_end,
            host_start,
            host_end,
        });
        r
    }

    fn count(&self) {
        self.elem_ops.set(self.elem_ops.get() + 1);
    }
}

/// A traced node handle: delegates every call to `dsm`.
pub struct Traced<'a, D: DsmApi> {
    dsm: &'a D,
    rec: Recorder,
    kernel_virt_start: u64,
    kernel_host_start: u64,
}

impl<'a, D: DsmApi> Traced<'a, D> {
    /// Open the node's kernel span. `epoch` is the instance-wide host
    /// time origin.
    pub fn new(dsm: &'a D, epoch: Instant) -> Traced<'a, D> {
        let rec = Recorder {
            epoch,
            spans: RefCell::new(Vec::new()),
            elem_ops: Cell::new(0),
        };
        let kernel_host_start = rec.host_ns();
        Traced {
            dsm,
            kernel_virt_start: dsm.now().0,
            kernel_host_start,
            rec,
        }
    }

    /// Close the kernel span and hand over the node's records.
    pub fn finish(self) -> NodeTrace {
        NodeTrace {
            node: self.dsm.me(),
            kernel_virt: (self.kernel_virt_start, self.dsm.now().0),
            kernel_host: (self.kernel_host_start, self.rec.host_ns()),
            spans: self.rec.spans.into_inner(),
            elem_ops: self.rec.elem_ops.get(),
        }
    }

    fn wrap<'s, T: Pod>(&'s self, inner: D::Slice<'s, T>) -> TSlice<'s, D, T> {
        TSlice {
            inner,
            dsm: self.dsm,
            rec: &self.rec,
        }
    }

    fn span<R>(&self, kind: Kind, f: impl FnOnce() -> R) -> R {
        self.rec.span(self.dsm, kind, f)
    }
}

/// A traced shared-array handle.
pub struct TSlice<'d, D: DsmApi + 'd, T: Pod> {
    inner: D::Slice<'d, T>,
    dsm: &'d D,
    rec: &'d Recorder,
}

impl<'d, D: DsmApi + 'd, T: Pod> Clone for TSlice<'d, D, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'d, D: DsmApi + 'd, T: Pod> Copy for TSlice<'d, D, T> {}

impl<'d, D: DsmApi + 'd, T: Pod> fmt::Debug for TSlice<'d, D, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.inner, f)
    }
}

impl<'d, D: DsmApi + 'd, T: Pod> TSlice<'d, D, T> {
    fn with(&self, inner: D::Slice<'d, T>) -> Self {
        TSlice { inner, ..*self }
    }

    fn span<R>(&self, kind: Kind, f: impl FnOnce() -> R) -> R {
        self.rec.span(self.dsm, kind, f)
    }
}

impl<'d, D: DsmApi + 'd, T: Pod> DsmSlice for TSlice<'d, D, T> {
    type Elem = T;
    type Error = D::Error;
    type View<'g>
        = <D::Slice<'d, T> as DsmSlice>::View<'g>
    where
        Self: 'g;
    type ViewMut<'g>
        = <D::Slice<'d, T> as DsmSlice>::ViewMut<'g>
    where
        Self: 'g;

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn offset(&self, delta: usize) -> Self {
        self.with(self.inner.offset(delta))
    }

    fn prefix(&self, len: usize) -> Self {
        self.with(self.inner.prefix(len))
    }

    fn try_view_checked(
        &self,
        range: Range<usize>,
        checks: u64,
    ) -> Result<Self::View<'_>, D::Error> {
        self.rec.count();
        self.inner.try_view_checked(range, checks)
    }

    fn try_view_mut_checked(
        &self,
        range: Range<usize>,
        checks: u64,
    ) -> Result<Self::ViewMut<'_>, D::Error> {
        self.rec.count();
        self.inner.try_view_mut_checked(range, checks)
    }

    fn view(&self, range: Range<usize>) -> Self::View<'_> {
        self.span(Kind::View, || self.inner.view(range))
    }

    fn try_view(&self, range: Range<usize>) -> Result<Self::View<'_>, D::Error> {
        self.span(Kind::View, || self.inner.try_view(range))
    }

    fn view_mut(&self, range: Range<usize>) -> Self::ViewMut<'_> {
        self.span(Kind::ViewMut, || self.inner.view_mut(range))
    }

    fn try_view_mut(&self, range: Range<usize>) -> Result<Self::ViewMut<'_>, D::Error> {
        self.span(Kind::ViewMut, || self.inner.try_view_mut(range))
    }

    fn read(&self, i: usize) -> T {
        self.rec.count();
        self.inner.read(i)
    }

    fn try_read(&self, i: usize) -> Result<T, D::Error> {
        self.rec.count();
        self.inner.try_read(i)
    }

    fn write(&self, i: usize, v: T) {
        self.rec.count();
        self.inner.write(i, v)
    }

    fn try_write(&self, i: usize, v: T) -> Result<(), D::Error> {
        self.rec.count();
        self.inner.try_write(i, v)
    }

    fn update(&self, i: usize, f: impl FnOnce(T) -> T) {
        self.rec.count();
        self.inner.update(i, f)
    }

    fn try_update(&self, i: usize, f: impl FnOnce(T) -> T) -> Result<(), D::Error> {
        self.rec.count();
        self.inner.try_update(i, f)
    }

    fn read_into(&self, start: usize, out: &mut [T]) {
        self.rec.count();
        self.inner.read_into(start, out)
    }

    fn try_read_into(&self, start: usize, out: &mut [T]) -> Result<(), D::Error> {
        self.rec.count();
        self.inner.try_read_into(start, out)
    }

    fn read_vec(&self, start: usize, len: usize) -> Vec<T> {
        self.rec.count();
        self.inner.read_vec(start, len)
    }

    fn write_from(&self, start: usize, vals: &[T]) {
        self.rec.count();
        self.inner.write_from(start, vals)
    }

    fn try_write_from(&self, start: usize, vals: &[T]) -> Result<(), D::Error> {
        self.rec.count();
        self.inner.try_write_from(start, vals)
    }

    fn fill(&self, v: T) {
        self.rec.count();
        self.inner.fill(v)
    }
}

impl<'a, D: DsmApi> DsmApi for Traced<'a, D> {
    type Error = D::Error;
    type Slice<'d, T: Pod>
        = TSlice<'d, D, T>
    where
        Self: 'd;

    fn me(&self) -> NodeId {
        self.dsm.me()
    }

    fn n(&self) -> usize {
        self.dsm.n()
    }

    fn now(&self) -> SimInstant {
        self.dsm.now()
    }

    fn seed(&self) -> u64 {
        self.dsm.seed()
    }

    fn try_alloc<T: Pod>(&self, len: usize) -> Result<TSlice<'_, D, T>, D::Error> {
        let s = self.span(Kind::Alloc, || self.dsm.try_alloc::<T>(len))?;
        Ok(self.wrap(s))
    }

    fn alloc<T: Pod>(&self, len: usize) -> TSlice<'_, D, T> {
        let s = self.span(Kind::Alloc, || self.dsm.alloc::<T>(len));
        self.wrap(s)
    }

    fn try_alloc_placed<T: Pod>(
        &self,
        len: usize,
        placement: Placement,
    ) -> Result<TSlice<'_, D, T>, D::Error> {
        let s = self.span(Kind::Alloc, || {
            self.dsm.try_alloc_placed::<T>(len, placement)
        })?;
        Ok(self.wrap(s))
    }

    fn alloc_placed<T: Pod>(&self, len: usize, placement: Placement) -> TSlice<'_, D, T> {
        let s = self.span(Kind::Alloc, || self.dsm.alloc_placed::<T>(len, placement));
        self.wrap(s)
    }

    fn try_free<T: Pod>(&self, slice: TSlice<'_, D, T>) -> Result<(), D::Error> {
        self.span(Kind::Free, || self.dsm.try_free(slice.inner))
    }

    fn free<T: Pod>(&self, slice: TSlice<'_, D, T>) {
        self.span(Kind::Free, || self.dsm.free(slice.inner))
    }

    fn try_alloc_named<T: Pod>(&self, name: &str, len: usize) -> Result<(), D::Error> {
        self.span(Kind::Alloc, || self.dsm.try_alloc_named::<T>(name, len))
    }

    fn alloc_named<T: Pod>(&self, name: &str, len: usize) {
        self.span(Kind::Alloc, || self.dsm.alloc_named::<T>(name, len))
    }

    fn try_alloc_named_placed<T: Pod>(
        &self,
        name: &str,
        len: usize,
        placement: Placement,
    ) -> Result<(), D::Error> {
        self.span(Kind::Alloc, || {
            self.dsm.try_alloc_named_placed::<T>(name, len, placement)
        })
    }

    fn alloc_named_placed<T: Pod>(&self, name: &str, len: usize, placement: Placement) {
        self.span(Kind::Alloc, || {
            self.dsm.alloc_named_placed::<T>(name, len, placement)
        })
    }

    fn try_lookup<T: Pod>(&self, name: &str) -> Result<TSlice<'_, D, T>, D::Error> {
        let s = self.span(Kind::Lookup, || self.dsm.try_lookup::<T>(name))?;
        Ok(self.wrap(s))
    }

    fn lookup<T: Pod>(&self, name: &str) -> TSlice<'_, D, T> {
        let s = self.span(Kind::Lookup, || self.dsm.lookup::<T>(name));
        self.wrap(s)
    }

    fn try_alloc_chunks<T: Pod>(
        &self,
        chunks: usize,
        chunk_len: usize,
    ) -> Result<Vec<TSlice<'_, D, T>>, D::Error> {
        let parts = self.span(Kind::Alloc, || {
            self.dsm.try_alloc_chunks::<T>(chunks, chunk_len)
        })?;
        Ok(parts.into_iter().map(|s| self.wrap(s)).collect())
    }

    fn alloc_chunks<T: Pod>(&self, chunks: usize, chunk_len: usize) -> Vec<TSlice<'_, D, T>> {
        let parts = self.span(Kind::Alloc, || {
            self.dsm.alloc_chunks::<T>(chunks, chunk_len)
        });
        parts.into_iter().map(|s| self.wrap(s)).collect()
    }

    fn barrier(&self) {
        self.span(Kind::Barrier, || self.dsm.barrier())
    }

    fn lock(&self, lock: LockId) {
        self.span(Kind::Lock, || self.dsm.lock(lock))
    }

    fn unlock(&self, lock: LockId) {
        self.span(Kind::Lock, || self.dsm.unlock(lock))
    }

    fn charge_compute(&self, ops: u64) {
        self.dsm.charge_compute(ops)
    }

    fn charge_access_checks(&self, n: u64) {
        self.dsm.charge_access_checks(n)
    }

    fn stats(&self) -> &NodeStats {
        self.dsm.stats()
    }

    fn traffic(&self) -> &TrafficStats {
        self.dsm.traffic()
    }
}

/// Virtual-time distribution of one span kind across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KindStats {
    /// Spans recorded.
    pub count: u64,
    /// Median virtual duration, µs.
    pub p50_us: f64,
    /// Virtual duration at the tail percentile, µs.
    pub tail_us: f64,
    /// The tail percentile: the highest of p99.99/p99.9/p99/p90/p50
    /// with at least ten samples ranked beyond it (100 — the maximum —
    /// when even p50 has fewer than ten beyond it).
    pub tail_pct: f64,
    /// Samples ranked beyond the tail percentile.
    pub tail_beyond: u64,
    /// Summed virtual duration over all spans, s.
    pub total_s: f64,
}

/// Nearest-rank percentile of sorted `v`: the value at rank
/// `ceil(pct/100 · N)`, and how many samples rank beyond it.
fn nearest_rank(v: &[u64], pct: f64) -> (u64, u64) {
    let n = v.len();
    let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (v[rank - 1], (n - rank) as u64)
}

/// Distribution of `durations` (virtual ns).
pub fn kind_stats(mut durations: Vec<u64>) -> KindStats {
    if durations.is_empty() {
        return KindStats::default();
    }
    durations.sort_unstable();
    let total: u64 = durations.iter().sum();
    let (p50, _) = nearest_rank(&durations, 50.0);
    let (tail, tail_pct, tail_beyond) = [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .map(|pct| {
            let (v, beyond) = nearest_rank(&durations, pct);
            (v, pct, beyond)
        })
        .find(|&(_, _, beyond)| beyond >= 10)
        .unwrap_or((*durations.last().unwrap(), 100.0, 0));
    KindStats {
        count: durations.len() as u64,
        p50_us: p50 as f64 / 1e3,
        tail_us: tail as f64 / 1e3,
        tail_pct,
        tail_beyond,
        total_s: total as f64 / 1e9,
    }
}

/// Write every span of `traces` as tab-separated lines (one header),
/// node-major in call order.
pub fn write_spans(out: &mut impl Write, traces: &[NodeTrace]) -> std::io::Result<()> {
    writeln!(
        out,
        "name\tnode\tparent\tvirt_start_ns\tvirt_end_ns\thost_start_ns\thost_end_ns"
    )?;
    for t in traces {
        let (vs, ve) = t.kernel_virt;
        let (hs, he) = t.kernel_host;
        writeln!(out, "kernel\t{}\t-\t{vs}\t{ve}\t{hs}\t{he}", t.node)?;
        for s in &t.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.kind.name(),
                t.node,
                t.node,
                s.virt_start,
                s.virt_end,
                s.host_start,
                s.host_end
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        let s = kind_stats((1..=1000).collect());
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50_us, 0.5);
        // p99.9 leaves one sample beyond, p99 leaves ten.
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail_beyond, 10);
        assert_eq!(s.tail_us, 0.99);
    }

    #[test]
    fn small_samples_fall_back_to_the_maximum() {
        let s = kind_stats(vec![5, 1, 3]);
        assert_eq!((s.tail_pct, s.tail_beyond, s.tail_us), (100.0, 0, 0.005));
        assert_eq!(kind_stats(Vec::new()), KindStats::default());
    }
}
