//! Per-node state of the JIAJIA baseline: the shared-space mirror,
//! page cache, twins and diff bookkeeping — plus the page-granular
//! object lifecycle (free-list allocation, free/reclaim, the
//! replicated name directory) mirroring the LOTS surface.

use std::collections::{BTreeMap, HashMap};

use lots_core::diff::WordDiff;
use lots_core::{NamedAllocReq, Placement};
use lots_net::NodeId;
use lots_sim::{CpuModel, DiskModel, DiskQueue, NodeStats, SimClock, SimDuration, TimeCategory};

use crate::page::{page_base, split_range, PageCtl, PageState, PAGE_BYTES};

/// Errors surfaced to applications.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JiaError {
    /// JIAJIA's shared space is bounded (128 MB in v1.1, §2): the
    /// "application too large to fit" failure mode LOTS removes.
    OutOfSharedMemory {
        /// Bytes the failed allocation needed.
        requested: usize,
        /// Total shared-space bytes.
        limit: usize,
    },
    /// Zero-length allocation: shared arrays must hold at least one
    /// element.
    EmptyAlloc,
    /// Access through a handle to a freed allocation — the lifecycle
    /// analogue of the view-guard fences.
    UseAfterFree {
        /// Base address of the freed allocation.
        addr: usize,
    },
    /// `free` called with a handle that does not cover one whole
    /// original allocation.
    BadFree {
        /// Address the handle points at.
        addr: usize,
        /// What was wrong with the handle.
        reason: String,
    },
    /// `lookup` of a name with no committed directory entry.
    NameNotFound {
        /// The looked-up name.
        name: String,
    },
    /// Typed `lookup::<T>` with the wrong element size.
    NameTypeMismatch {
        /// The looked-up name.
        name: String,
        /// Element size recorded in the directory.
        expected: usize,
        /// Element size of the requested `T`.
        actual: usize,
    },
    /// `alloc_named` with a name already in the directory or staged.
    DuplicateName {
        /// The conflicting name.
        name: String,
    },
    /// `Placement::Fixed` naming a node outside the cluster — rejected
    /// deterministically at allocation (or staging) time, before any
    /// free-list or directory state changes.
    BadPlacement {
        /// The out-of-range node the placement asked for.
        requested: NodeId,
        /// Cluster size (valid nodes are `0..n`).
        n: usize,
    },
}

impl std::fmt::Display for JiaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JiaError::OutOfSharedMemory { requested, limit } => write!(
                f,
                "jia_alloc of {requested} bytes exceeds the {limit}-byte shared space"
            ),
            JiaError::EmptyAlloc => write!(f, "cannot allocate an empty shared array"),
            JiaError::UseAfterFree { addr } => write!(
                f,
                "use after free: allocation at {addr:#x} was freed — handles to it \
                 are fenced off like the view-guard fences"
            ),
            JiaError::BadFree { addr, reason } => {
                write!(f, "free of allocation at {addr:#x} rejected: {reason}")
            }
            JiaError::NameNotFound { name } => write!(
                f,
                "no committed object named {name:?} (named allocations materialize \
                 at the next barrier)"
            ),
            JiaError::NameTypeMismatch {
                name,
                expected,
                actual,
            } => write!(
                f,
                "object {name:?} holds {expected}-byte elements, lookup asked for \
                 {actual}-byte elements"
            ),
            JiaError::DuplicateName { name } => {
                write!(f, "an object named {name:?} already exists")
            }
            JiaError::BadPlacement { requested, n } => write!(
                f,
                "Placement::Fixed({requested}) outside the cluster (valid nodes are 0..{n})"
            ),
        }
    }
}

impl std::error::Error for JiaError {}

/// Result of a page access attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageAccess {
    Ready,
    /// `page` faulted; fetch it from `home` and retry (successive
    /// SIGSEGVs fault a range in one page at a time).
    NeedFetch {
        page: usize,
        home: NodeId,
    },
}

/// One live allocation (page-granular, as `jia_alloc` rounds to
/// pages).
#[derive(Debug, Clone)]
struct JiaAlloc {
    /// Pages covered.
    pages: usize,
    /// Requested byte size (pre-rounding); `free` must match it.
    bytes: usize,
    /// Freed this interval (tombstoned until the barrier reclaims).
    tombstoned: bool,
    /// Directory name, if allocated through `alloc_named`.
    name: Option<String>,
}

/// One replicated name-directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct JiaNamedEntry {
    addr: usize,
    elem_size: usize,
    len: usize,
}

/// Per-node JIAJIA state (behind a mutex, shared with the comm thread).
pub struct JiaNode {
    pub me: NodeId,
    pub n: usize,
    /// Local mirror of the whole shared space.
    mem: Vec<u8>,
    pages: Vec<PageCtl>,
    twins: HashMap<u32, Vec<u8>>,
    /// Pages this node wrote since the last flush.
    dirty: Vec<u32>,
    /// Free page extents: first page → page count (first-fit lowest,
    /// coalesced on reclaim). Every node performs the same allocations
    /// and replays the same barrier-agreed reclamations, so addresses
    /// agree cluster-wide.
    free_pages: BTreeMap<usize, usize>,
    /// Live (and tombstoned) allocations by base address.
    allocs: BTreeMap<usize, JiaAlloc>,
    /// Replicated name directory (changes only at barriers).
    names: HashMap<String, JiaNamedEntry>,
    /// Freed allocations staged this interval: (first page, pages).
    freed_pending: Vec<(u32, u32)>,
    /// Named allocations staged this interval.
    pending_named: Vec<NamedAllocReq>,
    /// Default placement for unadorned allocs.
    pub default_placement: Placement,
    /// Serial local-disk device for the persistence journal. JIAJIA
    /// itself never touches disk (no swap); the device exists only
    /// when the run enables the `lots-persist` journal.
    pub(crate) diskq: Option<DiskQueue>,
    pub clock: SimClock,
    pub stats: NodeStats,
    pub cpu: CpuModel,
}

impl JiaNode {
    pub fn new(
        me: NodeId,
        n: usize,
        shared_bytes: usize,
        cpu: CpuModel,
        clock: SimClock,
        stats: NodeStats,
    ) -> JiaNode {
        assert_eq!(
            shared_bytes % PAGE_BYTES,
            0,
            "shared space is page-granular"
        );
        let n_pages = shared_bytes / PAGE_BYTES;
        JiaNode {
            me,
            n,
            mem: vec![0u8; shared_bytes],
            // Round-robin home allocation on pages (paper §4.1).
            pages: (0..n_pages).map(|p| PageCtl::new(p % n)).collect(),
            twins: HashMap::new(),
            dirty: Vec::new(),
            free_pages: std::iter::once((0, n_pages)).collect(),
            allocs: BTreeMap::new(),
            names: HashMap::new(),
            freed_pending: Vec::new(),
            pending_named: Vec::new(),
            default_placement: Placement::RoundRobin,
            diskq: None,
            clock,
            stats,
            cpu,
        }
    }

    /// Attach the local-disk device the persistence journal books its
    /// I/O on (called once at bootstrap when the journal is enabled).
    pub fn enable_persist_disk(&mut self, model: DiskModel) {
        self.diskq = Some(DiskQueue::new(model));
    }

    fn charge(&self, cat: TimeCategory, d: SimDuration) {
        self.clock.advance(d);
        self.stats.charge(cat, d);
    }

    /// Allocate `bytes` of shared space (JIAJIA's `jia_alloc`) under
    /// the node's default placement. Collective: every node performs
    /// the same allocations, so addresses agree.
    pub fn jia_alloc(&mut self, bytes: usize) -> Result<usize, JiaError> {
        self.jia_alloc_placed(bytes, self.default_placement)
    }

    /// [`JiaNode::jia_alloc`] with an explicit page placement.
    /// First-fit over the free page extents: the lowest-addressed
    /// extent that fits — freed ranges are *reused*, so a cumulative
    /// allocation history far beyond `shared_bytes` fits a fixed
    /// space. `jia_alloc` rounds to pages, so distinct allocations
    /// never share a page (but rows *within* one allocation do — the
    /// false sharing the paper analyses in LU).
    pub fn jia_alloc_placed(
        &mut self,
        bytes: usize,
        placement: Placement,
    ) -> Result<usize, JiaError> {
        self.check_placement(placement)?;
        let limit = self.mem.len();
        let pages = bytes.div_ceil(PAGE_BYTES).max(1);
        let Some(first) = self
            .free_pages
            .iter()
            .find(|&(_, &len)| len >= pages)
            .map(|(&p, _)| p)
        else {
            return Err(JiaError::OutOfSharedMemory {
                requested: bytes,
                limit,
            });
        };
        let extent = self.free_pages.remove(&first).expect("extent exists");
        if extent > pages {
            self.free_pages.insert(first + pages, extent - pages);
        }
        for p in first..first + pages {
            let (home, pending) = match placement {
                Placement::RoundRobin => (p % self.n, false),
                Placement::Fixed(node) => {
                    debug_assert!(node < self.n, "check_placement validated this");
                    (node, false)
                }
                Placement::FirstTouch => (p % self.n, true),
                Placement::ConsistentHash => (
                    (lots_core::node::stripe_hash(p as u32, 0) as usize) % self.n,
                    false,
                ),
            };
            let mut ctl = PageCtl::new(home);
            ctl.pending = pending;
            ctl.version = self.pages[p].version;
            self.pages[p] = ctl;
        }
        self.allocs.insert(
            page_base(first),
            JiaAlloc {
                pages,
                bytes,
                tombstoned: false,
                name: None,
            },
        );
        Ok(page_base(first))
    }

    // ------------------------------------------------------------------
    // Object lifecycle: free, named objects (tombstone → barrier
    // reclamation, page-granular)
    // ------------------------------------------------------------------

    /// Free a live allocation: tombstone its pages immediately (every
    /// further application access panics with the use-after-free
    /// fence) and stage the range for cluster-wide reclamation at the
    /// next barrier.
    pub fn free_alloc(&mut self, addr: usize, bytes: usize) -> Result<(), JiaError> {
        let Some(info) = self.allocs.get(&addr) else {
            return Err(JiaError::BadFree {
                addr,
                reason: "not the base address of a live allocation — free needs \
                         the original allocation handle"
                    .into(),
            });
        };
        if info.tombstoned {
            return Err(JiaError::UseAfterFree { addr });
        }
        if info.bytes != bytes {
            return Err(JiaError::BadFree {
                addr,
                reason: format!(
                    "handle covers {bytes} bytes, the allocation holds {}",
                    info.bytes
                ),
            });
        }
        let pages = info.pages;
        let first = addr / PAGE_BYTES;
        self.allocs.get_mut(&addr).expect("checked").tombstoned = true;
        for p in first..first + pages {
            self.pages[p].freed = true;
            // The tombstone publishes nothing: drop pending diffs.
            self.twins.remove(&(p as u32));
            self.pages[p].twin = false;
        }
        self.dirty
            .retain(|&p| !(first..first + pages).contains(&(p as usize)));
        self.freed_pending.push((first as u32, pages as u32));
        Ok(())
    }

    /// Reject a `Fixed` placement naming a node outside the cluster —
    /// *before* any allocation state changes, so the failure has no
    /// side effects (mirrors `lots_core`'s `BadPlacement`).
    fn check_placement(&self, placement: Placement) -> Result<(), JiaError> {
        match placement {
            Placement::Fixed(node) if node >= self.n => Err(JiaError::BadPlacement {
                requested: node,
                n: self.n,
            }),
            _ => Ok(()),
        }
    }

    /// Stage a named allocation for commit at the next barrier.
    pub fn stage_named(&mut self, req: NamedAllocReq) -> Result<(), JiaError> {
        self.check_placement(req.placement)?;
        if self.names.contains_key(&req.name)
            || self.pending_named.iter().any(|p| p.name == req.name)
        {
            return Err(JiaError::DuplicateName { name: req.name });
        }
        if req.len == 0 {
            return Err(JiaError::EmptyAlloc);
        }
        self.pending_named.push(req);
        Ok(())
    }

    /// Resolve a committed name, checking the recorded element size.
    pub fn lookup_named(&self, name: &str, elem_size: usize) -> Result<(usize, usize), JiaError> {
        let entry = self.names.get(name).ok_or_else(|| JiaError::NameNotFound {
            name: name.to_string(),
        })?;
        if self.allocs.get(&entry.addr).is_none_or(|a| a.tombstoned) {
            return Err(JiaError::UseAfterFree { addr: entry.addr });
        }
        if entry.elem_size != elem_size {
            return Err(JiaError::NameTypeMismatch {
                name: name.to_string(),
                expected: entry.elem_size,
                actual: elem_size,
            });
        }
        Ok((entry.addr, entry.len))
    }

    /// Take the interval's staged frees and named allocations for the
    /// barrier rendezvous.
    pub fn take_lifecycle(&mut self) -> (Vec<(u32, u32)>, Vec<NamedAllocReq>) {
        (
            std::mem::take(&mut self.freed_pending),
            std::mem::take(&mut self.pending_named),
        )
    }

    /// First-touch resolution at barrier exit: a pending page written
    /// this interval is re-homed to its (lowest-ranked) writer when it
    /// had exactly one — safe, because the writer's copy equals the
    /// provisional home's copy once the diff flush is acknowledged.
    /// Multi-writer pending pages keep the provisional home (the diffs
    /// already merged there).
    pub fn resolve_pending_homes(&mut self, written: &[crate::services::PageNotice]) {
        for notice in written {
            let p = notice.page as usize;
            if !self.pages[p].pending || self.pages[p].freed {
                continue;
            }
            if !notice.multi {
                self.pages[p].home = notice.writer;
            }
            self.pages[p].pending = false;
        }
    }

    /// Barrier exit: reclaim the cluster-agreed freed ranges (zero the
    /// pages back to the fresh-allocation state on every node, return
    /// the range to the free list, drop directory entries) and commit
    /// the agreed named allocations in deterministic order.
    pub fn finish_lifecycle(&mut self, freed: &[(u32, u32)], named: &[NamedAllocReq], seq: u64) {
        for &(first, pages) in freed {
            self.reclaim_range(first as usize, pages as usize, seq);
        }
        for req in named {
            assert!(
                !self.names.contains_key(&req.name),
                "named object {:?} committed twice (two nodes staged the same \
                 name in one interval)",
                req.name
            );
            let addr = self
                .jia_alloc_placed(req.bytes, req.placement)
                .unwrap_or_else(|e| panic!("committing named {:?}: {e}", req.name));
            self.allocs.get_mut(&addr).expect("just allocated").name = Some(req.name.clone());
            self.names.insert(
                req.name.clone(),
                JiaNamedEntry {
                    addr,
                    elem_size: req.elem_size,
                    len: req.len,
                },
            );
        }
    }

    /// Reclaim one freed page range: every node resets the pages to
    /// the fresh state (zero bytes, valid, round-robin home at `seq`),
    /// so a reuse starts from a cluster-consistent zero fill.
    fn reclaim_range(&mut self, first: usize, pages: usize, seq: u64) {
        let addr = page_base(first);
        if let Some(info) = self.allocs.remove(&addr) {
            debug_assert_eq!(info.pages, pages, "free range disagrees with allocation");
            if let Some(name) = info.name {
                self.names.remove(&name);
            }
            self.stats.count_object_freed((pages * PAGE_BYTES) as u64);
        }
        for p in first..first + pages {
            self.twins.remove(&(p as u32));
            self.mem[page_base(p)..page_base(p) + PAGE_BYTES].fill(0);
            let mut ctl = PageCtl::new(p % self.n);
            ctl.version = seq;
            self.pages[p] = ctl;
        }
        self.dirty
            .retain(|&p| !(first..first + pages).contains(&(p as usize)));
        // Return the range to the free list, coalescing neighbours.
        let mut start = first;
        let mut len = pages;
        if let Some((&p_off, &p_len)) = self.free_pages.range(..first).next_back() {
            if p_off + p_len == first {
                self.free_pages.remove(&p_off);
                start = p_off;
                len += p_len;
            }
        }
        if let Some(&n_len) = self.free_pages.get(&(first + pages)) {
            self.free_pages.remove(&(first + pages));
            len += n_len;
        }
        self.free_pages.insert(start, len);
    }

    /// Free shared pages (diagnostics; the space a fresh allocation
    /// could still take).
    pub fn free_page_count(&self) -> usize {
        self.free_pages.values().sum()
    }

    /// Live (non-tombstoned) allocations.
    pub fn live_allocs(&self) -> usize {
        self.allocs.values().filter(|a| !a.tombstoned).count()
    }

    /// Panic with the use-after-free fence if any page of
    /// `[addr, addr+len)` is tombstoned.
    fn fence_freed(&self, addr: usize, len: usize) {
        for (page, _, _) in split_range(addr, len) {
            assert!(
                !self.pages[page].freed,
                "use after free: shared bytes {:#x}..{:#x} belong to a freed \
                 allocation — handles to it are fenced off like the view-guard \
                 fences",
                addr,
                addr + len
            );
        }
    }

    /// Begin a read of `[addr, addr+len)`: returns the first page that
    /// needs fetching, if any (the caller fetches and retries).
    pub fn begin_read(&mut self, addr: usize, len: usize) -> PageAccess {
        self.fence_freed(addr, len);
        for (page, _, _) in split_range(addr, len) {
            let ctl = &self.pages[page];
            if ctl.home != self.me && ctl.state == PageState::Invalid {
                // SIGSEGV read fault + handler.
                self.stats.count_page_fault();
                self.charge(TimeCategory::AccessCheck, self.cpu.page_fault);
                return PageAccess::NeedFetch {
                    page,
                    home: ctl.home,
                };
            }
        }
        PageAccess::Ready
    }

    /// Begin a write: like a read, plus twin creation (write fault) on
    /// the first write to each non-home page this interval.
    pub fn begin_write(&mut self, addr: usize, len: usize) -> PageAccess {
        self.fence_freed(addr, len);
        for (page, _, _) in split_range(addr, len) {
            let home = self.pages[page].home;
            if home != self.me && self.pages[page].state == PageState::Invalid {
                self.stats.count_page_fault();
                self.charge(TimeCategory::AccessCheck, self.cpu.page_fault);
                return PageAccess::NeedFetch { page, home };
            }
        }
        for (page, _, _) in split_range(addr, len) {
            let is_home = self.pages[page].home == self.me;
            if !self.pages[page].written {
                self.pages[page].written = true;
                self.dirty.push(page as u32);
            }
            if !is_home && !self.pages[page].twin {
                // Write fault: twin the page before first modification.
                self.stats.count_page_fault();
                self.charge(TimeCategory::AccessCheck, self.cpu.page_fault);
                let base = page_base(page);
                self.twins
                    .insert(page as u32, self.mem[base..base + PAGE_BYTES].to_vec());
                self.pages[page].twin = true;
                self.charge(TimeCategory::Diffing, self.cpu.diffing(PAGE_BYTES as u64));
            }
        }
        PageAccess::Ready
    }

    /// Raw memory access after `begin_read`/`begin_write` returned
    /// `Ready`.
    pub fn bytes(&self, addr: usize, len: usize) -> &[u8] {
        &self.mem[addr..addr + len]
    }

    pub fn bytes_mut(&mut self, addr: usize, len: usize) -> &mut [u8] {
        &mut self.mem[addr..addr + len]
    }

    /// Install a page fetched from its home.
    pub fn install_page(&mut self, page: usize, data: &[u8], version: u64) {
        debug_assert_eq!(data.len(), PAGE_BYTES);
        let base = page_base(page);
        self.mem[base..base + PAGE_BYTES].copy_from_slice(data);
        self.pages[page].state = PageState::Valid;
        self.pages[page].version = version;
    }

    /// Home-side page service (comm thread).
    ///
    /// Senders address by the *cluster-agreed* home; this node's own
    /// table may still lag behind it. Allocation and first-touch
    /// bookkeeping are replayed by each app thread at its own virtual
    /// time, so when this node straggles (e.g. blocked on a
    /// retransmission-delayed fetch), a request for a page it is the
    /// agreed home of can arrive before the local replay runs. The
    /// mirror is still authoritative: reclamation zeroed it at least
    /// one network latency earlier (the freeing barrier's exit), which
    /// the conservative engine wall-orders before this service.
    pub fn serve_page(&mut self, page: usize) -> (Vec<u8>, u64) {
        let base = page_base(page);
        (
            self.mem[base..base + PAGE_BYTES].to_vec(),
            self.pages[page].version,
        )
    }

    /// Home-side diff application (comm thread).
    ///
    /// Like [`JiaNode::serve_page`], the sender addressed the
    /// cluster-agreed home; the local table may not have replayed the
    /// allocation that made this node home yet. Applying the word diff
    /// touches only the mirror, which commutes with that lagging
    /// bookkeeping — the table converges at this node's next replay.
    pub fn apply_remote_diff(&mut self, page: usize, diff: &WordDiff) {
        let base = page_base(page);
        diff.apply(&mut self.mem[base..base + PAGE_BYTES]);
        self.charge(
            TimeCategory::Diffing,
            self.cpu.diffing(diff.changed_words() as u64 * 4),
        );
    }

    /// Take the current dirty set, producing for each non-home page its
    /// diff (to flush to the home) and for each page its write notice.
    /// Twins are consumed; `written` flags reset.
    pub fn flush_dirty(&mut self) -> (Vec<(u32, WordDiff)>, Vec<u32>) {
        let dirty = std::mem::take(&mut self.dirty);
        let mut diffs = Vec::new();
        let mut notices = Vec::with_capacity(dirty.len());
        for page in dirty {
            let p = page as usize;
            notices.push(page);
            self.pages[p].written = false;
            if self.pages[p].home == self.me {
                continue; // home writes are already in place
            }
            let twin = self
                .twins
                .remove(&page)
                .expect("dirty non-home page has twin");
            self.pages[p].twin = false;
            let base = page_base(p);
            let diff = WordDiff::compute(&twin, &self.mem[base..base + PAGE_BYTES]);
            self.charge(TimeCategory::Diffing, self.cpu.diffing(PAGE_BYTES as u64));
            if !diff.is_empty() {
                self.stats.count_diff(diff.wire_size() as u64);
                diffs.push((page, diff));
            }
        }
        (diffs, notices)
    }

    /// Invalidate cached copies of pages written by other nodes
    /// (applied at barrier exit / lock acquire).
    pub fn invalidate(&mut self, pages: &[u32], seq: u64) {
        for &page in pages {
            let p = page as usize;
            if self.pages[p].home == self.me {
                self.pages[p].version = seq;
            } else {
                self.pages[p].state = PageState::Invalid;
            }
        }
    }

    /// Record the barrier epoch on pages whose local copy stayed valid
    /// (this node was the sole writer).
    pub fn bump_versions(&mut self, pages: &[u32], seq: u64) {
        for &page in pages {
            self.pages[page as usize].version = seq;
        }
    }

    // ------------------------------------------------------------------
    // Persistence hooks (journal snapshots + disk booking). Pages play
    // the role LOTS objects play: the journal's "object id" is the
    // page index, its content a whole 4 KB page.
    // ------------------------------------------------------------------

    /// Pages of live (non-tombstoned) allocations as journal metadata.
    pub fn persist_live_meta(&self) -> Vec<lots_persist::ObjMeta> {
        let mut out = Vec::new();
        for (&addr, alloc) in &self.allocs {
            if alloc.tombstoned {
                continue;
            }
            let first = addr / PAGE_BYTES;
            for p in first..first + alloc.pages {
                out.push(lots_persist::ObjMeta {
                    id: p as u32,
                    home: self.pages[p].home as u32,
                    version: self.pages[p].version,
                    bytes: PAGE_BYTES as u64,
                    parent: None,
                });
            }
        }
        out
    }

    /// The replicated name directory as journal metadata (names bind
    /// to their allocation's first page).
    pub fn persist_names(&self) -> Vec<lots_persist::NamedMeta> {
        self.names
            .iter()
            .map(|(name, entry)| lots_persist::NamedMeta {
                name: name.clone(),
                id: (entry.addr / PAGE_BYTES) as u32,
                elem_size: entry.elem_size as u32,
                len: entry.len as u64,
            })
            .collect()
    }

    /// Extent map for checkpoint manifests: the shared space is a flat
    /// always-resident mirror, so every live page is one mapped extent
    /// at its own byte address.
    pub fn persist_extents(&self) -> Vec<lots_persist::Extent> {
        self.persist_live_meta()
            .into_iter()
            .map(|m| lots_persist::Extent {
                id: m.id,
                addr: (m.id as u64) * PAGE_BYTES as u64,
                bytes: PAGE_BYTES as u64,
                mapped: true,
            })
            .collect()
    }

    /// Post-barrier content of this node's home-owned written pages
    /// (the masters the journal makes durable). Must run after the
    /// barrier's home resolution and reclamation.
    pub fn persist_written_content(
        &self,
        written: &[crate::services::PageNotice],
    ) -> Vec<(u32, Vec<u8>)> {
        written
            .iter()
            .filter(|n| {
                let p = n.page as usize;
                self.pages[p].home == self.me && !self.pages[p].freed
            })
            .map(|n| {
                let base = page_base(n.page as usize);
                (n.page, self.mem[base..base + PAGE_BYTES].to_vec())
            })
            .collect()
    }

    /// Book the journal's write-behind batch on the local disk device.
    /// The app keeps running — only later reads queue behind it.
    pub fn persist_book_log_write(&mut self, sizes: &[u64]) {
        if sizes.is_empty() {
            return;
        }
        let now = self.clock.now();
        if let Some(dq) = &mut self.diskq {
            dq.write_batch(now, sizes);
        }
    }

    /// Number of pages in the shared space.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    pub fn page_home(&self, page: usize) -> NodeId {
        self.pages[page].home
    }

    pub fn shared_bytes(&self) -> usize {
        self.mem.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lots_sim::machine::pentium4_2ghz;

    fn node(me: NodeId, n: usize) -> JiaNode {
        JiaNode::new(
            me,
            n,
            64 * PAGE_BYTES,
            pentium4_2ghz(),
            SimClock::new(),
            NodeStats::new(),
        )
    }

    #[test]
    fn homes_round_robin() {
        let n = node(0, 4);
        assert_eq!(n.page_home(0), 0);
        assert_eq!(n.page_home(1), 1);
        assert_eq!(n.page_home(5), 1);
        assert_eq!(n.page_home(7), 3);
    }

    #[test]
    fn alloc_is_page_rounded_and_deterministic() {
        let mut a = node(0, 2);
        let mut b = node(1, 2);
        assert_eq!(a.jia_alloc(100).unwrap(), b.jia_alloc(100).unwrap());
        assert_eq!(a.jia_alloc(5000).unwrap(), 4096);
        assert_eq!(b.jia_alloc(5000).unwrap(), 4096);
        assert_eq!(a.jia_alloc(1).unwrap(), 4096 + 8192);
    }

    #[test]
    fn alloc_limit_enforced() {
        let mut a = node(0, 2);
        assert!(a.jia_alloc(63 * PAGE_BYTES).is_ok());
        assert!(matches!(
            a.jia_alloc(2 * PAGE_BYTES),
            Err(JiaError::OutOfSharedMemory { .. })
        ));
    }

    #[test]
    fn local_write_then_read() {
        let mut n = node(0, 2);
        let addr = n.jia_alloc(8192).unwrap();
        assert_eq!(n.begin_write(addr, 8), PageAccess::Ready);
        n.bytes_mut(addr, 8).copy_from_slice(&7u64.to_le_bytes());
        assert_eq!(n.begin_read(addr, 8), PageAccess::Ready);
        assert_eq!(u64::from_le_bytes(n.bytes(addr, 8).try_into().unwrap()), 7);
    }

    #[test]
    fn non_home_write_creates_twin_and_diff() {
        let mut n = node(1, 2); // page 0's home is node 0
        let addr = n.jia_alloc(4096).unwrap();
        assert_eq!(n.begin_write(addr, 4), PageAccess::Ready);
        n.bytes_mut(addr, 4).copy_from_slice(&5u32.to_le_bytes());
        let (diffs, notices) = n.flush_dirty();
        assert_eq!(notices, vec![0]);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].0, 0);
        let words: Vec<(u32, u32)> = diffs[0].1.iter_words().collect();
        assert_eq!(words, vec![(0, 5)]);
        assert!(n.stats.page_faults() >= 1, "write fault charged");
    }

    #[test]
    fn home_write_produces_notice_but_no_diff() {
        let mut n = node(0, 2);
        let addr = n.jia_alloc(4096).unwrap();
        n.begin_write(addr, 4);
        n.bytes_mut(addr, 4).copy_from_slice(&5u32.to_le_bytes());
        let (diffs, notices) = n.flush_dirty();
        assert!(diffs.is_empty());
        assert_eq!(notices, vec![0]);
    }

    #[test]
    fn invalidation_forces_refetch() {
        let mut n = node(1, 2);
        let addr = n.jia_alloc(4096).unwrap();
        assert_eq!(
            n.begin_read(addr, 4),
            PageAccess::Ready,
            "initially valid zeros"
        );
        n.invalidate(&[0], 1);
        assert_eq!(
            n.begin_read(addr, 4),
            PageAccess::NeedFetch { page: 0, home: 0 }
        );
        n.install_page(0, &vec![9u8; PAGE_BYTES], 1);
        assert_eq!(n.begin_read(addr, 4), PageAccess::Ready);
        assert_eq!(n.bytes(addr, 1)[0], 9);
    }

    #[test]
    fn home_invalidation_just_bumps_version() {
        let mut n = node(0, 2);
        n.invalidate(&[0], 3);
        assert_eq!(
            n.begin_read(0, 4),
            PageAccess::Ready,
            "home copy never invalid"
        );
    }

    #[test]
    fn free_tombstones_pages_then_reclaim_reuses_the_range() {
        let mut n = node(0, 2);
        let a = n.jia_alloc(2 * PAGE_BYTES).unwrap();
        let b = n.jia_alloc(PAGE_BYTES).unwrap();
        assert_eq!(n.begin_write(a, 8), PageAccess::Ready);
        n.bytes_mut(a, 4).copy_from_slice(&7u32.to_le_bytes());
        n.free_alloc(a, 2 * PAGE_BYTES).unwrap();
        // Double free and size mismatch are rejected.
        assert!(matches!(
            n.free_alloc(a, 2 * PAGE_BYTES),
            Err(JiaError::UseAfterFree { .. })
        ));
        assert!(matches!(n.free_alloc(b, 17), Err(JiaError::BadFree { .. })));
        // The freed write never flushes.
        let (diffs, notices) = n.flush_dirty();
        assert!(diffs.is_empty());
        assert!(notices.is_empty(), "freed pages publish nothing");
        let (frees, _) = n.take_lifecycle();
        assert_eq!(frees, vec![(0, 2)]);
        n.finish_lifecycle(&frees, &[], 1);
        assert_eq!(n.bytes(a, 4), &[0, 0, 0, 0], "reclaim zero-fills");
        assert_eq!(n.live_allocs(), 1);
        // Reuse: the next two-page allocation takes the freed range.
        let c = n.jia_alloc(2 * PAGE_BYTES).unwrap();
        assert_eq!(c, a, "lowest freed range is reused first");
    }

    #[test]
    #[should_panic(expected = "use after free")]
    fn tombstoned_page_access_is_fenced() {
        let mut n = node(0, 2);
        let a = n.jia_alloc(PAGE_BYTES).unwrap();
        n.free_alloc(a, PAGE_BYTES).unwrap();
        let _ = n.begin_read(a, 4);
    }

    #[test]
    fn named_commit_lookup_and_free() {
        let mut n = node(0, 2);
        n.stage_named(NamedAllocReq {
            name: "grid".into(),
            bytes: 64,
            elem_size: 4,
            len: 16,
            placement: Placement::RoundRobin,
            placement_explicit: false,
        })
        .unwrap();
        assert!(matches!(
            n.lookup_named("grid", 4),
            Err(JiaError::NameNotFound { .. })
        ));
        let (frees, named) = n.take_lifecycle();
        n.finish_lifecycle(&frees, &named, 1);
        let (addr, len) = n.lookup_named("grid", 4).unwrap();
        assert_eq!(len, 16);
        assert!(matches!(
            n.lookup_named("grid", 8),
            Err(JiaError::NameTypeMismatch { .. })
        ));
        n.free_alloc(addr, 64).unwrap();
        let (frees, _) = n.take_lifecycle();
        n.finish_lifecycle(&frees, &[], 2);
        assert!(matches!(
            n.lookup_named("grid", 4),
            Err(JiaError::NameNotFound { .. })
        ));
    }

    #[test]
    fn placement_homes_pages() {
        let mut n = node(0, 4);
        let fixed = n
            .jia_alloc_placed(2 * PAGE_BYTES, Placement::Fixed(3))
            .unwrap();
        assert_eq!(n.page_home(fixed / PAGE_BYTES), 3);
        assert_eq!(n.page_home(fixed / PAGE_BYTES + 1), 3);
        let ft = n
            .jia_alloc_placed(PAGE_BYTES, Placement::FirstTouch)
            .unwrap();
        let p = ft / PAGE_BYTES;
        assert!(n.pages[p].pending);
        // A single-writer notice re-homes the pending page.
        n.resolve_pending_homes(&[crate::services::PageNotice {
            page: p as u32,
            writer: 2,
            multi: false,
        }]);
        assert_eq!(n.page_home(p), 2);
        assert!(!n.pages[p].pending);
    }

    #[test]
    fn writes_spanning_pages_dirty_both() {
        let mut n = node(0, 1);
        let addr = n.jia_alloc(2 * PAGE_BYTES).unwrap();
        n.begin_write(addr + PAGE_BYTES - 4, 8);
        n.bytes_mut(addr + PAGE_BYTES - 4, 8).fill(1);
        let (_, notices) = n.flush_dirty();
        assert_eq!(notices, vec![0, 1]);
    }
}
