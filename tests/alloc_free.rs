// A counting GlobalAlloc needs `unsafe impl`; the workspace denies unsafe
// code everywhere else — this test binary is the single, audited exception
// (it only counts and forwards to the system allocator).
#![allow(unsafe_code)]

//! Steady-state allocation audit for the query hot path, for the
//! WAL append every durable op makes, and for a disk-label fetch.
//!
//! The dense kernel's contract is that a [`QuerySession`] answers queries
//! with **zero heap allocations** from its first query on: the stamped
//! slabs and both indexed heaps are pre-sized against `|G_k|`
//! (decrease-key bounds each heap by one entry per vertex) and the seed
//! buffers against the longest label. This test installs a counting
//! allocator, arms it right after session creation, replays a mixed query
//! workload through every engine whose session is documented
//! allocation-free (heap, mapped, full-hierarchy, patched, directed and
//! the baselines), and asserts the counter stayed at zero.
//!
//! The whole audit runs as **one** `#[test]` so no concurrent test thread
//! can allocate while the counter is armed.

mod common;

use common::TempDir;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System`; the counter is updated with
// atomics and performs no allocation itself.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract; we only count.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `layout` is forwarded unchanged to `System`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; we only count.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `layout` is forwarded unchanged to `System`.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; we only count.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout`/`new_size` are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; we only count.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `queries` through `run` with the counter armed; returns the number
/// of allocations the closure performed.
fn audited<F: FnMut()>(mut run: F) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    run();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn sessions_answer_queries_without_allocating() {
    use islabel::graph::generators::{barabasi_albert, WeightModel};
    use islabel::prelude::*;

    let n = 2000usize;
    let g = barabasi_albert(n, 3, WeightModel::UniformRange(1, 6), 42);
    let pairs: Vec<(VertexId, VertexId)> = (0..500u32)
        .map(|i| ((i * 97) % n as u32, (i * 131 + 50) % n as u32))
        .collect();

    // --- IS-LABEL: the tentpole claim. ---
    let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    assert!(
        index.hierarchy().num_gk_vertices() > 0,
        "audit needs a non-trivial G_k"
    );
    let mut session = index.session();
    let mut checksum = 0u64;
    let count = audited(|| {
        for &(s, t) in &pairs {
            if let Ok(Some(d)) = session.distance(s, t) {
                checksum = checksum.wrapping_add(d);
            }
        }
    });
    assert_eq!(
        count,
        0,
        "IsLabelSession allocated {count} times over {} queries",
        pairs.len()
    );
    drop(session);

    // --- The same index mapped: seed buffers sized at open. ---
    // `MmapIndex` records the longest label from `label_offsets`, so its
    // session, like the heap one, allocates nothing from the first query.
    let bytes = islabel::core::persist::v3::write_index(&index, std::io::Cursor::new(Vec::new()))
        .unwrap()
        .into_inner();
    let mapped = MmapIndex::from_bytes(bytes).unwrap();
    let mut mapped_session = mapped.session();
    let count = audited(|| {
        for &(s, t) in &pairs {
            if let Ok(Some(d)) = mapped_session.distance(s, t) {
                checksum = checksum.wrapping_add(d);
            }
        }
    });
    assert_eq!(
        count,
        0,
        "MmapSession allocated {count} times over {} queries",
        pairs.len()
    );
    drop(mapped_session);

    // --- A label-only index: nothing is searched, Equation 1 is the query. ---
    let full = IsLabelIndex::try_build(&g, BuildConfig::full()).unwrap();
    assert_eq!(full.dense_gk().ids().len(), 0);
    let mut full_session = full.session();
    let count = audited(|| {
        for &(s, t) in &pairs {
            if let Ok(Some(d)) = full_session.distance(s, t) {
                checksum = checksum.wrapping_add(d);
            }
        }
    });
    assert_eq!(
        count,
        0,
        "full-hierarchy IsLabelSession allocated {count} times over {} queries",
        pairs.len()
    );
    drop(full_session);

    // --- IS-LABEL with pending updates: the PatchedDense session path. ---
    // A non-pristine index must stay on the dense kernel: the session
    // borrows the DensePatch the overlay maintains and pre-sizes every
    // buffer for the patched universe, so queries against an index
    // carrying inserts, new vertices, and tombstones allocate nothing.
    let mut updated = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    for i in 0..30u32 {
        let a = (i * 37 + 1) % 1800;
        let b = (i * 53 + 400) % 1800;
        if a != b {
            updated.try_insert_edge(a, b, i % 5 + 1).unwrap();
        }
    }
    for i in 0..10u32 {
        updated
            .try_insert_vertex(&[((i * 97 + 3) % 1800, 2), ((i * 61 + 700) % 1800, 4)])
            .unwrap();
    }
    for v in 1900..1916u32 {
        updated.try_delete_vertex(v).unwrap();
    }
    assert!(updated.has_updates());
    let mut patched_session = updated.session();
    let count = audited(|| {
        for &(s, t) in &pairs[..200] {
            if let Ok(Some(d)) = patched_session.distance(s, t) {
                checksum = checksum.wrapping_add(d);
            }
        }
    });
    assert_eq!(
        count, 0,
        "patched IsLabelSession allocated {count} times over 200 queries"
    );
    drop(patched_session);

    // --- Opening a session is O(1) in the overlay. ---
    // The session borrows the overlay's patch instead of copying it, so
    // the blocks it allocates (search scratch, seed and label buffers) do
    // not grow with the pending ops — ten times the ops, many more
    // vertices with extra edges, the same count.
    let mut opens = [0u64; 2];
    for (slot, pending) in [50u32, 500].into_iter().enumerate() {
        let mut grown = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        let members = grown.hierarchy().gk_members().to_vec();
        for i in 0..pending {
            match i % 5 {
                0 => {
                    grown
                        .try_insert_vertex(&[((i * 97 + 3) % 1800, 2)])
                        .unwrap();
                }
                // G_k to G_k: one more pair of extra adjacency entries.
                1 | 2 => {
                    let k = i as usize * 7;
                    let (a, b) = (members[k % members.len()], members[(k + 1) % members.len()]);
                    grown.try_insert_edge(a, b, i % 5 + 1).unwrap();
                }
                _ => grown
                    .try_insert_edge((i * 37 + 1) % 1800, (i * 53 + 401) % 1800, 3)
                    .unwrap(),
            }
        }
        assert_eq!(grown.pending_ops(), pending as usize);
        opens[slot] = audited(|| drop(grown.session()));
    }
    assert!(opens[0] > 0);
    assert_eq!(
        opens[0], opens[1],
        "session() allocated {} blocks at 50 pending ops and {} at 500",
        opens[0], opens[1]
    );

    // --- di-IS-LABEL over the symmetrized digraph. ---
    let mut b = DigraphBuilder::new(n);
    for (u, v, w) in g.edge_list() {
        b.add_arc(u, v, w);
        b.add_arc(v, u, w);
    }
    let dg = b.build();
    let di = DiIsLabelIndex::try_build(&dg, BuildConfig::default()).unwrap();
    let mut di_session = di.session();
    let count = audited(|| {
        for &(s, t) in &pairs {
            if let Ok(Some(d)) = di_session.distance(s, t) {
                checksum = checksum.wrapping_add(d);
            }
        }
    });
    assert_eq!(count, 0, "DiIsLabelSession allocated {count} times");
    drop(di_session);

    // --- The baselines: IM-DIJ runs the dense kernel itself over the
    // input graph, VC-Index shares its indexed heap + stamped slabs. ---
    let bidij = BiDijkstraOracle::new(g.clone());
    let mut bd_session = DistanceOracle::session(&bidij);
    let count = audited(|| {
        for &(s, t) in &pairs[..100] {
            if let Ok(Some(d)) = bd_session.distance(s, t) {
                checksum = checksum.wrapping_add(d);
            }
        }
    });
    assert_eq!(count, 0, "BiDijkstraSession allocated {count} times");
    drop(bd_session);

    let vc = VcIndex::build(&g, VcConfig::default());
    let mut vc_session = DistanceOracle::session(&vc);
    let count = audited(|| {
        for &(s, t) in &pairs[..100] {
            if let Ok(Some(d)) = vc_session.distance(s, t) {
                checksum = checksum.wrapping_add(d);
            }
        }
    });
    assert_eq!(count, 0, "VcSession allocated {count} times");

    // --- A durable op's WAL record. ---
    // Length, CRC and payload are built in the writer's reusable buffer:
    // the first append grows it (and registers the WAL metrics), every
    // later one of no larger payload allocates nothing, syncs included.
    use islabel::core::persist::wal::WalWriter;
    use islabel::core::UpdateOp;
    let dir = TempDir::new("alloc-free");
    let path = dir.join("audit.wal");
    let mut wal = WalWriter::create(&path, 7, 4).unwrap();
    let ops = [
        UpdateOp::InsertVertex {
            edges: vec![(3, 2), (9, 4)],
        },
        UpdateOp::InsertEdge { a: 1, b: 2, w: 3 },
        UpdateOp::DeleteVertex { v: 5 },
    ];
    wal.append(&ops[0]).unwrap();
    let count = audited(|| {
        for op in ops.iter().cycle().take(30) {
            wal.append(op).unwrap();
        }
    });
    drop(wal);
    assert_eq!(
        count, 0,
        "WalWriter::append allocated {count} times over 30 ops"
    );

    // --- A disk-label fetch (the paper's Time (a), Section 6.2). ---
    // Into a caller-owned buffer that has held the longest label: nothing
    // to allocate. `MemStorage::read_at` only clones an `Arc`.
    use islabel::core::disklabel::{DiskLabelStore, FetchedLabel};
    let storage = islabel::extmem::storage::MemStorage::new();
    let store = DiskLabelStore::write(&storage, "labels", index.labels()).unwrap();
    let longest = (0..n as VertexId).max_by_key(|&v| index.labels().label(v).len());
    let mut buf = FetchedLabel::default();
    store.fetch(&storage, longest.unwrap(), &mut buf).unwrap();
    let count = audited(|| {
        for v in pairs.iter().flat_map(|&(s, t)| [s, t]) {
            let label = store.fetch(&storage, v, &mut buf).unwrap();
            checksum = checksum.wrapping_add(u64::from(label.dists[label.len() - 1]));
        }
    });
    assert_eq!(count, 0, "DiskLabelStore::fetch allocated {count} times");

    // The checksum keeps the query loops observable.
    assert!(checksum > 0);
}
