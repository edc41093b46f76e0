//! Crash-injection suite for the write-ahead log.
//!
//! A crash can cut or corrupt the log at **any byte offset**; the
//! contract is that recovery replays exactly the longest prefix of whole,
//! checksummed records and truncates the rest — restoring the overlay of
//! some applied prefix, or failing with a typed error, but never serving
//! from a wrong state. This suite proves it byte-by-byte: every possible
//! truncation point, a byte flip at every offset, the compaction
//! crash-window (stale epoch), mid-stream seal + resume, plus
//! property-based encode/decode identity for the record format itself.

mod common;

use common::TempDir;
use islabel::core::persist::wal::{decode_op, encode_op, scan_wal, WAL_HEADER_LEN};
use islabel::core::persist::{
    load_index_with_wal, try_load_index_from_path, try_save_index_to_path,
};
use islabel::core::UpdateOp;
use islabel::graph::generators::{barabasi_albert, WeightModel};
use islabel::{BuildConfig, CsrGraph, IsLabelIndex};
use proptest::collection;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// Builds a small index, saves it pristine, attaches a WAL and streams a
/// fixed mixed op sequence through it (edge inserts, vertex inserts,
/// deletions — including one that may hit a peeled vertex, so staleness
/// replays too). Returns the artifact/WAL paths and, for every op-count
/// prefix `k`, the materialized graph the overlay must reconstruct to.
fn crashed_pair(dir: &Path) -> (PathBuf, PathBuf, Vec<CsrGraph>) {
    let index_path = dir.join("i.islx");
    let wal_path = dir.join("i.wal");
    let g = barabasi_albert(150, 3, WeightModel::UniformRange(1, 5), 9);
    let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    try_save_index_to_path(&index, &index_path).unwrap();
    index.attach_wal(&wal_path).unwrap();

    let mut expected = vec![index.current_graph()];
    index.try_insert_edge(2, 77, 1).unwrap();
    expected.push(index.current_graph());
    let u = index.try_insert_vertex(&[(3, 2), (50, 4)]).unwrap();
    expected.push(index.current_graph());
    index.try_insert_edge(u, 10, 3).unwrap();
    expected.push(index.current_graph());
    index.try_delete_vertex(5).unwrap();
    expected.push(index.current_graph());
    let v = index.try_insert_vertex(&[(u, 1)]).unwrap();
    expected.push(index.current_graph());
    index.try_insert_edge(0, 149, 2).unwrap();
    expected.push(index.current_graph());
    index.try_delete_vertex(u).unwrap();
    expected.push(index.current_graph());
    index.try_insert_edge(7, v, 4).unwrap();
    expected.push(index.current_graph());
    // Crash: the process dies here. The index was never re-saved — the
    // artifact on disk is still pristine; only the WAL knows the ops.
    drop(index);
    (index_path, wal_path, expected)
}

#[test]
fn every_byte_truncation_replays_the_longest_valid_prefix() {
    let dir = TempDir::new("walcrash-truncate");
    let (index_path, wal_path, expected) = crashed_pair(&dir);
    let wal_bytes = std::fs::read(&wal_path).unwrap();
    let scan = scan_wal(&wal_path).unwrap().unwrap();
    assert_eq!(scan.ops.len(), expected.len() - 1);
    assert_eq!(scan.valid_len, wal_bytes.len() as u64);
    assert!(!scan.truncated_tail);

    let cut_path = dir.join("cut.wal");
    for cut in 0..=wal_bytes.len() {
        std::fs::write(&cut_path, &wal_bytes[..cut]).unwrap();
        let (recovered, recovery) = load_index_with_wal(&index_path, &cut_path)
            .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        let k = if cut < WAL_HEADER_LEN as usize {
            // Not even a whole header survived: recovery starts a fresh
            // log; nothing could have been applied before the crash either
            // (ops are logged before application).
            assert!(recovery.created, "cut at {cut}");
            0
        } else {
            let k = scan.offsets.iter().filter(|&&o| o as usize <= cut).count();
            assert!(!recovery.created, "cut at {cut}");
            assert_eq!(recovery.replayed, k, "cut at {cut}");
            let at_boundary =
                cut == WAL_HEADER_LEN as usize || scan.offsets.iter().any(|&o| o as usize == cut);
            assert_eq!(recovery.truncated, !at_boundary, "cut at {cut}");
            k
        };
        // The replayed overlay reconstructs exactly the k-op prefix state.
        assert_eq!(recovered.pending_ops(), k, "cut at {cut}");
        assert_eq!(recovered.current_graph(), expected[k], "cut at {cut}");
        // And the log itself was repaired: a re-scan sees k whole records
        // and no torn tail — the pair is ready to serve and append.
        let rescan = scan_wal(&cut_path).unwrap().unwrap();
        assert_eq!(rescan.ops.len(), k, "cut at {cut}");
        assert!(!rescan.truncated_tail, "cut at {cut}");
    }
}

#[test]
fn byte_flip_corruption_replays_cleanly_or_fails_typed() {
    let dir = TempDir::new("walcrash-flip");
    let (index_path, wal_path, expected) = crashed_pair(&dir);
    let wal_bytes = std::fs::read(&wal_path).unwrap();
    let scan = scan_wal(&wal_path).unwrap().unwrap();

    let flip_path = dir.join("flip.wal");
    for pos in 0..wal_bytes.len() {
        let mut flipped = wal_bytes.clone();
        flipped[pos] ^= 0xFF;
        std::fs::write(&flip_path, &flipped).unwrap();
        match load_index_with_wal(&index_path, &flip_path) {
            Err(_) => {
                // Only a damaged magic/version can refuse the whole file.
                assert!(pos < 8, "unexpected hard failure for flip at {pos}");
            }
            Ok((recovered, recovery)) => {
                let k = if pos < 8 {
                    panic!("flip at {pos} (magic/version) must not load");
                } else if pos < WAL_HEADER_LEN as usize {
                    // Epoch byte: the log no longer pairs with this
                    // artifact — discarded wholesale, exactly like the
                    // compaction crash-window.
                    assert!(recovery.discarded_stale, "flip at {pos}");
                    assert!(recovery.created, "flip at {pos}");
                    0
                } else {
                    // In-record damage: the checksum (or length bound)
                    // stops the scan at the damaged record; everything
                    // before it replays.
                    let k = scan
                        .offsets
                        .iter()
                        .filter(|&&o| (o as usize) <= pos)
                        .count();
                    assert_eq!(recovery.replayed, k, "flip at {pos}");
                    assert!(recovery.truncated, "flip at {pos}");
                    k
                };
                assert_eq!(recovered.pending_ops(), k, "flip at {pos}");
                assert_eq!(recovered.current_graph(), expected[k], "flip at {pos}");
            }
        }
    }
}

/// The compaction crash-window: a new artifact was renamed into place but
/// the process died before resetting the WAL. The stale-epoch log must be
/// discarded (its ops are already folded in), never replayed.
#[test]
fn stale_epoch_wal_is_discarded_not_replayed() {
    let dir = TempDir::new("walcrash-epoch");
    let (index_path, wal_path, expected) = crashed_pair(&dir);

    // Fold everything and atomically replace the artifact — but "crash"
    // before touching the WAL, leaving the old log beside the new index.
    let (old, _) = load_index_with_wal(&index_path, &wal_path).unwrap();
    let folded = IsLabelIndex::try_build(&old.current_graph(), BuildConfig::default()).unwrap();
    drop(old); // release the WAL writer before recovery re-opens the log
    try_save_index_to_path(&folded, &index_path).unwrap();

    let (recovered, recovery) = load_index_with_wal(&index_path, &wal_path).unwrap();
    assert!(recovery.discarded_stale);
    assert!(recovery.created);
    assert_eq!(recovery.replayed, 0);
    assert!(!recovered.has_updates(), "folded ops must not double-apply");
    assert_eq!(recovered.current_graph(), *expected.last().unwrap());
}

/// Saving a non-pristine index seals its op history into the artifact;
/// recovery must replay only the WAL suffix beyond the sealed prefix.
#[test]
fn sealed_prefix_is_not_double_applied_on_recovery() {
    let dir = TempDir::new("walcrash-seal");
    let index_path = dir.join("i.islx");
    let wal_path = dir.join("i.wal");
    let g = barabasi_albert(150, 3, WeightModel::UniformRange(1, 5), 21);
    let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    try_save_index_to_path(&index, &index_path).unwrap();
    index.attach_wal(&wal_path).unwrap();

    index.try_insert_edge(1, 99, 2).unwrap();
    let u = index.try_insert_vertex(&[(4, 3)]).unwrap();
    // Checkpoint: the artifact now seals both ops; the WAL keeps them too.
    try_save_index_to_path(&index, &index_path).unwrap();
    index.try_insert_edge(u, 7, 1).unwrap();
    index.try_delete_vertex(u).unwrap();
    let want = index.current_graph();
    drop(index);

    let (recovered, recovery) = load_index_with_wal(&index_path, &wal_path).unwrap();
    assert_eq!(recovery.replayed, 2, "only the post-checkpoint suffix");
    assert_eq!(recovered.pending_ops(), 4);
    assert_eq!(recovered.current_graph(), want);
}

/// Recovery restores the *state*, not only the answers: at every op-count
/// prefix, the overlay replayed from the log cut there, and the one sealed
/// into an artifact and reloaded, equal the overlay of an index that
/// applied those ops live — patch for patch, tombstone for tombstone,
/// extra edge for extra edge.
#[test]
fn recovered_and_resealed_overlays_equal_the_live_one_at_every_prefix() {
    let dir = TempDir::new("walcrash-state");
    let (index_path, wal_path, expected) = crashed_pair(&dir);
    let wal_bytes = std::fs::read(&wal_path).unwrap();
    let scan = scan_wal(&wal_path).unwrap().unwrap();
    let (cut_path, sealed_path) = (dir.join("cut.wal"), dir.join("sealed.islx"));

    assert_eq!(expected.len(), scan.ops.len() + 1);
    for (k, graph) in expected.iter().enumerate() {
        let mut live = try_load_index_from_path(&index_path).unwrap();
        for op in &scan.ops[..k] {
            match op {
                UpdateOp::InsertEdge { a, b, w } => live.try_insert_edge(*a, *b, *w).unwrap(),
                UpdateOp::InsertVertex { edges } => drop(live.try_insert_vertex(edges).unwrap()),
                UpdateOp::DeleteVertex { v } => live.try_delete_vertex(*v).unwrap(),
            }
        }
        assert_eq!(live.current_graph(), *graph, "prefix {k}");
        assert_eq!(live.overlay_stats().pending_ops, k);

        let cut = k.checked_sub(1).map_or(WAL_HEADER_LEN, |i| scan.offsets[i]);
        std::fs::write(&cut_path, &wal_bytes[..cut as usize]).unwrap();
        let (recovered, recovery) = load_index_with_wal(&index_path, &cut_path).unwrap();
        assert_eq!(recovery.replayed, k);
        assert_eq!(recovered.overlay(), live.overlay(), "recovered, prefix {k}");

        try_save_index_to_path(&live, &sealed_path).unwrap();
        let resealed = try_load_index_from_path(&sealed_path).unwrap();
        assert_eq!(resealed.overlay(), live.overlay(), "resealed, prefix {k}");
    }
}

fn arb_op() -> impl Strategy<Value = UpdateOp> {
    prop_oneof![
        collection::vec((0u32..10_000, 1u32..1000), 0..24)
            .prop_map(|edges| UpdateOp::InsertVertex { edges }),
        (0u32..10_000, 0u32..10_000, 1u32..1000).prop_map(|(a, b, w)| UpdateOp::InsertEdge {
            a,
            b,
            w
        }),
        (0u32..10_000).prop_map(|v| UpdateOp::DeleteVertex { v }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wal_record_encode_decode_identity(op in arb_op()) {
        let mut payload = Vec::new();
        encode_op(&op, &mut payload);
        prop_assert_eq!(decode_op(&payload), Ok(op));
    }

    #[test]
    fn truncated_record_payloads_always_reject(op in arb_op(), cut_seed in 0usize..10_000) {
        let mut payload = Vec::new();
        encode_op(&op, &mut payload);
        let cut = cut_seed % payload.len(); // strict prefix
        prop_assert!(decode_op(&payload[..cut]).is_err());
    }

    #[test]
    fn corrupted_record_payloads_never_panic(
        op in arb_op(),
        pos_seed in 0usize..10_000,
        flip in 1u8..=255,
    ) {
        let mut payload = Vec::new();
        encode_op(&op, &mut payload);
        let pos = pos_seed % payload.len();
        payload[pos] ^= flip;
        // Either a clean rejection or a *different* well-formed op (the
        // CRC above this layer catches those); never a panic.
        let _ = decode_op(&payload);
    }

    #[test]
    fn record_payloads_with_trailing_garbage_reject(op in arb_op(), extra in 1usize..8) {
        let mut payload = Vec::new();
        encode_op(&op, &mut payload);
        payload.extend(std::iter::repeat_n(0xAA, extra));
        prop_assert!(decode_op(&payload).is_err());
    }
}
