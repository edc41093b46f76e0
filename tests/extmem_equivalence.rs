//! External-memory vs in-memory construction equivalence at integration
//! scale (Section 6): the disk pipeline must produce the *same index* —
//! labels, hierarchy, residual graph — as the in-memory builder, on both
//! storage backends.

mod common;

use common::TempDir;
use islabel::core::embuild::{build_external_from_csr, EmConfig};
use islabel::core::{BuildConfig, IsLabelIndex};
use islabel::extmem::storage::Storage;
use islabel::extmem::{DirStorage, MemStorage};
use islabel::graph::generators::{grid2d, WeightModel};
use islabel::{Dataset, Scale};

#[test]
fn equivalent_on_every_paper_dataset() {
    for ds in Dataset::ALL {
        let g = ds.generate(Scale::Tiny);
        let storage = MemStorage::new();
        let em = build_external_from_csr(&storage, &g, BuildConfig::default(), EmConfig::default())
            .unwrap();
        let im = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
        assert_eq!(em.labels(), im.labels(), "{}: labels", ds.name());
        assert_eq!(em.dense_gk(), im.dense_gk(), "{}: G_k", ds.name());
        assert_eq!(em.stats().k, im.stats().k, "{}: k", ds.name());
        assert_eq!(
            em.stats().label_bytes,
            im.stats().label_bytes,
            "{}: label bytes",
            ds.name()
        );
    }
}

#[test]
fn equivalent_on_real_filesystem() {
    let dir = TempDir::new("embuild");
    let storage = DirStorage::new(dir.to_path_buf()).unwrap();
    let g = Dataset::GoogleLike.generate(Scale::Tiny);
    let em =
        build_external_from_csr(&storage, &g, BuildConfig::default(), EmConfig::default()).unwrap();
    let im = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    assert_eq!(em.labels(), im.labels());
    // All temp files cleaned off the real filesystem too.
    let leftovers: Vec<_> = std::fs::read_dir(&*dir).unwrap().collect();
    assert!(leftovers.is_empty(), "leftover files: {leftovers:?}");
}

#[test]
fn equivalent_under_pathological_memory_pressure() {
    // Deep hierarchy (grid) + tiny budget: many levels, many purges, many
    // label blocks, multi-pass sorts.
    let g = grid2d(20, 20, WeightModel::UniformRange(1, 5), 3);
    let storage = MemStorage::new();
    let em = build_external_from_csr(
        &storage,
        &g,
        BuildConfig::default(),
        EmConfig::tiny_for_tests(),
    )
    .unwrap();
    let im = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    assert_eq!(em.labels(), im.labels());
    assert_eq!(em.hierarchy().levels(), im.hierarchy().levels());

    // Queries agree with ground truth end to end.
    for i in 0..60u32 {
        let (s, t) = ((i * 13) % 400, (i * 29 + 7) % 400);
        assert_eq!(
            em.try_distance(s, t),
            Ok(islabel::core::reference::dijkstra_p2p(&g, s, t)),
            "({s}, {t})"
        );
    }
}

#[test]
fn external_build_io_volume_is_bounded() {
    // Sanity on the I/O model: the external build should move a few
    // multiples of the data size, not hundreds (scan/sort, not quadratic).
    let g = Dataset::BtcLike.generate(Scale::Tiny);
    let storage = MemStorage::new();
    let _ =
        build_external_from_csr(&storage, &g, BuildConfig::default(), EmConfig::default()).unwrap();
    let snap = storage.stats().snapshot();
    let data_bytes = (g.num_edges() * 2 * 12) as u64; // both directions, 12 B/entry
    assert!(
        snap.bytes_written < data_bytes * 200,
        "write amplification too high: {} vs data {}",
        snap.bytes_written,
        data_bytes
    );
}
