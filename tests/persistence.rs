//! Persistence integration: graph text/binary formats, disk-resident
//! labels on real files, and the modeled I/O accounting.

mod common;

use common::TempDir;
use islabel::core::disklabel::{DiskLabelStore, FetchedLabel};
use islabel::core::{BuildConfig, IsLabelIndex};
use islabel::extmem::storage::Storage;
use islabel::extmem::{DirStorage, IoCostModel, MemStorage};
use islabel::graph::io::{parse_edge_list, read_csr_binary, write_csr_binary, write_edge_list};
use islabel::{Dataset, Scale};

#[test]
fn graph_survives_both_serialization_formats() {
    let g = Dataset::GoogleLike.generate(Scale::Tiny);

    // Text roundtrip.
    let mut text = Vec::new();
    write_edge_list(&g, &mut text).unwrap();
    let parsed = parse_edge_list(std::str::from_utf8(&text).unwrap()).unwrap();
    assert_eq!(parsed, g);

    // Binary roundtrip.
    let mut bin = Vec::new();
    write_csr_binary(&g, &mut bin).unwrap();
    let decoded = read_csr_binary(&mut &bin[..]).unwrap();
    assert_eq!(decoded, g);
}

#[test]
fn index_built_from_reloaded_graph_is_identical() {
    let g = Dataset::WikiTalkLike.generate(Scale::Tiny);
    let mut bin = Vec::new();
    write_csr_binary(&g, &mut bin).unwrap();
    let g2 = read_csr_binary(&mut &bin[..]).unwrap();

    let a = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    let b = IsLabelIndex::try_build(&g2, BuildConfig::default()).unwrap();
    assert_eq!(
        a.labels(),
        b.labels(),
        "deterministic build from equal graphs"
    );
    for i in 0..50u32 {
        let (s, t) = (
            (i * 13) % g.num_vertices() as u32,
            (i * 7 + 1) % g.num_vertices() as u32,
        );
        assert_eq!(a.try_distance(s, t), b.try_distance(s, t));
    }
}

#[test]
fn disk_labels_on_real_files() {
    let dir = TempDir::new("it-labels");
    let g = Dataset::BtcLike.generate(Scale::Tiny);
    let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();

    let storage = DirStorage::new(&*dir).unwrap();
    let store = DiskLabelStore::write(&storage, "labels", index.labels()).unwrap();

    // Reopen from disk (fresh offset table) and compare every label.
    let reopened = DiskLabelStore::open(&storage, "labels").unwrap();
    let (mut bs, mut bt) = (FetchedLabel::default(), FetchedLabel::default());
    for v in (0..g.num_vertices() as u32).step_by(37) {
        let disk: Vec<(u32, u64)> = reopened
            .fetch(&storage, v, &mut bs)
            .unwrap()
            .iter()
            .collect();
        let mem: Vec<(u32, u64)> = index.labels().label(v).iter().collect();
        assert_eq!(disk, mem, "label({v})");
    }

    // Queries straight off disk match in-memory answers.
    for (s, t) in [(0u32, 100u32), (5, 77), (50, 51)] {
        let ls = store.fetch(&storage, s, &mut bs).unwrap();
        let lt = store.fetch(&storage, t, &mut bt).unwrap();
        assert_eq!(
            index.try_distance_from_labels(ls, lt),
            index.try_distance(s, t),
            "({s}, {t})"
        );
    }
}

#[test]
fn io_accounting_feeds_cost_model() {
    let g = Dataset::GoogleLike.generate(Scale::Tiny);
    let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    let storage = MemStorage::new();
    let store = DiskLabelStore::write(&storage, "labels", index.labels()).unwrap();

    let io = storage.stats();
    io.reset();
    let mut buf = FetchedLabel::default();
    store.fetch(&storage, 3, &mut buf).unwrap();
    store.fetch(&storage, 4, &mut buf).unwrap();
    let snap = io.snapshot();
    assert_eq!(snap.seeks, 2);

    // Two seeks at 10 ms each dominate the modeled time for small labels.
    let model = IoCostModel::default();
    let t = model.modeled_time(&snap);
    assert!(t >= std::time::Duration::from_millis(20), "{t:?}");
    assert!(t < std::time::Duration::from_millis(40), "{t:?}");
}

#[test]
fn mem_and_dir_storage_hold_identical_bytes() {
    let g = Dataset::SkitterLike.generate(Scale::Tiny);
    let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();

    let mem = MemStorage::new();
    DiskLabelStore::write(&mem, "l", index.labels()).unwrap();

    let dir = TempDir::new("it-parity");
    let disk = DirStorage::new(&*dir).unwrap();
    DiskLabelStore::write(&disk, "l", index.labels()).unwrap();

    for name in ["l", "l.idx"] {
        let mut a = Vec::new();
        mem.open(name).unwrap().read_to_end(&mut a).unwrap();
        let mut b = Vec::new();
        disk.open(name).unwrap().read_to_end(&mut b).unwrap();
        assert_eq!(a, b, "object {name}");
    }
}

use std::io::Read;

#[test]
fn typed_persist_roundtrip_including_pending_updates() {
    use islabel::core::persist::{try_load_index_from_path, try_save_index_to_path};
    use islabel::core::Error;

    let dir = TempDir::new("it-typed-persist");
    let path = dir.join("i.islx");
    let g = Dataset::GoogleLike.generate(Scale::Tiny);
    let mut index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();

    // Pristine index: save + load roundtrips and answers identically.
    try_save_index_to_path(&index, &path).unwrap();
    let reloaded = try_load_index_from_path(&path).unwrap();
    for i in 0..40u32 {
        let n = g.num_vertices() as u32;
        let (s, t) = ((i * 11) % n, (i * 17 + 3) % n);
        assert_eq!(
            reloaded.try_distance(s, t),
            index.try_distance(s, t),
            "({s}, {t})"
        );
    }

    // Pending dynamic updates persist too: the op log is sealed into the
    // artifact and replayed on load (the historical StaleIndex refusal is
    // gone), reconstructing the exact overlay.
    index.try_insert_edge(0, 1, 5).unwrap();
    let u = index.try_insert_vertex(&[(0, 2)]).unwrap();
    try_save_index_to_path(&index, &path).unwrap();
    let updated = try_load_index_from_path(&path).unwrap();
    assert!(updated.has_updates());
    assert_eq!(updated.pending_ops(), index.pending_ops());
    assert_eq!(updated.artifact_epoch(), index.artifact_epoch());
    for i in 0..40u32 {
        let n = g.num_vertices() as u32;
        let (s, t) = ((i * 11) % n, (i * 17 + 3) % n);
        assert_eq!(
            updated.try_distance(s, t),
            index.try_distance(s, t),
            "({s}, {t})"
        );
    }
    assert_eq!(updated.try_distance(u, 1), index.try_distance(u, 1));

    // I/O failures map to Error::Persist.
    assert!(matches!(
        try_load_index_from_path(dir.join("does-not-exist.islx")),
        Err(Error::Persist(_))
    ));
    let rebuilt = {
        index.rebuild();
        index
    };
    assert!(matches!(
        try_save_index_to_path(&rebuilt, dir.join("no-such-dir").join("x.islx")),
        Err(Error::Persist(_))
    ));
}

/// Concurrent saves to one path (rebuild coordinator beside an operator
/// save): every call must succeed and the surviving artifact must be one
/// writer's complete output — each call renames a temp file of its own.
#[test]
fn concurrent_saves_to_one_path_all_succeed() {
    use islabel::core::persist::{try_load_index_from_path, try_save_index_to_path};
    use islabel::store::StoreReader;

    const THREADS: usize = 8;
    const SAVES: usize = 5;
    let dir = TempDir::new("it-concurrent-save");
    let path = dir.join("shared.islx");
    let g = Dataset::GoogleLike.generate(Scale::Tiny);
    let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();

    let barrier = std::sync::Barrier::new(THREADS);
    let results: Vec<Result<(), islabel::core::Error>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    (0..SAVES)
                        .map(|_| try_save_index_to_path(&index, &path))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("saver thread panicked"))
            .collect()
    });
    for (i, r) in results.iter().enumerate() {
        assert!(r.is_ok(), "save {i} of {}: {r:?}", results.len());
    }

    // Full checksum verification, then a semantic load that answers.
    StoreReader::open(&path).expect("surviving artifact verifies");
    let reloaded = try_load_index_from_path(&path).unwrap();
    let n = g.num_vertices() as u32;
    for i in 0..40u32 {
        let (s, t) = ((i * 11) % n, (i * 17 + 3) % n);
        assert_eq!(
            reloaded.try_distance(s, t),
            index.try_distance(s, t),
            "({s}, {t})"
        );
    }
    // No temp file outlives its save.
    let leftovers: Vec<_> = std::fs::read_dir(&*dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .filter(|name| name != "shared.islx")
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
}

#[test]
fn cached_max_label_len_matches_the_labels_on_every_construction_path() {
    // `session()` sizes its seed buffers from `stats().max_label_len`
    // instead of rescanning the labels, so every way of making an index
    // must fill it with the real maximum.
    use islabel::core::embuild::{build_external_from_csr, EmConfig};
    use islabel::core::persist::{try_load_index_from_path, try_save_index_to_path};

    let g = Dataset::WebLike.generate(Scale::Tiny);
    let config = BuildConfig::default();
    let built = IsLabelIndex::try_build(&g, config).unwrap();
    assert!(built.labels().max_label_len() > 1);

    let dir = TempDir::new("it-cached-max");
    try_save_index_to_path(&built, dir.join("i.islx")).unwrap();
    let reloaded = try_load_index_from_path(dir.join("i.islx")).unwrap();

    let storage = MemStorage::new();
    let external = build_external_from_csr(&storage, &g, config, EmConfig::default()).unwrap();

    for (how, index) in [
        ("try_build", &built),
        ("saved and reloaded", &reloaded),
        ("external build", &external),
    ] {
        assert_eq!(
            index.stats().max_label_len,
            index.labels().max_label_len(),
            "{how}"
        );
    }
}
