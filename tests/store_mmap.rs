//! Integration suite for the mmap store: an index opened over an artifact
//! must be bit-identical to the one built in memory, and opening
//! hostile bytes — mutated headers, truncations, random flips — must
//! yield typed errors or semantically-valid successes, never a panic.

mod common;

use common::TempDir;
use islabel::core::persist::{
    compact_index_with_wal, load_index_with_wal, try_load_index_from_path,
    try_load_oracle_from_path, try_save_index_to_path,
};
use islabel::core::{BuildConfig, IsLabelIndex, MmapIndex, UpdateOp};
use islabel::graph::generators::{barabasi_albert, erdos_renyi_gnm, grid2d, WeightModel};
use islabel::store::format::{
    checksum64, Header, DATA_START, SECTION_GK_OFFSETS, SECTION_GK_TARGETS, SECTION_GK_VIAS,
    SECTION_GK_WEIGHTS, SECTION_LABEL_ANCESTORS, SECTION_LABEL_DISTS, SECTION_LABEL_OFFSETS,
};
use islabel::store::StoreReader;
use islabel::DistanceOracle;

/// Deterministic query pairs spread over the vertex universe.
fn pairs(n: usize, count: u32) -> impl Iterator<Item = (u32, u32)> {
    let n = n as u32;
    (0..count).map(move |i| ((i * 97 + 3) % n, (i * 131 + 50) % n))
}

/// A small pristine artifact reused by every corruption test.
fn sample_artifact() -> (IsLabelIndex, Vec<u8>) {
    let g = barabasi_albert(300, 3, WeightModel::UniformRange(1, 9), 7);
    let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    let dir = TempDir::new("smm-sample");
    let path = dir.join("sample.islx");
    try_save_index_to_path(&index, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (index, bytes)
}

#[test]
fn mmap_is_bit_identical_to_heap_across_graphs_and_configs() {
    let graphs = [
        (
            "ba",
            barabasi_albert(600, 3, WeightModel::UniformRange(1, 10), 11),
        ),
        (
            "er",
            erdos_renyi_gnm(500, 1500, WeightModel::UniformRange(1, 6), 12),
        ),
        ("grid", grid2d(20, 25, WeightModel::Unit, 13)),
    ];
    let configs = [
        ("default", BuildConfig::default()),
        ("fixed-k", BuildConfig::fixed_k(3)),
        (
            "no-paths",
            BuildConfig {
                keep_path_info: false,
                ..BuildConfig::default()
            },
        ),
        // An empty `G_k`: Equation 1 is the whole query, as on the
        // benchmark's `query-labels`.
        ("full", BuildConfig::full()),
    ];
    let dir = TempDir::new("smm-crosscheck");
    for (gname, g) in &graphs {
        for (cname, config) in &configs {
            let heap = IsLabelIndex::try_build(g, *config).unwrap();
            let path = dir.join(format!("{gname}-{cname}.islx"));
            try_save_index_to_path(&heap, &path).unwrap();
            let mapped = MmapIndex::open_verified(&path).unwrap();
            assert_eq!(mapped.engine_name(), "islabel-mmap");
            assert_eq!(mapped.num_vertices(), heap.num_vertices());
            // The mapped sections are the built arrays, value for value.
            assert_eq!(mapped.hierarchy(), heap.hierarchy());
            assert_eq!(mapped.labels(), heap.labels());
            let (mut ms, mut hs) = (mapped.session(), heap.session());
            for (s, t) in pairs(g.num_vertices(), 400) {
                assert_eq!(
                    ms.distance(s, t),
                    hs.distance(s, t),
                    "{gname}/{cname} {s}->{t}"
                );
            }
        }
    }
}

#[test]
fn every_header_and_table_byte_mutation_is_contained() {
    let (index, good) = sample_artifact();
    let mut heap = index.session();
    // Exhaustive over the header + section table: every byte, one flip.
    // Outcomes are a typed error or a semantically identical artifact
    // (flips in reserved/padding bytes are invisible) — never a panic,
    // never a different answer.
    let mut accepted = 0usize;
    for at in 0..DATA_START {
        let mut bad = good.clone();
        bad[at] ^= 0x5A;
        match MmapIndex::from_bytes(bad) {
            Err(_) => {}
            Ok(m) => {
                accepted += 1;
                let mut s = m.session();
                for (a, b) in pairs(index.num_vertices(), 20) {
                    assert_eq!(s.distance(a, b), heap.distance(a, b), "byte {at}");
                }
            }
        }
    }
    // The load-bearing bytes must actually reject: a mutation budget far
    // below the region size proves the checks have teeth.
    assert!(
        accepted < DATA_START / 4,
        "{accepted} of {DATA_START} header mutations went undetected"
    );
}

#[test]
fn truncation_at_any_length_is_a_typed_error() {
    let (_, good) = sample_artifact();
    let mut lengths: Vec<usize> = vec![0, 1, 39, 40, 63, 64, 71, 72, DATA_START - 1, DATA_START];
    lengths.extend((1..=36).map(|i| good.len() * i / 37));
    lengths.push(good.len() - 1);
    for len in lengths {
        let err = MmapIndex::from_bytes(good[..len].to_vec())
            .err()
            .unwrap_or_else(|| panic!("truncation to {len} bytes accepted"));
        let _ = err.to_string(); // typed + printable, not a panic
    }
}

#[test]
fn random_corruption_never_panics_verified_or_not() {
    let (index, good) = sample_artifact();
    let dir = TempDir::new("smm-fuzz");
    let path = dir.join("fuzzed.islx");
    let mut heap = index.session();
    // xorshift64*: deterministic, no external crates.
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut rng = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545F4914F6CDD1D)
    };
    for _ in 0..300 {
        let mut bad = good.clone();
        let at = (rng() as usize) % bad.len();
        let bit = 1u8 << (rng() % 8);
        bad[at] ^= bit;
        // Verified path (in-memory image): a content flip is caught by
        // the section checksum; survivors must answer identically.
        match MmapIndex::from_bytes(bad.clone()) {
            Err(_) => {}
            Ok(m) => {
                let mut s = m.session();
                for (a, b) in pairs(index.num_vertices(), 5) {
                    assert_eq!(s.distance(a, b), heap.distance(a, b), "byte {at} bit {bit}");
                }
            }
        }
        // Serving path (structural + semantic validation only): may
        // accept a flip in payload values, but every query must still
        // return — the semantic scan is what makes that sound.
        std::fs::write(&path, &bad).unwrap();
        if let Ok(m) = MmapIndex::open(&path) {
            let mut s = m.session();
            for (a, b) in pairs(index.num_vertices(), 5) {
                let _ = s.distance(a, b);
            }
        }
    }
}

#[test]
fn open_verified_catches_payload_corruption_that_open_tolerates() {
    let (_, good) = sample_artifact();
    let dir = TempDir::new("smm-verify");
    let path = dir.join("flip.islx");
    // Locate the label-distances payload and nudge one value upward: the
    // result is structurally and semantically a valid artifact — only the
    // checksum knows.
    let r = StoreReader::from_bytes(good.clone()).unwrap();
    let sec = r.header().section(SECTION_LABEL_DISTS).unwrap();
    let at = sec.offset as usize; // low byte of the first distance
    drop(r);
    let mut bad = good.clone();
    bad[at] = bad[at].wrapping_add(1);
    std::fs::write(&path, &bad).unwrap();
    assert!(
        MmapIndex::open_verified(&path).is_err(),
        "checksum verification must flag the payload flip"
    );
    std::fs::write(&path, &good).unwrap();
    MmapIndex::open_verified(&path).unwrap();
}

#[test]
fn oracle_loader_prefers_mmap_for_a_pristine_artifact_and_refuses_old_versions() {
    let g = grid2d(12, 12, WeightModel::UniformRange(1, 4), 5);
    let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    let dir = TempDir::new("smm-loader");
    let path = dir.join("index.islx");
    try_save_index_to_path(&index, &path).unwrap();
    assert_eq!(
        try_load_oracle_from_path(&path).unwrap().engine_name(),
        "islabel-mmap"
    );

    // The v1/v2 streams shared the magic: every entry point refuses them
    // by version, with the remedy in the message.
    for version in [1u32, 2] {
        let mut old = b"ISLX".to_vec();
        old.extend_from_slice(&version.to_le_bytes());
        old.resize(DATA_START + 64, 0);
        std::fs::write(&path, &old).unwrap();
        let from_loader = try_load_oracle_from_path(&path).err().unwrap();
        assert!(matches!(from_loader, islabel::core::Error::Persist(_)));
        let errors = [
            try_load_index_from_path(&path).unwrap_err().to_string(),
            from_loader.to_string(),
            MmapIndex::open(&path).unwrap_err().to_string(),
        ];
        for err in errors {
            assert!(err.contains(&format!("version {version}")), "{err}");
            assert!(err.contains("islabel build"), "{err}");
        }
    }
}

/// Duplicates the first ancestor of some label with two or more entries
/// over the second, leaving every checksum as it was: only a content
/// checksum or the semantic scan ("not sorted") can object.
fn unsort_one_label(bytes: &mut [u8]) {
    let r = StoreReader::from_bytes(bytes.to_vec()).unwrap();
    let offsets = r.section_u64s(SECTION_LABEL_OFFSETS).unwrap().unwrap();
    let v = offsets.windows(2).position(|w| w[1] - w[0] >= 2).unwrap();
    let sec = r.header().section(SECTION_LABEL_ANCESTORS).unwrap();
    let at = sec.offset as usize + offsets[v] as usize * 4;
    bytes.copy_within(at..at + 4, at + 4);
}

#[test]
fn oracle_loader_validates_once_and_reports_the_first_error() {
    let (index, mut pristine) = sample_artifact();
    let dir = TempDir::new("smm-once");
    let path = dir.join("index.islx");

    // A corrupt pristine artifact: the mapped open (no content checksums)
    // finds the unsorted label, and that error is the one returned.
    unsort_one_label(&mut pristine);
    std::fs::write(&path, &pristine).unwrap();
    let err = try_load_oracle_from_path(&path).err().unwrap().to_string();
    assert!(err.contains("not sorted"), "{err}");

    // A sealed artifact opens mapped too, and answers as the index it was
    // saved from ...
    let mut updated = index;
    updated.try_insert_edge(0, 150, 1).unwrap();
    let u = updated.try_insert_vertex(&[(3, 2), (150, 4)]).unwrap();
    try_save_index_to_path(&updated, &path).unwrap();
    let oracle = try_load_oracle_from_path(&path).unwrap();
    assert_eq!(oracle.engine_name(), "islabel-mmap");
    let (mut os, mut us) = (oracle.session(), updated.session());
    for (s, t) in pairs(updated.num_vertices(), 200).chain([(u, 0), (7, u)]) {
        assert_eq!(os.distance(s, t), us.distance(s, t), "{s}->{t}");
    }
    // ... and the same defect in a sealed file is found by the same scan.
    let mut sealed = std::fs::read(&path).unwrap();
    unsort_one_label(&mut sealed);
    std::fs::write(&path, &sealed).unwrap();
    let err = MmapIndex::open(&path).unwrap_err().to_string();
    assert!(err.contains("not sorted"), "{err}");
    assert!(try_load_oracle_from_path(&path).is_err());
}

/// Recomputes every section checksum and the header CRC, so only the
/// semantic scan can object to an edit of the payload.
fn reseal(bytes: &mut [u8]) {
    let mut header = Header::decode(bytes, bytes.len() as u64).unwrap();
    for s in &mut header.sections {
        s.checksum = checksum64(&bytes[s.offset as usize..(s.offset + s.len) as usize]);
    }
    bytes[..DATA_START].copy_from_slice(&header.encode());
}

#[test]
fn gk_rows_out_of_weight_order_are_refused_by_both_openers() {
    let (_, good) = sample_artifact();
    let r = StoreReader::from_bytes(good.clone()).unwrap();
    let offsets = r.section_u32s(SECTION_GK_OFFSETS).unwrap().unwrap();
    let weights = r.section_u32s(SECTION_GK_WEIGHTS).unwrap().unwrap();
    // The first two neighbouring entries of one row whose weights differ
    // (or tie, so only the neighbour order breaks).
    let pair = |distinct: bool| {
        offsets
            .windows(2)
            .flat_map(|w| w[0] as usize..(w[1] as usize).saturating_sub(1))
            .find(|&e| (weights[e] != weights[e + 1]) == distinct)
            .expect("a row with such a pair")
    };
    let cases = [("weights", pair(true)), ("neighbours", pair(false))];
    let sections = [SECTION_GK_TARGETS, SECTION_GK_WEIGHTS]
        .map(|kind| r.header().section(kind).unwrap().offset as usize);
    drop(r);

    let dir = TempDir::new("smm-gk-order");
    let path = dir.join("index.islx");
    for (what, e) in cases {
        let mut bad = good.clone();
        for base in sections {
            let at = base + e * 4;
            let (first, second) = bad[at..at + 8].split_at_mut(4);
            first.swap_with_slice(second);
        }
        reseal(&mut bad);
        std::fs::write(&path, &bad).unwrap();
        let errors = [
            MmapIndex::open(&path).expect_err("mapped open refuses"),
            try_load_index_from_path(&path).expect_err("heap load refuses"),
        ];
        for err in errors {
            let err = err.to_string();
            assert!(
                err.contains("gk row not weight-ordered; rebuild with islabel build"),
                "{what}: {err}"
            );
        }
    }
    // The untouched bytes, resealed the same way, still open.
    let mut resealed = good;
    reseal(&mut resealed);
    std::fs::write(&path, &resealed).unwrap();
    MmapIndex::open(&path).unwrap();
    try_load_index_from_path(&path).unwrap();
}

#[test]
fn gk_vias_out_of_order_are_refused_by_both_openers() {
    let (_, good) = sample_artifact();
    let r = StoreReader::from_bytes(good.clone()).unwrap();
    let vias = r.section_u32s(SECTION_GK_VIAS).unwrap().unwrap()[..6].to_vec();
    let base = r.header().section(SECTION_GK_VIAS).unwrap().offset as usize;
    drop(r);

    // Each case rewrites the two leading `(u, v, via)` triples.
    let (t0, t1) = (&vias[..3], &vias[3..]);
    let cases = [
        ("out of order", [t1, t0].concat()),
        ("duplicated", [t0, t0].concat()),
        ("u > v", [&[t0[1], t0[0], t0[2]], t1].concat()),
        ("u == v", [&[t0[0], t0[0], t0[2]], t1].concat()),
    ];
    let dir = TempDir::new("smm-gk-vias");
    let path = dir.join("index.islx");
    for (what, triples) in cases {
        let mut bad = good.clone();
        for (i, x) in triples.iter().enumerate() {
            bad[base + 4 * i..base + 4 * i + 4].copy_from_slice(&x.to_le_bytes());
        }
        reseal(&mut bad);
        std::fs::write(&path, &bad).unwrap();
        let errors = [
            MmapIndex::open(&path).expect_err("mapped open refuses"),
            try_load_index_from_path(&path).expect_err("heap load refuses"),
        ];
        for err in errors.map(|e| e.to_string()) {
            let expect = "gk via table not strictly ascending by (u, v) with u < v";
            assert!(err.contains(expect), "{what}: {err}");
        }
    }
    // The untouched bytes, resealed the same way, still open.
    let mut resealed = good;
    reseal(&mut resealed);
    std::fs::write(&path, &resealed).unwrap();
    MmapIndex::open(&path).unwrap();
    try_load_index_from_path(&path).unwrap();
}

#[test]
fn compact_returns_serving_to_the_mmap_engine() {
    let g = barabasi_albert(250, 3, WeightModel::UniformRange(1, 8), 21);
    let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    let dir = TempDir::new("smm-compact");
    let ipath = dir.join("index.islx");
    let wpath = dir.join("index.wal");
    try_save_index_to_path(&index, &ipath).unwrap();

    // Pristine artifact: mmap serves.
    assert_eq!(
        try_load_oracle_from_path(&ipath).unwrap().engine_name(),
        "islabel-mmap"
    );

    // Stream durable updates and seal them: mmap still serves, with the
    // answers of the live index the ops were applied to.
    let (mut live, _) = load_index_with_wal(&ipath, &wpath).unwrap();
    for i in 0..20u32 {
        live.try_insert_edge(i, (i * 3 + 40) % 250, 2).unwrap();
    }
    try_save_index_to_path(&live, &ipath).unwrap(); // seals the pending ops
    let sealed = try_load_oracle_from_path(&ipath).unwrap();
    assert_eq!(sealed.engine_name(), "islabel-mmap");
    let (mut ss, mut ls) = (sealed.session(), live.session());
    for (s, t) in pairs(250, 200) {
        assert_eq!(ss.distance(s, t), ls.distance(s, t));
    }
    drop((ss, ls));
    drop(live); // releases the WAL before the compaction resets it

    // Compaction folds the ops into a fresh pristine artifact: mmap again,
    // and the answers match a from-scratch build of the same graph.
    let info = compact_index_with_wal(&ipath, &wpath).unwrap();
    assert_eq!(info.folded_ops, 20);
    let oracle = try_load_oracle_from_path(&ipath).unwrap();
    assert_eq!(oracle.engine_name(), "islabel-mmap");
    let reference = IsLabelIndex::try_build(
        &try_load_index_from_path(&ipath).unwrap().current_graph(),
        BuildConfig::default(),
    )
    .unwrap();
    let mut os = oracle.session();
    let mut rs = reference.session();
    for (s, t) in pairs(250, 200) {
        assert_eq!(os.distance(s, t), rs.distance(s, t));
    }
}

#[test]
fn wal_recovery_serves_off_the_mapping() {
    // A replica restarted over a non-empty log: the artifact is mapped,
    // the log replayed into the overlay on top of it, and from then on it
    // answers — distances, paths, further updates — as an index built in
    // memory and fed the same ops.
    let g = barabasi_albert(240, 3, WeightModel::UniformRange(1, 6), 17);
    let dir = TempDir::new("smm-wal-mapped");
    let (ipath, wpath) = (dir.join("index.islx"), dir.join("index.wal"));
    let mut owned = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    try_save_index_to_path(&owned, &ipath).unwrap();
    let logged = [
        UpdateOp::InsertEdge { a: 1, b: 200, w: 3 },
        UpdateOp::InsertVertex {
            edges: vec![(5, 2), (90, 1)],
        },
        UpdateOp::DeleteVertex {
            v: owned.hierarchy().gk_members()[0],
        },
    ];
    let apply = |x: &mut IsLabelIndex, op: &UpdateOp| match op {
        UpdateOp::InsertVertex { edges } => x.try_insert_vertex(edges).map(drop),
        &UpdateOp::InsertEdge { a, b, w } => x.try_insert_edge(a, b, w),
        &UpdateOp::DeleteVertex { v } => x.try_delete_vertex(v),
    };
    {
        let (mut writer, _) = load_index_with_wal(&ipath, &wpath).unwrap();
        for op in &logged {
            apply(&mut writer, op).unwrap();
        }
    }
    for op in &logged {
        apply(&mut owned, op).unwrap();
    }
    let (mut mapped, recovery) = load_index_with_wal(&ipath, &wpath).unwrap();
    assert_eq!(recovery.replayed, 3);
    assert!(mapped.is_mapped());
    assert_eq!(mapped.engine_name(), "islabel-mmap");
    let check = |mapped: &IsLabelIndex, owned: &IsLabelIndex| {
        assert_eq!(mapped.overlay(), owned.overlay());
        let (mut ms, mut os) = (mapped.session(), owned.session());
        for (s, t) in pairs(owned.num_vertices(), 300) {
            assert_eq!(ms.distance(s, t), os.distance(s, t), "{s}->{t}");
            assert_eq!(
                mapped.try_shortest_path(s, t),
                owned.try_shortest_path(s, t),
                "path {s}->{t}"
            );
        }
    };
    check(&mapped, &owned);
    let u = mapped.try_insert_vertex(&[(10, 1), (240, 2)]).unwrap();
    assert_eq!(owned.try_insert_vertex(&[(10, 1), (240, 2)]).unwrap(), u);
    for x in [&mut mapped, &mut owned] {
        x.try_insert_edge(u, 33, 1).unwrap();
        x.try_delete_vertex(12).unwrap();
    }
    check(&mapped, &owned);
}

#[test]
fn a_renamed_over_artifact_leaves_open_indexes_on_their_generation() {
    // The one supported way to replace a served artifact is to rename a
    // new file over its path: an index opened before keeps its mapping,
    // so it answers from its own generation, bit for bit, after the
    // compaction publishes the next one.
    let g = grid2d(14, 14, WeightModel::UniformRange(1, 5), 9);
    let built = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    let dir = TempDir::new("smm-rename");
    let (ipath, wpath) = (dir.join("index.islx"), dir.join("index.wal"));
    try_save_index_to_path(&built, &ipath).unwrap();
    let answers = |x: &IsLabelIndex| -> Vec<_> {
        pairs(196, 300).map(|(s, t)| x.try_distance(s, t)).collect()
    };
    let old = MmapIndex::open(&ipath).unwrap();
    let before = answers(&old);

    let (mut live, _) = load_index_with_wal(&ipath, &wpath).unwrap();
    for v in 0..10u32 {
        live.try_insert_edge(v, 195 - v, 1).unwrap();
    }
    drop(live);
    let info = compact_index_with_wal(&ipath, &wpath).unwrap();
    let new = MmapIndex::open(&ipath).unwrap();
    assert_eq!(new.artifact_epoch(), info.epoch);
    assert_ne!(old.artifact_epoch(), info.epoch);
    assert_eq!(answers(&old), before);
    assert_ne!(
        answers(&new),
        before,
        "the next generation answers differently"
    );
}
