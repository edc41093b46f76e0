//! A remote `Batch` frame is traced pair by pair, exactly like `Query`
//! frames. `islabel_query_traced_total` is process-wide, so this check
//! lives alone in its own test binary: nothing else can move the counter
//! between the two scrapes.

use islabel::graph::generators::{erdos_renyi_gnm, WeightModel};
use islabel::prelude::*;
use std::sync::Arc;

fn traced_total(client: &mut DistanceClient) -> u64 {
    client
        .metrics()
        .unwrap()
        .lines()
        .find(|l| l.starts_with("islabel_query_traced_total"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[test]
fn every_pair_of_a_remote_batch_reaches_the_phase_trace() {
    let g = erdos_renyi_gnm(100, 260, WeightModel::UniformRange(1, 5), 0x56);
    let index = IsLabelIndex::try_build(&g, BuildConfig::default()).unwrap();
    let server =
        DistanceServer::start(Arc::new(index), "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut client = DistanceClient::connect(server.local_addr()).unwrap();

    // Distinct endpoints: `s == t` short-circuits before the traced search.
    let pairs: Vec<(VertexId, VertexId)> = (0..40u32).map(|i| (i, (i * 7 + 1) % 100)).collect();
    assert!(pairs.iter().all(|&(s, t)| s != t));

    let before = traced_total(&mut client);
    client.distance_batch(&pairs).unwrap();
    let rose = traced_total(&mut client) - before;
    assert_eq!(
        rose,
        pairs.len() as u64,
        "a Batch of {} pairs was traced {rose} times",
        pairs.len()
    );
    assert_eq!(server.shutdown().queries, pairs.len() as u64);
}
