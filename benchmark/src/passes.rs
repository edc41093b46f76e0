//! The two closed-loop measurement loops every workload and probe is
//! built from: an in-process pass (one caller, one session) and a remote
//! pass (one thread per connection, a fixed window of requests in
//! flight). Callers wait for each reply before sending the next, so a
//! slower system receives less load — closed loop everywhere.

use crate::stats::{highest_supported_percentile, percentile_us};
use crate::trace::Tracer;
use islabel_graph::{Dist, VertexId};
use islabel_net::protocol::{Request, Response};
use islabel_net::DistanceClient;
use std::collections::VecDeque;
use std::time::Instant;

/// A query pair.
pub type Pair = (VertexId, VertexId);

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Per-op latencies in nanoseconds, **in op order**: op `i` of every
    /// replay of the same list is the same query, which is what lets
    /// [`Best`] compare them.
    pub lat_ns: Vec<u64>,
    /// Wall time of the whole pass.
    pub wall_ns: u64,
    /// Answers in pair order (`None` also stands in for a failed op).
    pub answers: Vec<Option<Dist>>,
    /// Ops that returned an error.
    pub errors: u64,
}

/// Nearest-rank percentiles of one latency sample, in µs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50_us: f64,
    /// p90 — or the highest percentile below it that the sample supports
    /// (ten samples beyond it).
    pub p90_us: f64,
    /// The highest percentile the sample supports, at most p99. Context
    /// in the result file, not a gated metric: on this sandbox a p99 moves
    /// by 30-45 % between identical runs.
    pub p99_us: f64,
}

impl Percentiles {
    /// Percentiles of `lat_ns` (any order).
    pub fn of(lat_ns: &[u64]) -> Percentiles {
        let mut sorted = lat_ns.to_vec();
        sorted.sort_unstable();
        let supported = highest_supported_percentile(sorted.len());
        Percentiles {
            p50_us: percentile_us(&sorted, 0.50),
            p90_us: percentile_us(&sorted, supported.min(0.90)),
            p99_us: percentile_us(&sorted, supported),
        }
    }
}

impl Pass {
    /// Joins passes over consecutive slices of one pair list into one
    /// (latencies and answers stay in pair order, wall times add up).
    pub fn concat(parts: impl IntoIterator<Item = Pass>) -> Pass {
        let mut whole = Pass::default();
        for part in parts {
            whole.lat_ns.extend(part.lat_ns);
            whole.answers.extend(part.answers);
            whole.wall_ns += part.wall_ns;
            whole.errors += part.errors;
        }
        whole
    }

    /// Percentiles of this pass's latencies.
    pub fn percentiles(&self) -> Percentiles {
        Percentiles::of(&self.lat_ns)
    }

    /// Median latency in µs.
    pub fn p50_us(&self) -> f64 {
        self.percentiles().p50_us
    }

    /// Mean latency in µs.
    pub fn mean_us(&self) -> f64 {
        if self.lat_ns.is_empty() {
            0.0
        } else {
            self.lat_ns.iter().sum::<u64>() as f64 / self.lat_ns.len() as f64 / 1e3
        }
    }

    /// Ops per second over the pass's wall time.
    pub fn ops_per_s(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.lat_ns.len() as f64 / (self.wall_ns as f64 / 1e9)
        }
    }
}

/// Per-op best of several replays of one op list.
///
/// The sandbox's noise is contention for the memory system by neighbours:
/// it comes and goes within fractions of a second and only ever makes an
/// op *slower*. Replaying the same list a fixed number of times and
/// keeping, for every op, its fastest replay rejects that noise op by op —
/// percentiles over the per-op bests repeat to a few percent where the
/// median over rounds of per-round percentiles moves by 10-20 %. The
/// number of replays is fixed by the plan, never by the clock: a best of
/// more replays is lower, so a faster commit must not get more of them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Best {
    /// Fastest replay of each op so far, in op order.
    pub ns: Vec<u64>,
    /// Replays folded in.
    pub replays: usize,
}

impl Best {
    /// Folds one replay's per-op latencies in.
    pub fn fold(&mut self, lat_ns: &[u64]) {
        if self.replays == 0 {
            self.ns = lat_ns.to_vec();
        } else {
            for (best, &ns) in self.ns.iter_mut().zip(lat_ns) {
                *best = (*best).min(ns);
            }
        }
        self.replays += 1;
    }

    /// Sum of the per-op bests: the time one undisturbed replay takes.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// Answers `pairs` one after the other through `answer`, timing each.
///
/// One clock read per op: op `i`'s latency runs from the read that ended
/// op `i - 1` to the read that ends it, so the loop's own bookkeeping —
/// and, in a traced run, the span push — is inside the measurement, the
/// way a caller in a closed loop experiences it. Each op is also recorded
/// as a `span` leaf (a no-op for a disabled tracer).
pub fn session_pass<E>(
    pairs: &[Pair],
    tracer: &mut Tracer,
    span: &'static str,
    request_base: u64,
    mut answer: impl FnMut(VertexId, VertexId) -> Result<Option<Dist>, E>,
) -> Pass {
    let mut lat_ns = Vec::with_capacity(pairs.len());
    let mut answers = Vec::with_capacity(pairs.len());
    let mut errors = 0;
    let start = Instant::now();
    let mut prev = start;
    for (i, &(s, t)) in pairs.iter().enumerate() {
        let d = answer(s, t).unwrap_or_else(|_| {
            errors += 1;
            None
        });
        let now = Instant::now();
        lat_ns.push(now.duration_since(prev).as_nanos() as u64);
        tracer.record(span, request_base + i as u64, prev, now);
        answers.push(d);
        prev = now;
    }
    let wall_ns = prev.duration_since(start).as_nanos() as u64;
    Pass {
        lat_ns,
        wall_ns,
        answers,
        errors,
    }
}

/// [`session_pass`] with no spans: warm-ups, gates, and the lanes of the
/// probes (which record one span per batch themselves).
pub fn plain_pass<E>(
    pairs: &[Pair],
    answer: impl FnMut(VertexId, VertexId) -> Result<Option<Dist>, E>,
) -> Pass {
    session_pass(pairs, &mut Tracer::disabled(), "", 0, answer)
}

/// Drives one connection per element of `clients` from its own thread,
/// each over its own slice of `pairs` (split evenly, in order) with
/// `depth` requests in flight. Latency is send → response. Returns the
/// merged pass; latencies and answers are in `pairs` order (connection 0's
/// slice first).
pub fn remote_pass(clients: &mut [DistanceClient], pairs: &[Pair], depth: usize) -> Pass {
    let per_conn = pairs.len().div_ceil(clients.len().max(1)).max(1);
    let start = Instant::now();
    let parts: Vec<Pass> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(pairs.chunks(per_conn))
            .map(|(client, chunk)| scope.spawn(move || drive_connection(client, chunk, depth)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("benchmark client thread panicked"))
            .collect()
    });
    // The connections ran side by side: the pass took as long as the
    // slowest, not their sum.
    Pass {
        wall_ns: start.elapsed().as_nanos() as u64,
        ..Pass::concat(parts)
    }
}

fn drive_connection(client: &mut DistanceClient, chunk: &[Pair], depth: usize) -> Pass {
    let mut pass = Pass {
        lat_ns: Vec::with_capacity(chunk.len()),
        answers: Vec::with_capacity(chunk.len()),
        ..Pass::default()
    };
    let mut inflight: VecDeque<(u64, Instant)> = VecDeque::with_capacity(depth);
    let mut next = 0;
    while next < chunk.len() || !inflight.is_empty() {
        let mut sent = Ok(());
        while sent.is_ok() && next < chunk.len() && inflight.len() < depth {
            let (s, t) = chunk[next];
            next += 1;
            let sent_at = Instant::now();
            sent = client
                .send(&Request::Query { s, t })
                .map(|id| inflight.push_back((id, sent_at)));
        }
        let reply = sent
            .and_then(|()| client.flush())
            .and_then(|()| client.recv());
        let Some((id, sent_at)) = inflight.pop_front() else {
            break;
        };
        pass.lat_ns.push(sent_at.elapsed().as_nanos() as u64);
        match reply {
            // Responses on one connection arrive in request order.
            Ok((rid, Response::Distance(d))) if rid == id => pass.answers.push(d),
            Ok((rid, Response::Error(_))) if rid == id => {
                pass.errors += 1;
                pass.answers.push(None);
            }
            // A transport failure or a reply out of order: nothing further
            // on this connection can be trusted.
            _ => break,
        }
    }
    // Whatever was not answered counts as failed.
    pass.errors += (chunk.len() - pass.answers.len()) as u64;
    pass.answers.resize(chunk.len(), None);
    pass
}
