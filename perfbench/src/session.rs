//! One SPMD session through the program's public entry points: every
//! party runs `PartyContext::setup`, trains, predicts the held-out batch,
//! then serves a closed loop of single-sample requests. All calls are
//! timed from outside; the program's own counters are read afterwards.

use crate::probe::{self, LinkSnapshot};
use crate::spans;
use crate::workloads::{Inputs, Workload, PARTIES};
use pivot_core::config::{PivotParams, Protocol};
use pivot_core::metrics::Stage;
use pivot_core::{
    predict_basic, predict_enhanced, train_basic, train_enhanced, ConcealedNode, ConcealedTree,
    DealerPoolStats, PartyContext, VerificationCounters,
};
use pivot_paillier::NonceStats;
use pivot_trace::PartyTrace;
use pivot_transport::{try_run_parties_on, Endpoint};
use pivot_trees::DecisionTree;
use std::panic::AssertUnwindSafe;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Phases of a session, in order; traffic is snapshotted at each boundary.
pub const PHASES: [&str; 4] = ["setup", "train", "batch", "requests"];

#[derive(Clone, Debug)]
pub enum Model {
    Plain(DecisionTree),
    Concealed(ConcealedTree),
}

impl Model {
    /// Structural equality; concealed trees compare ciphertexts bit for bit.
    pub fn same_as(&self, other: &Model) -> bool {
        match (self, other) {
            (Model::Plain(a), Model::Plain(b)) => a == b,
            (Model::Concealed(a), Model::Concealed(b)) => {
                a.root == b.root
                    && a.task == b.task
                    && a.nodes.len() == b.nodes.len()
                    && a.nodes.iter().zip(&b.nodes).all(|(x, y)| same_node(x, y))
            }
            _ => false,
        }
    }
}

fn same_node(a: &ConcealedNode, b: &ConcealedNode) -> bool {
    match (a, b) {
        (
            ConcealedNode::Internal {
                client: c1,
                feature_global: f1,
                enc_threshold: t1,
                left: l1,
                right: r1,
            },
            ConcealedNode::Internal {
                client: c2,
                feature_global: f2,
                enc_threshold: t2,
                left: l2,
                right: r2,
            },
        ) => c1 == c2 && f1 == f2 && t1 == t2 && l1 == l2 && r1 == r2,
        (ConcealedNode::Leaf { enc_value: v1 }, ConcealedNode::Leaf { enc_value: v2 }) => v1 == v2,
        _ => false,
    }
}

/// What one session asks of every party.
pub struct Plan<'a> {
    pub workload: &'a Workload,
    pub params: PivotParams,
    pub inputs: &'a Inputs,
    /// Predict the held-out batch and serve requests (false: train only).
    pub predict: bool,
    /// Times the held-out batch is predicted.
    pub batch_reps: usize,
    /// Most closed-loop requests to serve.
    pub requests: usize,
    /// Wall-time budget of the closed loop (`None`: serve all `requests`).
    pub request_budget: Option<Duration>,
}

/// Everything one party reports back.
pub struct PartyOutcome {
    pub setup_s: f64,
    pub train_s: f64,
    /// Wall time of each held-out batch prediction.
    pub batch_s: Vec<f64>,
    /// Batch repetitions whose predictions differ from the first one's.
    pub batch_mismatches: usize,
    /// Per-request wall time of the closed loop.
    pub request_s: Vec<f64>,
    pub model: Model,
    pub batch_preds: Vec<f64>,
    pub request_preds: Vec<f64>,
    /// Probe traffic per phase (see [`PHASES`]).
    pub link: [LinkSnapshot; 4],
    /// The program's `NetStats::bytes_sent` per phase.
    pub netstats_sent: [u64; 4],
    /// Program counters at the end of training (setup included).
    pub at_train: Counters,
    /// Program counters at the end of the session.
    pub at_end: Counters,
    /// Comparison-width histogram of the whole session: `(width, count)`.
    pub widths: Vec<(u32, u64)>,
    pub trace: Option<PartyTrace>,
}

/// A snapshot of one party's program counters. Snapshots subtract, so a
/// session's counters split into a training part and a prediction part.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub encryptions: u64,
    pub ciphertext_ops: u64,
    pub threshold_decryptions: u64,
    pub split_stat_ciphertexts: u64,
    pub rounds: u64,
    pub secure_mults: u64,
    pub comparisons: u64,
    pub comparison_rounds: u64,
    pub opened_elements: u64,
    pub beaver_triples: u64,
    pub dealer: DealerPoolStats,
    pub nonce: NonceStats,
    /// Stage timers: local, MPC, model update, prediction (seconds).
    pub stage_s: [f64; 4],
    pub verification: VerificationCounters,
}

impl Counters {
    fn read(ctx: &PartyContext<'_>) -> Counters {
        let (rounds, secure_mults, _, _) = ctx.engine.counters().snapshot();
        let cmp = ctx.engine.comparison_snapshot();
        Counters {
            encryptions: ctx.metrics.encryptions(),
            ciphertext_ops: ctx.metrics.ciphertext_ops(),
            threshold_decryptions: ctx.metrics.threshold_decryptions(),
            split_stat_ciphertexts: ctx.metrics.split_stat_ciphertexts(),
            rounds,
            secure_mults,
            comparisons: cmp.count,
            comparison_rounds: cmp.online_rounds,
            opened_elements: cmp.opened_elements,
            beaver_triples: cmp.beaver_triples,
            dealer: ctx.engine.dealer_pool_stats(),
            nonce: ctx.nonces.stats(),
            stage_s: [
                Stage::LocalComputation,
                Stage::MpcComputation,
                Stage::ModelUpdate,
                Stage::Prediction,
            ]
            .map(|s| ctx.metrics.stage_time(s).as_secs_f64()),
            verification: ctx.metrics.verification(),
        }
    }

    /// The counts accrued since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let d = &self.dealer;
        let e = &earlier.dealer;
        let v = &self.verification;
        let w = &earlier.verification;
        Counters {
            encryptions: self.encryptions - earlier.encryptions,
            ciphertext_ops: self.ciphertext_ops - earlier.ciphertext_ops,
            threshold_decryptions: self.threshold_decryptions - earlier.threshold_decryptions,
            split_stat_ciphertexts: self.split_stat_ciphertexts - earlier.split_stat_ciphertexts,
            rounds: self.rounds - earlier.rounds,
            secure_mults: self.secure_mults - earlier.secure_mults,
            comparisons: self.comparisons - earlier.comparisons,
            comparison_rounds: self.comparison_rounds - earlier.comparison_rounds,
            opened_elements: self.opened_elements - earlier.opened_elements,
            beaver_triples: self.beaver_triples - earlier.beaver_triples,
            dealer: DealerPoolStats {
                target: d.target,
                triple_hits: d.triple_hits - e.triple_hits,
                triple_misses: d.triple_misses - e.triple_misses,
                masked_hits: d.masked_hits - e.masked_hits,
                masked_misses: d.masked_misses - e.masked_misses,
                produced: d.produced - e.produced,
            },
            nonce: NonceStats {
                hits: self.nonce.hits - earlier.nonce.hits,
                misses: self.nonce.misses - earlier.nonce.misses,
                produced: self.nonce.produced - earlier.nonce.produced,
                target: self.nonce.target,
            },
            stage_s: std::array::from_fn(|k| self.stage_s[k] - earlier.stage_s[k]),
            verification: VerificationCounters {
                proofs_generated: v.proofs_generated - w.proofs_generated,
                proofs_verified: v.proofs_verified - w.proofs_verified,
                proofs_skipped: v.proofs_skipped - w.proofs_skipped,
                proofs_rejected: v.proofs_rejected - w.proofs_rejected,
                proof_bytes: v.proof_bytes - w.proof_bytes,
                wall: v.wall.saturating_sub(w.wall),
            },
        }
    }
}

/// Requests timed before the loop length is decided.
const PILOT_REQUESTS: usize = 50;

/// The closed loop's length, decided once by party 0 after the pilot and
/// handed to the other party threads out of band (not over the program's
/// links, so the measured traffic is the protocol's alone).
#[derive(Default)]
struct RequestCount {
    decided: Mutex<Option<usize>>,
    ready: Condvar,
}

impl RequestCount {
    /// Party 0: fit as many requests as the budget allows at the pilot's
    /// pace, between the pilot and the plan's maximum.
    fn decide(&self, plan: &Plan, pilot_time: Duration, pilot: usize) -> usize {
        let total = match plan.request_budget {
            None => plan.requests,
            Some(budget) => {
                let per_request = pilot_time.as_secs_f64() / pilot as f64;
                let more = budget.saturating_sub(pilot_time).as_secs_f64() / per_request;
                (pilot + more as usize).min(plan.requests)
            }
        };
        *self.decided.lock().expect("request count poisoned") = Some(total);
        self.ready.notify_all();
        total
    }

    /// Parties 1..m: wait for party 0's decision.
    fn wait(&self) -> usize {
        let deadline = Instant::now() + DECISION_TIMEOUT;
        let mut decided = self.decided.lock().expect("request count poisoned");
        loop {
            if let Some(total) = *decided {
                return total;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "party 0 never decided the loop length");
            decided = self
                .ready
                .wait_timeout(decided, left)
                .expect("request count poisoned")
                .0;
        }
    }
}

/// How long a party waits for the loop length before giving up (party 0
/// failed); the same order as the transport's own wedge timeout.
const DECISION_TIMEOUT: Duration = Duration::from_secs(120);

/// Run one session on a fresh probe mesh. `Err` carries every failed
/// party's error (or the panic message of an untyped failure).
pub fn run(plan: &Plan) -> Result<Vec<PartyOutcome>, String> {
    let (endpoints, counters) = probe::mesh(PARTIES, &plan.workload.net());
    let count = RequestCount::default();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        try_run_parties_on(endpoints, |ep| {
            let links = &counters[ep.id()];
            party(plan, &ep, &count, || links.snapshot())
        })
    }));
    let results = outcome.map_err(|p| {
        format!(
            "session panicked: {}",
            pivot_transport::panic_message(p.as_ref())
        )
    })?;
    let mut out = Vec::with_capacity(PARTIES);
    let mut errors = Vec::new();
    for r in results {
        match r {
            Ok(o) => out.push(o),
            Err(e) => errors.push(e.to_string()),
        }
    }
    if errors.is_empty() {
        Ok(out)
    } else {
        Err(errors.join("; "))
    }
}

fn party(
    plan: &Plan,
    ep: &Endpoint,
    count: &RequestCount,
    links: impl Fn() -> LinkSnapshot,
) -> PartyOutcome {
    let id = ep.id();
    spans::set_party(id);
    pivot_trace::install(id, plan.params.trace);
    ep.set_coalescing(true);

    let mut marks = vec![(links(), ep.stats().bytes_sent())];
    let mut mark = |ep: &Endpoint| {
        ep.flush();
        marks.push((links(), ep.stats().bytes_sent()));
    };

    // Span request ids: 0 for the session's own calls, 1.. for requests.
    let req = 0;
    let view = plan.inputs.train_part.views[id].clone();
    let start = Instant::now();
    let mut ctx = {
        let _s = spans::open_request("setup", req);
        PartyContext::setup(ep, view, plan.params.clone())
    };
    let setup_s = start.elapsed().as_secs_f64();
    mark(ep);

    let start = Instant::now();
    let model = {
        let _s = spans::open_request("train", req);
        match plan.workload.protocol {
            Protocol::Basic => Model::Plain(train_basic::train(&mut ctx)),
            Protocol::Enhanced => Model::Concealed(train_enhanced::train(&mut ctx)),
        }
    };
    ep.flush();
    let train_s = start.elapsed().as_secs_f64();
    mark(ep);
    let at_train = Counters::read(&ctx);

    let test_view = &plan.inputs.test_part.views[id];
    let local: Vec<Vec<f64>> = (0..test_view.num_samples())
        .map(|i| test_view.features[i].clone())
        .collect();
    let mut batch_s = Vec::new();
    let mut batch_mismatches = 0;
    let mut batch_preds = Vec::new();
    let mut request_s = Vec::new();
    let mut request_preds = Vec::new();
    if plan.predict {
        for rep in 0..plan.batch_reps {
            let start = Instant::now();
            let preds = {
                let _s = spans::open_request("predict.batch", req);
                let _p = pivot_trace::phase_span("predict");
                match &model {
                    Model::Plain(t) => predict_basic::predict_batch(&mut ctx, t, &local),
                    Model::Concealed(t) => predict_enhanced::predict_batch(&mut ctx, t, &local),
                }
            };
            ep.flush();
            batch_s.push(start.elapsed().as_secs_f64());
            if rep == 0 {
                batch_preds = preds;
            } else if preds != batch_preds {
                batch_mismatches += 1;
            }
        }
        mark(ep);

        // A pilot of the first requests sets how many fit the time budget;
        // party 0 decides and the others follow (see `RequestCount`).
        let pilot = plan.requests.min(PILOT_REQUESTS);
        let mut total = pilot;
        let loop_start = Instant::now();
        let mut k = 0;
        while k < total {
            let i = plan.inputs.request_order[k];
            let start = Instant::now();
            let y = {
                let _s = spans::open_request("predict.request", req + 1 + k as u64);
                let _p = pivot_trace::phase_span("predict");
                match &model {
                    Model::Plain(t) => predict_basic::predict(&mut ctx, t, &local[i]),
                    Model::Concealed(t) => predict_enhanced::predict(&mut ctx, t, &local[i]),
                }
            };
            request_s.push(start.elapsed().as_secs_f64());
            request_preds.push(y);
            k += 1;
            if k == pilot {
                total = if id == 0 {
                    count.decide(plan, loop_start.elapsed(), pilot)
                } else {
                    count.wait()
                };
            }
        }
        ep.flush();
    } else {
        mark(ep);
    }
    mark(ep);

    let phase = |k: usize| {
        (
            marks[k + 1].0.since(&marks[k].0),
            marks[k + 1].1 - marks[k].1,
        )
    };
    let phases: Vec<(LinkSnapshot, u64)> = (0..4).map(phase).collect();
    PartyOutcome {
        setup_s,
        train_s,
        batch_s,
        batch_mismatches,
        request_s,
        model,
        batch_preds,
        request_preds,
        link: std::array::from_fn(|k| phases[k].0),
        netstats_sent: std::array::from_fn(|k| phases[k].1),
        at_train,
        at_end: Counters::read(&ctx),
        widths: ctx.engine.comparison_snapshot().widths,
        trace: pivot_trace::finish(),
    }
}
