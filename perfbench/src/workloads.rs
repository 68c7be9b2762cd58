//! The workload catalog. `README.md` next to this crate gives each
//! workload's rationale and its predicted dominant layer; the `why`
//! strings here are the one-line versions that `BENCHMARK.json` carries.

use crate::json::Json;
use pivot_core::config::{Packing, PivotParams, Protocol, Scheduling, Verification};
use pivot_core::{CompareBits, TraceLevel};
use pivot_data::{partition_vertically, synth, Dataset, VerticalPartition};
use pivot_transport::NetConfig;
use pivot_trees::TreeParams;
use std::time::Duration;

/// Clients in every workload (the paper's default `m`).
pub const PARTIES: usize = 3;
/// Label classes of the synthetic data.
const CLASSES: usize = 2;
/// Tree depth `h`.
const MAX_DEPTH: usize = 3;
/// Offline nonce-pool size (`r^N` powers kept precomputed per party).
const NONCE_POOL: usize = 256;
/// Offline dealer-pool size (rows per preprocessing stream).
const DEALER_POOL: usize = 512;

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// The layer this workload's time is predicted to sit in.
    pub dominant_layer: &'static str,
    pub protocol: Protocol,
    pub train_samples: usize,
    pub test_samples: usize,
    pub features_per_party: usize,
    /// Max candidate splits per feature (`b`).
    pub max_splits: usize,
    pub keysize: u32,
    pub packing: Packing,
    pub latency_us: u64,
    pub bandwidth_mbps: f64,
    pub verification: Verification,
    /// Most closed-loop single-sample prediction requests per session.
    pub requests: usize,
    /// Wall-time budget of a session's closed loop, in seconds: on a
    /// slower machine the loop serves fewer requests instead of running
    /// long.
    pub request_seconds: u64,
    /// Closed-loop requests in the traced session.
    pub traced_requests: usize,
    /// Times the held-out batch is predicted per session (timed each).
    pub batch_reps: usize,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "train-basic-lan",
        why: "Pivot-Basic-PP, 300 samples, 512-bit keys, no simulated network: compute-bound, Paillier and bignum work on the super client decide the time",
        dominant_layer: "pivot-paillier",
        protocol: Protocol::Basic,
        train_samples: 300,
        test_samples: 100,
        features_per_party: 4,
        max_splits: 8,
        keysize: 512,
        packing: Packing::Auto,
        latency_us: 0,
        bandwidth_mbps: 0.0,
        verification: Verification::Off,
        requests: 1000,
        request_seconds: 2,
        traced_requests: 100,
        batch_reps: 3,
    },
    Workload {
        name: "train-enhanced-wan",
        why: "Pivot-Enhanced-PP over a simulated 25 ms / 100 Mbit/s link: rounds, frames and bytes decide the time, crypto speed should not",
        dominant_layer: "pivot-transport",
        protocol: Protocol::Enhanced,
        train_samples: 48,
        test_samples: 64,
        features_per_party: 4,
        max_splits: 4,
        keysize: 256,
        packing: Packing::Auto,
        latency_us: 25_000,
        bandwidth_mbps: 100.0,
        verification: Verification::Off,
        requests: 3,
        request_seconds: 60,
        traced_requests: 3,
        batch_reps: 1,
    },
    Workload {
        name: "predict-online",
        why: "closed loop of single-sample Pivot-Enhanced-PP predictions on 512-bit keys: fixed per-call decryption and comparison cost decides latency",
        dominant_layer: "pivot-mpc",
        protocol: Protocol::Enhanced,
        train_samples: 48,
        test_samples: 256,
        features_per_party: 4,
        max_splits: 4,
        keysize: 512,
        packing: Packing::Auto,
        latency_us: 0,
        bandwidth_mbps: 0.0,
        verification: Verification::Off,
        requests: 2000,
        request_seconds: 3,
        traced_requests: 200,
        batch_reps: 5,
    },
    Workload {
        name: "train-verified",
        why: "Pivot-Basic-PP with spot(0.25) zero-knowledge verification: proof generation and checking in pivot-zkp decide the time",
        dominant_layer: "pivot-zkp",
        protocol: Protocol::Basic,
        train_samples: 96,
        test_samples: 128,
        features_per_party: 3,
        max_splits: 4,
        keysize: 256,
        packing: Packing::Off,
        latency_us: 0,
        bandwidth_mbps: 0.0,
        verification: Verification::Spot(0.25),
        requests: 600,
        request_seconds: 3,
        traced_requests: 100,
        batch_reps: 3,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The generated inputs of one run: everything the program sees.
pub struct Inputs {
    pub train: Dataset,
    pub test: Dataset,
    pub train_part: VerticalPartition,
    pub test_part: VerticalPartition,
    /// Closed-loop request order: indices into the test set.
    pub request_order: Vec<usize>,
}

impl Workload {
    pub fn tree_params(&self) -> TreeParams {
        TreeParams {
            max_depth: MAX_DEPTH,
            // Complete trees on every seed: no node is pruned for being
            // small or pure, so the protocol's work depends on the shape
            // parameters, not on how a seed's data happens to split.
            min_samples: 0,
            max_splits: self.max_splits,
            stop_when_pure: false,
        }
    }

    pub fn request_budget(&self) -> Duration {
        Duration::from_secs(self.request_seconds)
    }

    pub fn net(&self) -> NetConfig {
        NetConfig {
            latency: Duration::from_micros(self.latency_us),
            bandwidth_mbps: self.bandwidth_mbps,
            ..NetConfig::default()
        }
    }

    /// Program parameters. The workload seed reaches the program only as
    /// the generated data and the dealer seed derived from it.
    pub fn params(&self, seed: u64, threads: usize, trace: TraceLevel) -> PivotParams {
        let mut p = match self.protocol {
            Protocol::Basic => PivotParams::default(),
            Protocol::Enhanced => PivotParams::enhanced(),
        };
        p.tree = self.tree_params();
        p.keysize = self.keysize;
        p.parallel_decrypt = true;
        p.crypto_threads = threads;
        p.randomness_pool = NONCE_POOL;
        p.packing = self.packing;
        p.comparison_bits = CompareBits::Auto;
        p.dealer_pool = DEALER_POOL;
        p.dealer_seed = dealer_seed(seed);
        p.scheduling = Scheduling::Pipelined;
        p.verification = self.verification;
        p.trace = trace;
        p
    }

    /// Generate this workload's inputs from the seed.
    pub fn inputs(&self, seed: u64) -> Inputs {
        let features = PARTIES * self.features_per_party;
        let data = synth::make_classification(&synth::ClassificationSpec {
            samples: self.train_samples + self.test_samples,
            features,
            informative: features.div_ceil(2),
            classes: CLASSES,
            class_sep: 1.5,
            flip_y: 0.01,
            seed,
        });
        // Min-max scale every column to [-1, 1] on the training rows and
        // clip the held-out rows to that range. Enhanced prediction batches
        // its comparisons by each split feature's published power-of-two
        // range (training column plus requested samples), so raw columns
        // would make the number of comparison batches per request (and its
        // WAN latency) depend on the seed; these columns all publish 1.
        let data = scale_columns(&data, self.train_samples);
        // Samples are i.i.d., so a prefix split is a random split.
        let train_idx: Vec<usize> = (0..self.train_samples).collect();
        let test_idx: Vec<usize> = (self.train_samples..data.num_samples()).collect();
        let train = data.subset(&train_idx);
        let test = data.subset(&test_idx);
        let train_part = partition_vertically(&train, PARTIES, 0);
        let test_part = partition_vertically(&test, PARTIES, 0);
        let count = self.requests.max(self.traced_requests);
        let request_order = request_order(seed, count, self.test_samples);
        Inputs {
            train,
            test,
            train_part,
            test_part,
            request_order,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("name", self.name)
            .with("why", self.why)
            .with("dominant_layer", self.dominant_layer)
            .with("parties", PARTIES)
            .with(
                "protocol",
                match self.protocol {
                    Protocol::Basic => "Pivot-Basic-PP",
                    Protocol::Enhanced => "Pivot-Enhanced-PP",
                },
            )
            .with("train_samples", self.train_samples)
            .with("test_samples", self.test_samples)
            .with("features_per_party", self.features_per_party)
            .with("classes", CLASSES)
            .with("b", self.max_splits)
            .with("h", MAX_DEPTH)
            .with("keysize", self.keysize)
            .with(
                "packing",
                match self.packing {
                    Packing::Off => "off".to_string(),
                    Packing::Auto => "auto".to_string(),
                    Packing::Slots(n) => format!("slots({n})"),
                },
            )
            .with("comparison_bits", "auto")
            .with("scheduling", "pipelined")
            .with("randomness_pool", NONCE_POOL)
            .with("dealer_pool", DEALER_POOL)
            .with("latency_us", self.latency_us)
            .with("bandwidth_mbps", self.bandwidth_mbps)
            .with(
                "verification",
                match self.verification {
                    Verification::Off => "off".to_string(),
                    Verification::Spot(p) => format!("spot({p})"),
                    Verification::Full => "full".to_string(),
                },
            )
            .with("batch_reps", self.batch_reps)
            .with("requests", self.requests)
            .with("request_seconds", self.request_seconds)
            .with("traced_requests", self.traced_requests)
    }
}

/// Scale each feature column linearly so its first `fit` rows span
/// exactly [-1, 1]; later rows are clipped into that range.
fn scale_columns(data: &Dataset, fit: usize) -> Dataset {
    let ranges: Vec<(f64, f64)> = (0..data.num_features())
        .map(|j| {
            let col = &data.feature_column(j)[..fit];
            let lo = col.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = col.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (lo, hi)
        })
        .collect();
    let rows = (0..data.num_samples())
        .map(|i| {
            ranges
                .iter()
                .enumerate()
                .map(|(j, &(lo, hi))| {
                    if hi > lo {
                        ((data.value(i, j) - lo) / (hi - lo) * 2.0 - 1.0).clamp(-1.0, 1.0)
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();
    Dataset::new(rows, data.labels().to_vec(), data.task())
}

pub fn dealer_seed(seed: u64) -> u64 {
    splitmix(seed ^ 0xD1CE_5EED)
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seeded request order over the test set: a shuffled pass, repeated.
fn request_order(seed: u64, count: usize, pool: usize) -> Vec<usize> {
    let mut state = seed ^ 0x0DE2_0F2E;
    let mut order = Vec::with_capacity(count);
    while order.len() < count {
        let mut pass: Vec<usize> = (0..pool).collect();
        for i in (1..pass.len()).rev() {
            state = splitmix(state);
            pass.swap(i, (state % (i as u64 + 1)) as usize);
        }
        order.extend(pass);
    }
    order.truncate(count);
    order
}
