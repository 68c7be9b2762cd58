//! Run modes, the correctness gate, and metric assembly.

use crate::calib;
use crate::json::Json;
use crate::probe;
use crate::session::{self, Counters, Model, PartyOutcome, Plan};
use crate::spans;
use crate::workloads::{Inputs, Workload, PARTIES};
use crate::Args;
use pivot_core::config::Verification;
use pivot_core::{PartyContext, TraceLevel};
use pivot_data::metrics::accuracy;
use pivot_paillier::fixtures;
use pivot_transport::run_parties_on;
use pivot_trees::train_tree;
use std::process::Command;
use std::time::Instant;

/// Cold setups measured per run, each in its own process (the prime
/// cache is per process, so only a fresh process pays what a user's first
/// session pays).
const SETUP_PROBES: usize = 9;

/// How far below plaintext CART the joint predictions may score.
const ACCURACY_MARGIN: f64 = 0.10;

/// The trace phases reported per layer (`core.phase.<p>.*`).
const TRACE_PHASES: [&str; 8] = [
    "setup",
    "stats",
    "conversion",
    "gain",
    "split_reveal",
    "update",
    "leaf",
    "predict",
];

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub details: Json,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Count one operation; `problems` empty means it passed.
    fn op(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures
                    .push(format!("{what}: {}", problems.join("; ")));
            }
        }
    }

    fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            samples,
        });
    }

    pub fn metrics_json(&self, with_samples: bool) -> Json {
        let mut out = Json::obj();
        for m in &self.metrics {
            let mut v = Json::obj().with("value", m.value).with("unit", m.unit);
            if with_samples {
                v.set("samples", m.samples);
            }
            out.set(&m.name, v);
        }
        out
    }

    pub fn summary(&self, workload: &str) -> String {
        let mut s = format!(
            "{workload}: correct={} attempted={} failed={}\n",
            self.correct(),
            self.attempted,
            self.failed
        );
        for f in &self.failures {
            s.push_str(&format!("  FAILED {f}\n"));
        }
        for m in &self.metrics {
            s.push_str(&format!(
                "  {:<34} {:>14.6} {:<6} (n={})\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        s
    }
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile (`q` in (0, 1]); 0 for an empty slice.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Restart the kernel's peak-RSS mark for this process (Linux: writing 5
/// to `/proc/self/clear_refs` affects only this process), so each session
/// reports its own peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size since the last reset, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn max_of(outs: &[PartyOutcome], f: impl Fn(&PartyOutcome) -> f64) -> f64 {
    outs.iter().map(f).fold(0.0, f64::max)
}

fn sum_of(outs: &[PartyOutcome], f: impl Fn(&PartyOutcome) -> u64) -> u64 {
    outs.iter().map(f).sum()
}

/// One cold setup, run as a child process: fixture key generation on an
/// empty prime cache, then `PartyContext::setup` on every party. Prints
/// `<setup_s> <keygen_s>`.
pub fn setup_probe(w: &Workload, seed: u64) {
    let inputs = w.inputs(seed);
    let params = w.params(seed, threads(), TraceLevel::Off);
    let start = Instant::now();
    let _keys = fixtures::threshold_keys(PARTIES, w.keysize);
    let keygen_s = start.elapsed().as_secs_f64();
    let (endpoints, _) = probe::mesh(PARTIES, &w.net());
    run_parties_on(endpoints, |ep| {
        ep.set_coalescing(true);
        let view = inputs.train_part.views[ep.id()].clone();
        drop(PartyContext::setup(&ep, view, params.clone()));
    });
    let setup_s = start.elapsed().as_secs_f64();
    println!("{setup_s} {keygen_s}");
}

/// Run this executable as a child process for one cold setup.
fn spawn_setup_probe(w: &Workload, seed: u64) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--setup-probe", "--workload", w.name, "--seed"])
        .arg(seed.to_string())
        .output()
        .map_err(|e| format!("spawn setup probe: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "setup probe exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut fields = text.split_whitespace().map(str::parse::<f64>);
    match (fields.next(), fields.next()) {
        (Some(Ok(setup)), Some(Ok(keygen))) => Ok((setup, keygen)),
        _ => Err(format!("setup probe printed {text:?}")),
    }
}

/// Run the cold-setup probes; returns setup and keygen samples.
fn setup_probes(w: &Workload, seed: u64, result: &mut RunResult) -> (Vec<f64>, Vec<f64>) {
    let mut setup = Vec::new();
    let mut keygen = Vec::new();
    for _ in 0..SETUP_PROBES {
        match spawn_setup_probe(w, seed) {
            Ok((s, k)) => {
                setup.push(s);
                keygen.push(k);
                result.op("setup", Vec::new());
            }
            Err(e) => result.op("setup", vec![e]),
        }
    }
    (setup, keygen)
}

/// Plaintext CART on the same training set: the accuracy yardstick.
struct Cart {
    accuracy: f64,
    train_s: f64,
}

fn cart(w: &Workload, inputs: &Inputs) -> Cart {
    let start = Instant::now();
    let tree = train_tree(&inputs.train, &w.tree_params());
    let train_s = start.elapsed().as_secs_f64();
    let preds = tree.predict_batch(&test_rows(inputs));
    Cart {
        accuracy: accuracy(&preds, inputs.test.labels()),
        train_s,
    }
}

fn test_rows(inputs: &Inputs) -> Vec<Vec<f64>> {
    (0..inputs.test.num_samples())
        .map(|i| inputs.test.sample(i).to_vec())
        .collect()
}

/// The same seed trained with verification off: `train-verified` must
/// release exactly this model.
fn unverified_reference(
    w: &Workload,
    inputs: &Inputs,
    seed: u64,
    result: &mut RunResult,
) -> Option<Model> {
    if !w.verification.is_on() {
        return None;
    }
    let mut params = w.params(seed, threads(), TraceLevel::Off);
    params.verification = Verification::Off;
    let plan = Plan {
        workload: w,
        params,
        inputs,
        predict: false,
        batch_reps: 0,
        requests: 0,
        request_budget: None,
    };
    match session::run(&plan) {
        Ok(outs) => {
            result.op("reference session", Vec::new());
            Some(outs[0].model.clone())
        }
        Err(e) => {
            result.op("reference session", vec![e]);
            None
        }
    }
}

/// The correctness gate for one session. Returns the session's accuracy
/// when it predicted.
fn check_session(
    w: &Workload,
    inputs: &Inputs,
    outs: &[PartyOutcome],
    predicted: bool,
    cart_accuracy: f64,
    reference: Option<&Model>,
    result: &mut RunResult,
) -> Option<f64> {
    let mut problems = Vec::new();
    for (p, o) in outs.iter().enumerate().skip(1) {
        if !o.model.same_as(&outs[0].model) {
            problems.push(format!("party {p} released a different model than party 0"));
        }
    }
    for (p, o) in outs.iter().enumerate() {
        for (k, phase) in session::PHASES.iter().enumerate() {
            if o.link[k].bytes_sent != o.netstats_sent[k] {
                problems.push(format!(
                    "party {p} {phase}: probe counted {} bytes sent, NetStats {}",
                    o.link[k].bytes_sent, o.netstats_sent[k]
                ));
            }
        }
    }
    if w.verification.is_on() {
        for (p, o) in outs.iter().enumerate() {
            let rejected = o.at_end.verification.proofs_rejected;
            if rejected != 0 {
                problems.push(format!("party {p} rejected {rejected} proofs"));
            }
        }
        match reference {
            Some(m) if m.same_as(&outs[0].model) => {}
            Some(_) => problems.push("model differs from the verification-off model".into()),
            None => problems.push("no verification-off model to compare with".into()),
        }
    }
    result.op("training session", problems);
    if !predicted {
        return None;
    }

    let preds = &outs[0].batch_preds;
    let mut problems = Vec::new();
    for (p, o) in outs.iter().enumerate() {
        if &o.batch_preds != preds {
            problems.push(format!("party {p} opened different batch predictions"));
        }
        if o.request_preds.len() != outs[0].request_preds.len() {
            problems.push(format!(
                "party {p} served {} requests, party 0 {}",
                o.request_preds.len(),
                outs[0].request_preds.len()
            ));
        }
        if o.batch_mismatches > 0 {
            problems.push(format!(
                "party {p}: {} repeated batches predicted differently",
                o.batch_mismatches
            ));
        }
    }
    if let Model::Plain(tree) = &outs[0].model {
        let local = tree.predict_batch(&test_rows(inputs));
        let differ = local.iter().zip(preds).filter(|(a, b)| a != b).count();
        if differ > 0 || local.len() != preds.len() {
            problems.push(format!(
                "{differ} joint predictions differ from the released tree's own"
            ));
        }
    }
    let acc = if preds.len() == inputs.test.num_samples() {
        accuracy(preds, inputs.test.labels())
    } else {
        0.0
    };
    if acc < cart_accuracy - ACCURACY_MARGIN {
        problems.push(format!(
            "test accuracy {acc:.4} below plaintext CART {cart_accuracy:.4} - {ACCURACY_MARGIN}"
        ));
    }
    result.op("batch prediction", problems);

    // Party 0 decided the loop length; every party must have served it.
    let served = outs[0].request_preds.len();
    for (k, &i) in inputs.request_order[..served].iter().enumerate() {
        let mut problems = Vec::new();
        for (p, o) in outs.iter().enumerate() {
            let got = o.request_preds.get(k).copied();
            if got != preds.get(i).copied() {
                problems.push(format!(
                    "party {p} request {k} (sample {i}) answered {got:?}, batch {:?}",
                    preds.get(i)
                ));
            }
        }
        result.op("prediction request", problems);
    }
    Some(acc)
}

/// `--trace 0`: cold setups, then whole sessions until the time is up.
pub fn untraced_run(args: &Args) -> RunResult {
    let w = args.workload;
    let mut result = RunResult::default();
    let inputs = w.inputs(args.seed);
    let cart = cart(w, &inputs);
    let (setups, _) = setup_probes(w, args.seed, &mut result);
    let reference = unverified_reference(w, &inputs, args.seed, &mut result);

    let mut train_s = Vec::new();
    let mut train_mb = Vec::new();
    let mut rss_mb = Vec::new();
    let mut batch_s = Vec::new();
    let mut batch_kb = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut accuracies = Vec::new();
    // Whole sessions until the time is up, so every metric samples the
    // whole run rather than one stretch of it.
    let start = Instant::now();
    loop {
        let plan = Plan {
            workload: w,
            params: w.params(args.seed, threads(), TraceLevel::Off),
            inputs: &inputs,
            predict: true,
            batch_reps: w.batch_reps,
            requests: w.requests,
            request_budget: Some(w.request_budget()),
        };
        let session_start = Instant::now();
        let first = train_s.is_empty();
        if first {
            reset_peak_rss();
        }
        match session::run(&plan) {
            Ok(outs) => {
                if first {
                    rss_mb.push(peak_rss_mb());
                }
                if let Some(acc) = check_session(
                    w,
                    &inputs,
                    &outs,
                    plan.predict,
                    cart.accuracy,
                    reference.as_ref(),
                    &mut result,
                ) {
                    accuracies.push(acc);
                }
                train_s.push(max_of(&outs, |o| o.train_s));
                train_mb.push(sum_of(&outs, |o| o.netstats_sent[1]) as f64 / 1e6);
                for rep in 0..plan.batch_reps {
                    batch_s.push(max_of(&outs, |o| o.batch_s[rep]));
                }
                let batches = (plan.batch_reps * w.test_samples) as f64;
                batch_kb.push(sum_of(&outs, |o| o.netstats_sent[2]) as f64 / 1e3 / batches);
                latencies_ms.extend(outs[0].request_s.iter().map(|s| s * 1e3));
            }
            Err(e) => result.op("training session", vec![e]),
        }
        // Start another session only if it would end at most half a
        // session past the measured time.
        if start.elapsed() + session_start.elapsed() / 2 > args.seconds {
            break;
        }
    }

    let n_test = w.test_samples as f64;
    let sessions = train_s.len();
    let beyond_p99 = latencies_ms.len() - (0.99 * latencies_ms.len() as f64).ceil() as usize;
    result.metric("setup_s", "s", median(&setups), setups.len());
    result.metric("train_s", "s", median(&train_s), sessions);
    result.metric("train_mb", "MB", median(&train_mb), sessions);
    let batch = median(&batch_s);
    result.metric(
        "predict_samples_per_s",
        "1/s",
        if batch > 0.0 { n_test / batch } else { 0.0 },
        batch_s.len(),
    );
    result.metric(
        "predict_kb_per_sample",
        "kB",
        median(&batch_kb),
        batch_s.len(),
    );
    result.metric(
        "predict_p50_ms",
        "ms",
        percentile(&latencies_ms, 0.50),
        latencies_ms.len(),
    );
    result.metric(
        "predict_p99_ms",
        "ms",
        percentile(&latencies_ms, 0.99),
        latencies_ms.len(),
    );
    result.metric(
        "test_accuracy",
        "ratio",
        accuracies.first().copied().unwrap_or(0.0),
        w.test_samples,
    );
    result.metric("peak_rss_mb", "MB", median(&rss_mb), rss_mb.len());
    result.details = Json::obj()
        .with("sessions", sessions)
        .with("setup_s", setups)
        .with("train_s", train_s)
        .with("train_mb", train_mb)
        .with("batch_s", batch_s)
        .with("peak_rss_mb", rss_mb)
        .with("requests", latencies_ms.len())
        .with("requests_beyond_p99", beyond_p99)
        .with("cart_accuracy", cart.accuracy)
        .with("accuracy_margin", ACCURACY_MARGIN);
    result
}

/// `--trace 1`: one untraced and one traced session, then calibration.
pub fn traced_run(args: &Args) -> RunResult {
    let w = args.workload;
    let seed = args.seed;
    let mut result = RunResult::default();
    let inputs = w.inputs(seed);
    let cart = cart(w, &inputs);
    let (_, keygens) = setup_probes(w, seed, &mut result);
    let reference = unverified_reference(w, &inputs, seed, &mut result);

    let untraced_plan = Plan {
        workload: w,
        params: w.params(seed, threads(), TraceLevel::Off),
        inputs: &inputs,
        predict: false,
        batch_reps: 0,
        requests: 0,
        request_budget: None,
    };
    let untraced_train_s = match session::run(&untraced_plan) {
        Ok(outs) => {
            check_session(
                w,
                &inputs,
                &outs,
                untraced_plan.predict,
                cart.accuracy,
                reference.as_ref(),
                &mut result,
            );
            max_of(&outs, |o| o.train_s)
        }
        Err(e) => {
            result.op("training session", vec![e]);
            0.0
        }
    };

    spans::enable();
    let plan = Plan {
        workload: w,
        params: w.params(seed, threads(), TraceLevel::Phases),
        inputs: &inputs,
        predict: true,
        batch_reps: w.batch_reps,
        requests: w.traced_requests,
        request_budget: None,
    };
    let outs = match session::run(&plan) {
        Ok(outs) => {
            check_session(
                w,
                &inputs,
                &outs,
                plan.predict,
                cart.accuracy,
                reference.as_ref(),
                &mut result,
            );
            outs
        }
        Err(e) => {
            result.op("training session", vec![e]);
            return result;
        }
    };
    // Background-work spans the program recorded off the party threads.
    let _ = pivot_trace::take_runtime();

    let width = outs[0]
        .widths
        .iter()
        .max_by_key(|&&(k, n)| (n, k))
        .map_or(pivot_mpc::FixedConfig::default().int_bits, |&(k, _)| k);
    let calibration = calib::run(w.keysize, threads(), width, seed);
    result.op(
        "calibration",
        if calibration.correct {
            Vec::new()
        } else {
            vec!["a calibrated operation returned a wrong result".into()]
        },
    );
    let all_spans = spans::take();
    let span_file = write_spans(args, &all_spans);

    layer_metrics(
        &mut result,
        w,
        &outs,
        &calibration,
        median(&keygens),
        keygens.len(),
        &cart,
        untraced_train_s,
    );
    result.details = Json::obj()
        .with("untraced_train_s", untraced_train_s)
        .with("traced_train_s", max_of(&outs, |o| o.train_s))
        .with("ltz_width", calibration.ltz_width)
        .with("spans", all_spans.len())
        .with("span_file", span_file)
        .with("span_link_send_s", spans::total_s(&all_spans, "link.send"))
        .with("span_link_recv_s", spans::total_s(&all_spans, "link.recv"))
        .with("cart_accuracy", cart.accuracy);
    result
}

fn write_spans(args: &Args, all: &[spans::Span]) -> String {
    let rows: Vec<Json> = all
        .iter()
        .map(|s| {
            Json::obj()
                .with("id", s.id)
                .with(
                    "parent",
                    s.parent.map_or(Json::Int(0), |p| Json::Int(p as i64)),
                )
                .with("request", s.request)
                .with(
                    "party",
                    s.party.map_or(Json::Int(-1), |p| Json::Int(p as i64)),
                )
                .with("name", s.name)
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
        })
        .collect();
    let doc = Json::obj()
        .with("workload", args.workload.name)
        .with("seed", args.seed)
        .with("spans", rows);
    let path = args.out_dir.join(format!(
        "{}-seed{}-spans.json",
        args.workload.name, args.seed
    ));
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|_| std::fs::write(&path, doc.render() + "\n"));
    match written {
        Ok(()) => path.display().to_string(),
        Err(e) => {
            eprintln!("perfbench: cannot write spans: {e}");
            String::new()
        }
    }
}

/// Per-layer metrics of the traced session. Program counters cover the
/// training session (setup and training) unless the name says `predict`;
/// `core.phase.*` come from the program's own phase trace.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    r: &mut RunResult,
    w: &Workload,
    outs: &[PartyOutcome],
    cal: &calib::Calibration,
    keygen_s: f64,
    keygen_samples: usize,
    cart: &Cart,
    untraced_train_s: f64,
) {
    let m = outs.len();
    let train: Vec<Counters> = outs.iter().map(|o| o.at_train).collect();
    let predict: Vec<Counters> = outs.iter().map(|o| o.at_end.since(&o.at_train)).collect();
    let sum = |c: &[Counters], f: &dyn Fn(&Counters) -> u64| c.iter().map(f).sum::<u64>() as f64;
    let net = w.net();

    r.metric("bignum.powmod_us", "us", cal.powmod_us, 32);

    r.metric("paillier.keygen_s", "s", keygen_s, keygen_samples);
    r.metric("paillier.encrypt_us", "us", cal.encrypt_us, 64);
    r.metric("paillier.mul_plain_us", "us", cal.mul_plain_us, 64);
    r.metric(
        "paillier.partial_decrypt_us",
        "us",
        cal.partial_decrypt_us,
        64,
    );
    r.metric("paillier.combine_us", "us", cal.combine_us, 64);
    r.metric(
        "paillier.encryptions",
        "count",
        sum(&train, &|c| c.encryptions),
        m,
    );
    r.metric(
        "paillier.ciphertext_ops",
        "count",
        sum(&train, &|c| c.ciphertext_ops),
        m,
    );
    r.metric(
        "paillier.threshold_decryptions",
        "count",
        sum(&train, &|c| c.threshold_decryptions),
        m,
    );
    r.metric(
        "paillier.split_stat_ciphertexts",
        "count",
        sum(&train, &|c| c.split_stat_ciphertexts),
        m,
    );
    let hits = sum(&train, &|c| c.nonce.hits);
    let takes = hits + sum(&train, &|c| c.nonce.misses);
    r.metric(
        "paillier.nonce_hit_rate",
        "ratio",
        if takes > 0.0 { hits / takes } else { 0.0 },
        takes as usize,
    );
    r.metric(
        "paillier.predict_threshold_decryptions",
        "count",
        sum(&predict, &|c| c.threshold_decryptions),
        m,
    );

    r.metric(
        "runtime.nonces_precomputed",
        "count",
        sum(&train, &|c| c.nonce.produced),
        m,
    );
    r.metric(
        "runtime.dealer_precomputed",
        "count",
        sum(&train, &|c| c.dealer.produced),
        m,
    );

    let link_train: Vec<probe::LinkSnapshot> = outs
        .iter()
        .map(|o| {
            let mut s = o.link[0];
            s.add(&o.link[1]);
            s
        })
        .collect();
    let mean =
        |f: &dyn Fn(&probe::LinkSnapshot) -> f64| link_train.iter().map(f).sum::<f64>() / m as f64;
    r.metric(
        "transport.bytes_sent",
        "bytes",
        link_train.iter().map(|s| s.bytes_sent as f64).sum(),
        m,
    );
    r.metric(
        "transport.frames_sent",
        "count",
        link_train.iter().map(|s| s.frames_sent as f64).sum(),
        m,
    );
    r.metric(
        "transport.recv_wait_s",
        "s",
        mean(&|s| s.recv_wait_ns as f64 * 1e-9),
        m,
    );
    r.metric(
        "transport.sim_delay_s",
        "s",
        mean(&|s| s.sim_delay_s(&net)),
        m,
    );
    for (p, s) in link_train.iter().enumerate() {
        r.metric(
            format!("transport.p{p}.bytes_sent"),
            "bytes",
            s.bytes_sent as f64,
            1,
        );
        r.metric(
            format!("transport.p{p}.frames_sent"),
            "count",
            s.frames_sent as f64,
            1,
        );
        r.metric(
            format!("transport.p{p}.recv_wait_s"),
            "s",
            s.recv_wait_ns as f64 * 1e-9,
            1,
        );
    }
    let predict_wait: f64 = outs
        .iter()
        .map(|o| (o.link[2].recv_wait_ns + o.link[3].recv_wait_ns) as f64 * 1e-9)
        .sum::<f64>()
        / m as f64;
    r.metric("transport.predict_recv_wait_s", "s", predict_wait, m);

    let p0 = &train[0];
    r.metric("mpc.rounds", "count", p0.rounds as f64, 1);
    r.metric("mpc.secure_mults", "count", p0.secure_mults as f64, 1);
    r.metric("mpc.comparisons", "count", p0.comparisons as f64, 1);
    r.metric(
        "mpc.comparison_rounds",
        "count",
        p0.comparison_rounds as f64,
        1,
    );
    r.metric("mpc.opened_elements", "count", p0.opened_elements as f64, 1);
    r.metric("mpc.beaver_triples", "count", p0.beaver_triples as f64, 1);
    let dealer_hits = sum(&train, &|c| c.dealer.triple_hits + c.dealer.masked_hits);
    let dealer_takes =
        dealer_hits + sum(&train, &|c| c.dealer.triple_misses + c.dealer.masked_misses);
    r.metric(
        "mpc.dealer_hit_rate",
        "ratio",
        if dealer_takes > 0.0 {
            dealer_hits / dealer_takes
        } else {
            0.0
        },
        dealer_takes as usize,
    );
    r.metric("mpc.ltz_us", "us", cal.ltz_us, 64);
    r.metric("mpc.predict_rounds", "count", predict[0].rounds as f64, 1);
    r.metric(
        "mpc.predict_comparisons",
        "count",
        predict[0].comparisons as f64,
        1,
    );

    for (p, o) in outs.iter().enumerate() {
        r.metric(format!("core.p{p}.setup_s"), "s", o.setup_s, 1);
        r.metric(format!("core.p{p}.train_s"), "s", o.train_s, 1);
        let predict_s = o.batch_s.iter().sum::<f64>() + o.request_s.iter().sum::<f64>();
        let calls = o.batch_s.len() + o.request_s.len();
        r.metric(format!("core.p{p}.predict_s"), "s", predict_s, calls);
    }
    let end = &outs[0].at_end;
    for (k, stage) in ["local", "mpc", "update", "predict"].iter().enumerate() {
        r.metric(format!("core.stage.{stage}_s"), "s", end.stage_s[k], 1);
    }
    let tables: Vec<Vec<pivot_trace::PhaseRow>> = outs
        .iter()
        .map(|o| {
            o.trace
                .as_ref()
                .map(pivot_trace::phase_table)
                .unwrap_or_default()
        })
        .collect();
    for phase in TRACE_PHASES {
        let rows: Vec<pivot_trace::PhaseRow> = tables
            .iter()
            .map(|t| {
                t.iter()
                    .find(|r| r.phase == phase)
                    .cloned()
                    .unwrap_or_default()
            })
            .collect();
        let mean_s = |f: &dyn Fn(&pivot_trace::PhaseRow) -> u64| {
            rows.iter().map(|r| f(r) as f64).sum::<f64>() * 1e-9 / m as f64
        };
        r.metric(
            format!("core.phase.{phase}.wall_s"),
            "s",
            mean_s(&|r| r.wall_ns),
            m,
        );
        r.metric(
            format!("core.phase.{phase}.wait_s"),
            "s",
            mean_s(&|r| r.wait_ns),
            m,
        );
        r.metric(
            format!("core.phase.{phase}.rounds"),
            "count",
            rows[0].rounds as f64,
            1,
        );
        let mb = rows.iter().map(|r| r.sent_bytes as f64).sum::<f64>() / 1e6;
        r.metric(format!("core.phase.{phase}.mb"), "MB", mb, m);
    }

    let v: Vec<_> = train.iter().map(|c| c.verification).collect();
    r.metric(
        "zkp.proofs_generated",
        "count",
        v.iter().map(|c| c.proofs_generated as f64).sum(),
        m,
    );
    r.metric(
        "zkp.proofs_verified",
        "count",
        v.iter().map(|c| c.proofs_verified as f64).sum(),
        m,
    );
    r.metric(
        "zkp.proof_mb",
        "MB",
        v.iter().map(|c| c.proof_bytes as f64).sum::<f64>() / 1e6,
        m,
    );
    r.metric(
        "zkp.wall_s",
        "s",
        v.iter().map(|c| c.wall.as_secs_f64()).fold(0.0, f64::max),
        m,
    );
    r.metric("zkp.popk_prove_us", "us", cal.popk_prove_us, 32);
    r.metric("zkp.popk_verify_us", "us", cal.popk_verify_us, 32);

    r.metric("trees.cart_train_s", "s", cart.train_s, 1);
    r.metric(
        "trees.cart_accuracy",
        "ratio",
        cart.accuracy,
        w.test_samples,
    );

    let traced = max_of(outs, |o| o.train_s);
    r.metric(
        "trace.overhead_pct",
        "%",
        if untraced_train_s > 0.0 {
            (traced / untraced_train_s - 1.0) * 100.0
        } else {
            0.0
        },
        1,
    );
}
