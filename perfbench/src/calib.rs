//! Crypto calibration: per-operation cost of each layer's primitive at a
//! workload's key size, timed from outside through the public entry
//! points. These give the `*_us` per-layer metrics.

use crate::probe;
use crate::spans;
use crate::workloads::PARTIES;
use pivot_bignum::{rng as brng, BigUint, Montgomery};
use pivot_mpc::{CompareBits, FixedConfig, Fp, MpcEngine};
use pivot_paillier::{batch, fixtures, NoncePool};
use pivot_transport::{run_parties_on, NetConfig};
use pivot_zkp::popk::PlaintextProof;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Calibration results, microseconds per element.
#[derive(Clone, Debug)]
pub struct Calibration {
    pub powmod_us: f64,
    pub encrypt_us: f64,
    pub mul_plain_us: f64,
    pub partial_decrypt_us: f64,
    pub combine_us: f64,
    pub ltz_us: f64,
    pub ltz_width: u32,
    pub popk_prove_us: f64,
    pub popk_verify_us: f64,
    /// Whether every calibrated operation returned the right answer.
    pub correct: bool,
}

/// Batch width of the Paillier and comparison calibrations.
const BATCH: usize = 64;
/// Repetitions of the single-shot bignum and proof calibrations.
const REPS: usize = 32;

fn per_item_us(start: Instant, items: usize) -> f64 {
    start.elapsed().as_secs_f64() * 1e6 / items as f64
}

/// Calibrate at `keysize` with `threads` crypto workers; comparisons run
/// at width `ltz_width` on a fresh 3-party in-process mesh.
pub fn run(keysize: u32, threads: usize, ltz_width: u32, seed: u64) -> Calibration {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCA11_B8A7E);
    let keys = fixtures::threshold_keys(PARTIES, keysize);
    let pk = &keys.pk;
    let n = pk.n();
    let mut correct = true;

    // pivot-bignum: the nonce power r^N mod N², the protocols' hottest pow.
    let mont = Montgomery::new(pk.n_squared());
    let bases: Vec<BigUint> = (0..REPS)
        .map(|_| brng::gen_below(&mut rng, pk.n_squared()))
        .collect();
    let start = Instant::now();
    let powers: Vec<BigUint> = {
        let _s = spans::open("calib.powmod");
        bases
            .iter()
            .map(|b| mont.pow(std::hint::black_box(b), n))
            .collect()
    };
    let powmod_us = per_item_us(start, REPS);
    correct &= powers[0] == pivot_bignum::mod_pow(&bases[0], n, pk.n_squared());

    // pivot-paillier batch entry points. The nonce pool is disabled, so
    // each encryption pays its own r^N power online.
    let values: Vec<BigUint> = (0..BATCH).map(|_| brng::gen_below(&mut rng, n)).collect();
    let nonces = NoncePool::new(pk.clone(), seed, 0);
    let start = Instant::now();
    let cts = {
        let _s = spans::open("calib.encrypt_batch");
        batch::encrypt_batch(pk, &values, &nonces, threads)
    };
    let encrypt_us = per_item_us(start, BATCH);

    let scalars: Vec<BigUint> = (0..BATCH).map(|_| brng::gen_below(&mut rng, n)).collect();
    let start = Instant::now();
    let scaled = {
        let _s = spans::open("calib.mul_plain_batch");
        batch::mul_plain_batch(pk, &cts, &scalars, threads)
    };
    let mul_plain_us = per_item_us(start, BATCH);

    let start = Instant::now();
    let partial0 = {
        let _s = spans::open("calib.partial_decrypt_batch");
        batch::partial_decrypt_batch(&keys.shares[0], &scaled, threads)
    };
    let partial_decrypt_us = per_item_us(start, BATCH);
    let partials: Vec<Vec<_>> = (0..BATCH)
        .map(|i| {
            let mut row = vec![partial0[i].clone()];
            row.extend(
                keys.shares[1..]
                    .iter()
                    .map(|s| s.partial_decrypt(&scaled[i])),
            );
            row
        })
        .collect();
    let start = Instant::now();
    let opened = {
        let _s = spans::open("calib.combine_batch");
        batch::combine_batch(&keys.combiner, &partials, threads)
    };
    let combine_us = per_item_us(start, BATCH);
    for i in 0..BATCH {
        correct &= opened[i] == (&values[i] * &scalars[i]).rem_of(n);
    }

    // pivot-zkp: proof of plaintext knowledge, prove and verify.
    let witnesses: Vec<(BigUint, BigUint)> = (0..REPS)
        .map(|_| (brng::gen_below(&mut rng, n), brng::gen_coprime(&mut rng, n)))
        .collect();
    let statements: Vec<_> = witnesses
        .iter()
        .map(|(x, r)| pk.encrypt_with(x, r))
        .collect();
    let start = Instant::now();
    let proofs: Vec<PlaintextProof> = {
        let _s = spans::open("calib.popk_prove");
        witnesses
            .iter()
            .zip(&statements)
            .map(|((x, r), c)| PlaintextProof::prove(pk, c, x, r, &mut rng))
            .collect()
    };
    let popk_prove_us = per_item_us(start, REPS);
    let start = Instant::now();
    let verified = {
        let _s = spans::open("calib.popk_verify");
        proofs
            .iter()
            .zip(&statements)
            .filter(|(p, c)| p.verify(pk, c))
            .count()
    };
    let popk_verify_us = per_item_us(start, REPS);
    correct &= verified == REPS;

    let (ltz_us, ltz_ok) = ltz(ltz_width, seed);
    correct &= ltz_ok;

    Calibration {
        powmod_us,
        encrypt_us,
        mul_plain_us,
        partial_decrypt_us,
        combine_us,
        ltz_us,
        ltz_width,
        popk_prove_us,
        popk_verify_us,
        correct,
    }
}

/// pivot-mpc: `ltz_vec_bounded` over a batch of `BATCH` signed values of
/// width `k`, on a 3-party probe mesh with inline preprocessing. Returns
/// microseconds per comparison (slowest party) and whether every sign
/// opened correctly.
fn ltz(k: u32, seed: u64) -> (f64, bool) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x17_2C0);
    let half = 1i64 << (k - 1);
    let inputs: Vec<i64> = (0..BATCH).map(|_| rng.gen_range(-half + 1..half)).collect();
    let (endpoints, _) = probe::mesh(PARTIES, &NetConfig::default());
    let results = run_parties_on(endpoints, |ep| {
        spans::set_party(ep.id());
        let mut engine = MpcEngine::new(&ep, seed, FixedConfig::default());
        engine.configure_comparisons(CompareBits::Auto, 0);
        let values: Vec<Fp> = inputs.iter().map(|&v| Fp::from_i64(v)).collect();
        let x = engine.share_input(0, (ep.id() == 0).then_some(&values[..]));
        let start = Instant::now();
        let signs = {
            let _s = spans::open("calib.ltz_vec_bounded");
            engine.ltz_vec_bounded(&x, k)
        };
        let took = start.elapsed().as_secs_f64();
        (took, engine.open_vec(&signs))
    });
    let slowest = results.iter().map(|r| r.0).fold(0.0, f64::max);
    let ok = results[0]
        .1
        .iter()
        .zip(&inputs)
        .all(|(s, &v)| s.value() == u64::from(v < 0));
    (slowest * 1e6 / BATCH as f64, ok)
}
