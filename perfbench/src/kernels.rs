//! Per-call times of the public arithmetic kernels on the workload ring
//! (p = 83, e = 1): the field, polynomial and PRG layers under every query.

use ssx_poly::{random_poly, random_poly_into, Packer, RingCtx};
use ssx_prg::{node_prg, Prg, Seed};
use std::hint::black_box;
use std::time::Instant;

const REPS: u32 = 2000;
const ROUNDS: usize = 15;

/// Median over [`ROUNDS`] rounds (after one warm-up round) of the mean
/// nanoseconds per call across [`REPS`] calls.
fn median_ns(mut f: impl FnMut(u32)) -> f64 {
    let mut per_call: Vec<f64> = (0..=ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for i in 0..REPS {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / REPS as f64
        })
        .skip(1)
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[ROUNDS / 2]
}

/// `(metric name, ns per call)` for each kernel.
pub fn measure() -> Vec<(&'static str, f64)> {
    let ring = RingCtx::new(83, 1).expect("F_83 ring");
    let packer = Packer::new(&ring);
    let mut prg = Prg::from_u64(0x6b65_726e);
    let a = random_poly(&ring, &mut prg);
    let b = random_poly(&ring, &mut prg);
    let (ea, eb) = (ring.to_evals(&a), ring.to_evals(&b));
    let packed = packer.pack_radix(&a);
    let seed = Seed::from_test_key(0x5D4_2005);

    let mut acc = ea.evals().to_vec();
    let field = median_ns(|_| {
        ring.field()
            .mul_mod_batch(black_box(&mut acc), black_box(eb.evals()));
    });
    let mut prod = ea.clone();
    let mul_eval = median_ns(|_| ring.eval_mul_assign(black_box(&mut prod), black_box(&eb)));
    let mut unpacked = ring.zero();
    let unpack = median_ns(|_| {
        packer
            .unpack_radix_into(black_box(&packed), &mut unpacked)
            .expect("packed by the same packer");
        black_box(&unpacked);
    });
    let mut share = ring.zero();
    let prg_share = median_ns(|i| {
        let mut node = node_prg(&seed, u64::from(i));
        random_poly_into(&ring, &mut node, &mut share);
        black_box(&share);
    });
    vec![
        ("field.mul_batch_ns", field),
        ("poly.mul_eval_ns", mul_eval),
        ("poly.unpack_ns", unpack),
        ("prg.share_ns", prg_share),
    ]
}
