//! Property-based tests for the neural-network substrate: gradient
//! correctness on random shapes and inputs, optimizer convergence, and
//! algebraic identities of the matrix kernels.
//!
//! Each test is a seeded loop over randomized cases (driven by
//! `sns_rt::rng`), preserving the properties the earlier proptest suite
//! checked while keeping the build hermetic.

use sns_nn::{
    load_params, save_params, Adam, Embedding, Grads, Gru, LayerNorm, Linear, Mat, ModelState,
    MultiHeadAttention, Optimizer, Param, ParamRegistry, Sgd,
};
use sns_rt::rng::StdRng;

/// Number of randomized cases per property (mirrors the old
/// `ProptestConfig::with_cases(32)`).
const CASES: u64 = 32;

fn rand_mat(rng: &mut StdRng, rows: usize, cols: usize) -> Mat {
    let mut m = Mat::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.gen_range(-1.5f32..1.5);
    }
    m
}

/// (A·B)·C == A·(B·C) within float tolerance, for random inputs.
#[test]
fn matmul_is_associative() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_mat(&mut rng, 3, 4);
        let b = rand_mat(&mut rng, 4, 5);
        let c = rand_mat(&mut rng, 5, 2);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            assert!((x - y).abs() < 1e-3, "seed {seed}: {x} vs {y}");
        }
    }
}

/// Transpose identities: (Aᵀ)ᵀ = A and (A·B)ᵀ = Bᵀ·Aᵀ.
#[test]
fn transpose_identities() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let a = rand_mat(&mut rng, 3, 5);
        let b = rand_mat(&mut rng, 5, 4);
        assert_eq!(a.transposed().transposed(), a.clone());
        let lhs = a.matmul(&b).transposed();
        let rhs = b.transposed().matmul(&a.transposed());
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!((x - y).abs() < 1e-4, "seed {seed}");
        }
    }
}

/// Softmax rows are valid distributions and invariant to row shifts.
#[test]
fn softmax_properties() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(200 + seed);
        let a = rand_mat(&mut rng, 4, 6);
        let shift = rng.gen_range(-10.0f32..10.0);
        let s = a.softmax_rows();
        for r in 0..4 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "seed {seed}");
            assert!(s.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)), "seed {seed}");
        }
        let shifted = a.map(|v| v + shift).softmax_rows();
        for (x, y) in s.as_slice().iter().zip(shifted.as_slice()) {
            assert!((x - y).abs() < 1e-4, "seed {seed}: softmax must be shift-invariant");
        }
    }
}

/// Linear's input gradient matches finite differences on random data.
#[test]
fn linear_gradient_matches_fd() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(300 + seed);
        let x = rand_mat(&mut rng, 2, 3);
        let mut reg = ParamRegistry::new();
        let l = Linear::new(&mut reg, 3, 2, &mut rng);
        let loss = |x: &Mat| l.forward(x).0.as_slice().iter().map(|v| v * v).sum::<f32>();
        let (y, ctx) = l.forward(&x);
        let dy = y.scale(2.0);
        let mut grads = Grads::new(&reg);
        let dx = l.backward(&ctx, &dy, &mut grads);
        let eps = 1e-2;
        for r in 0..2 {
            for c in 0..3 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let fd = (loss(&xp) - loss(&xm)) / (2.0 * eps);
                assert!(
                    (fd - dx.get(r, c)).abs() < 0.05 * (1.0 + fd.abs()),
                    "seed {seed} [{r}][{c}] fd={fd} analytic={}",
                    dx.get(r, c)
                );
            }
        }
    }
}

/// Attention output is permutation-covariant in positions when Q/K/V see
/// the same permuted input (self-attention without positional encodings
/// has no position preference).
#[test]
fn attention_is_position_covariant() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(400 + seed);
        let mut reg = ParamRegistry::new();
        let attn = MultiHeadAttention::new(&mut reg, 8, 2, &mut rng);
        let x = {
            let mut m = Mat::zeros(3, 8);
            for i in 0..24 {
                m.as_mut_slice()[i] = ((i * 37 + seed as usize) % 17) as f32 / 17.0 - 0.5;
            }
            m
        };
        let (y, _) = attn.forward(&x);
        // Swap rows 0 and 2 of the input; outputs swap identically.
        let xs = Mat::from_rows(&[x.row(2), x.row(1), x.row(0)]);
        let (ys, _) = attn.forward(&xs);
        for c in 0..8 {
            assert!((y.get(0, c) - ys.get(2, c)).abs() < 1e-4, "seed {seed}");
            assert!((y.get(2, c) - ys.get(0, c)).abs() < 1e-4, "seed {seed}");
            assert!((y.get(1, c) - ys.get(1, c)).abs() < 1e-4, "seed {seed}");
        }
    }
}

/// Every parameter's raw bits, in visit order — the comparison currency
/// for the round-trip and determinism properties below (`f32` equality
/// would let `-0.0 == 0.0` and NaN slip through).
fn param_bits(visit: impl FnMut(&mut dyn FnMut(&Param))) -> Vec<u32> {
    let mut visit = visit;
    let mut bits = Vec::new();
    visit(&mut |p: &Param| bits.extend(p.value.as_slice().iter().map(|v| v.to_bits())));
    bits
}

/// save → JSON text → load into a differently-initialized twin is
/// bit-identical, for every layer type in the crate.
#[test]
fn serialization_round_trips_bit_identically_for_every_layer() {
    // Each entry builds a (source, target) pair from distinct seeds and
    // returns their visit closures boxed behind a common shape.
    type VisitPair = (
        Box<dyn FnMut(&mut dyn FnMut(&Param))>,
        Box<dyn FnMut(&mut dyn FnMut(&mut Param))>,
        Box<dyn FnMut(&mut dyn FnMut(&Param))>,
    );
    type Builder = fn(&mut StdRng, &mut StdRng) -> VisitPair;
    let builders: Vec<(&str, Builder)> = vec![
        ("linear", |ra, rb| {
            let mut reg = ParamRegistry::new();
            let a = Linear::new(&mut reg, 5, 3, ra);
            let b = std::rc::Rc::new(std::cell::RefCell::new(Linear::new(&mut reg, 5, 3, rb)));
            let (b1, b2) = (std::rc::Rc::clone(&b), b);
            (
                Box::new(move |f: &mut dyn FnMut(&Param)| a.visit(f)),
                Box::new(move |f: &mut dyn FnMut(&mut Param)| b1.borrow_mut().visit_mut(f)),
                Box::new(move |f: &mut dyn FnMut(&Param)| b2.borrow().visit(f)),
            )
        }),
        ("embedding", |ra, rb| {
            let mut reg = ParamRegistry::new();
            let a = Embedding::new(&mut reg, 11, 4, ra);
            let b = std::rc::Rc::new(std::cell::RefCell::new(Embedding::new(&mut reg, 11, 4, rb)));
            let (b1, b2) = (std::rc::Rc::clone(&b), b);
            (
                Box::new(move |f: &mut dyn FnMut(&Param)| a.visit(f)),
                Box::new(move |f: &mut dyn FnMut(&mut Param)| b1.borrow_mut().visit_mut(f)),
                Box::new(move |f: &mut dyn FnMut(&Param)| b2.borrow().visit(f)),
            )
        }),
        ("layer_norm", |ra, _rb| {
            let mut reg = ParamRegistry::new();
            let mut a = LayerNorm::new(&mut reg, 6);
            // LayerNorm initializes deterministically (γ=1, β=0); perturb
            // the source so the round-trip actually has to move data.
            a.visit_mut(&mut |p: &mut Param| {
                for v in p.value.as_mut_slice() {
                    *v += ra.gen_range(-0.5f32..0.5);
                }
            });
            let b = std::rc::Rc::new(std::cell::RefCell::new(LayerNorm::new(&mut reg, 6)));
            let (b1, b2) = (std::rc::Rc::clone(&b), b);
            (
                Box::new(move |f: &mut dyn FnMut(&Param)| a.visit(f)),
                Box::new(move |f: &mut dyn FnMut(&mut Param)| b1.borrow_mut().visit_mut(f)),
                Box::new(move |f: &mut dyn FnMut(&Param)| b2.borrow().visit(f)),
            )
        }),
        ("attention", |ra, rb| {
            let mut reg = ParamRegistry::new();
            let a = MultiHeadAttention::new(&mut reg, 8, 2, ra);
            let b = std::rc::Rc::new(std::cell::RefCell::new(MultiHeadAttention::new(
                &mut reg, 8, 2, rb,
            )));
            let (b1, b2) = (std::rc::Rc::clone(&b), b);
            (
                Box::new(move |f: &mut dyn FnMut(&Param)| a.visit(f)),
                Box::new(move |f: &mut dyn FnMut(&mut Param)| b1.borrow_mut().visit_mut(f)),
                Box::new(move |f: &mut dyn FnMut(&Param)| b2.borrow().visit(f)),
            )
        }),
        ("gru", |ra, rb| {
            let mut reg = ParamRegistry::new();
            let a = Gru::new(&mut reg, 4, 6, ra);
            let b = std::rc::Rc::new(std::cell::RefCell::new(Gru::new(&mut reg, 4, 6, rb)));
            let (b1, b2) = (std::rc::Rc::clone(&b), b);
            (
                Box::new(move |f: &mut dyn FnMut(&Param)| a.visit(f)),
                Box::new(move |f: &mut dyn FnMut(&mut Param)| b1.borrow_mut().visit_mut(f)),
                Box::new(move |f: &mut dyn FnMut(&Param)| b2.borrow().visit(f)),
            )
        }),
    ];
    for (name, build) in builders {
        let mut ra = StdRng::seed_from_u64(600);
        let mut rb = StdRng::seed_from_u64(601);
        let (mut src_visit, mut dst_visit_mut, dst_visit) = build(&mut ra, &mut rb);
        let src_bits = param_bits(&mut src_visit);
        // Through the on-disk text form, not just the in-memory state.
        let state = save_params(&mut src_visit);
        let text = state.to_json_string();
        let back = ModelState::from_json_str(&text).unwrap();
        load_params(&back, &mut dst_visit_mut).unwrap();
        let dst_bits = param_bits(dst_visit);
        assert!(!src_bits.is_empty(), "{name}: layer has no parameters");
        assert_eq!(src_bits, dst_bits, "{name}: save -> JSON -> load is not bit-identical");
    }
}

/// One optimizer trajectory: train a Linear on a fixed regression target
/// for `steps` updates and return the final parameter bits.
fn optimizer_trajectory(opt: &mut dyn FnMut(&mut Param, &Grads), seed: u64, steps: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reg = ParamRegistry::new();
    let mut layer = Linear::new(&mut reg, 3, 2, &mut rng);
    let x = rand_mat(&mut rng, 4, 3);
    let target = rand_mat(&mut rng, 4, 2);
    for _ in 0..steps {
        let (y, ctx) = layer.forward(&x);
        let dy = Mat::from_vec(
            4,
            2,
            y.as_slice().iter().zip(target.as_slice()).map(|(a, b)| a - b).collect(),
        );
        let mut grads = Grads::new(&reg);
        layer.backward(&ctx, &dy, &mut grads);
        layer.visit_mut(&mut |p: &mut Param| opt(p, &grads));
    }
    param_bits(|f| layer.visit(f))
}

/// Re-seeding reproduces an optimizer run bit-for-bit, and a different
/// seed actually lands somewhere else (both Sgd+momentum and Adam, whose
/// moment/velocity state must also replay deterministically).
#[test]
fn optimizer_steps_are_deterministic_under_reseeding() {
    let run_sgd = |seed| {
        let mut opt = Sgd::new(0.05, 0.9);
        optimizer_trajectory(&mut |p, g| { opt.update(p, g); opt.tick(); }, seed, 25)
    };
    let run_adam = |seed| {
        let mut opt = Adam::new(0.01);
        optimizer_trajectory(&mut |p, g| { opt.update(p, g); opt.tick(); }, seed, 25)
    };
    for (name, run) in [("sgd", &run_sgd as &dyn Fn(u64) -> Vec<u32>), ("adam", &run_adam)] {
        let first = run(700);
        let second = run(700);
        assert_eq!(first, second, "{name}: same seed must replay bit-identically");
        let other = run(701);
        assert_ne!(first, other, "{name}: a different seed should move the trajectory");
    }
}

/// Gradient buffers merge linearly: grads(batch) == grads(a) + grads(b).
#[test]
fn gradients_are_additive() {
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(500 + seed);
        let xa = rand_mat(&mut rng, 2, 3);
        let xb = rand_mat(&mut rng, 2, 3);
        let mut init_rng = StdRng::seed_from_u64(7);
        let mut reg = ParamRegistry::new();
        let l = Linear::new(&mut reg, 3, 2, &mut init_rng);
        let run = |x: &Mat, grads: &mut Grads| {
            let (y, ctx) = l.forward(x);
            l.backward(&ctx, &y, grads);
        };
        let mut ga = Grads::new(&reg);
        run(&xa, &mut ga);
        let mut gb = Grads::new(&reg);
        run(&xb, &mut gb);
        ga.merge(&gb);
        let mut gboth = Grads::new(&reg);
        run(&xa, &mut gboth);
        run(&xb, &mut gboth);
        l.visit(&mut |p| {
            for (x, y) in ga.get(p.id).as_slice().iter().zip(gboth.get(p.id).as_slice()) {
                assert!((x - y).abs() < 1e-4, "seed {seed}: merge mismatch {x} vs {y}");
            }
        });
    }
}
