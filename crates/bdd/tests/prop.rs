//! Randomized property tests: BDD operations against brute-force truth
//! tables.
//!
//! A random boolean expression over a small variable set is evaluated two
//! ways — via the BDD and directly — on every assignment. This exercises
//! apply/ITE/not/quantification/renaming together with the reduction
//! rules. Expressions are generated from the workspace's seeded PRNG
//! (deterministic: every run tests the same cases; a failure names the
//! case index to reproduce).

use batnet_bdd::{Bdd, NodeId};
use batnet_net::Rng;

/// A small expression language over `NVARS` variables.
#[derive(Clone, Debug)]
enum Expr {
    Var(u32),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
    Const(bool),
}

const NVARS: u32 = 5;
const CASES: u64 = 256;

/// A random expression of depth ≤ `depth`.
fn gen_expr(rng: &mut Rng, depth: u32) -> Expr {
    if depth == 0 || rng.chance(1, 4) {
        return if rng.flip() {
            Expr::Var(rng.below(NVARS as u64) as u32)
        } else {
            Expr::Const(rng.flip())
        };
    }
    match rng.below(5) {
        0 => Expr::Not(Box::new(gen_expr(rng, depth - 1))),
        1 => Expr::And(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
        2 => Expr::Or(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
        3 => Expr::Xor(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
        _ => Expr::Ite(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
    }
}

fn case_rng(test: u64, case: u64) -> Rng {
    Rng::new(0xB00_D0D0 ^ (test << 32) ^ case)
}

fn to_bdd(e: &Expr, b: &mut Bdd) -> NodeId {
    match e {
        Expr::Var(v) => b.var(*v),
        Expr::Const(true) => NodeId::TRUE,
        Expr::Const(false) => NodeId::FALSE,
        Expr::Not(x) => {
            let f = to_bdd(x, b);
            b.not(f)
        }
        Expr::And(x, y) => {
            let f = to_bdd(x, b);
            let g = to_bdd(y, b);
            b.and(f, g)
        }
        Expr::Or(x, y) => {
            let f = to_bdd(x, b);
            let g = to_bdd(y, b);
            b.or(f, g)
        }
        Expr::Xor(x, y) => {
            let f = to_bdd(x, b);
            let g = to_bdd(y, b);
            b.xor(f, g)
        }
        Expr::Ite(c, t, e2) => {
            let f = to_bdd(c, b);
            let g = to_bdd(t, b);
            let h = to_bdd(e2, b);
            b.ite(f, g, h)
        }
    }
}

fn eval_expr(e: &Expr, a: &[bool]) -> bool {
    match e {
        Expr::Var(v) => a[*v as usize],
        Expr::Const(c) => *c,
        Expr::Not(x) => !eval_expr(x, a),
        Expr::And(x, y) => eval_expr(x, a) && eval_expr(y, a),
        Expr::Or(x, y) => eval_expr(x, a) || eval_expr(y, a),
        Expr::Xor(x, y) => eval_expr(x, a) ^ eval_expr(y, a),
        Expr::Ite(c, t, e2) => {
            if eval_expr(c, a) {
                eval_expr(t, a)
            } else {
                eval_expr(e2, a)
            }
        }
    }
}

fn assignments() -> impl Iterator<Item = Vec<bool>> {
    (0..(1u32 << NVARS)).map(|v| (0..NVARS).map(|i| (v >> i) & 1 == 1).collect())
}

#[test]
fn bdd_matches_truth_table() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let e = gen_expr(&mut rng, 4);
        let mut b = Bdd::new(NVARS);
        let f = to_bdd(&e, &mut b);
        for a in assignments() {
            assert_eq!(b.eval(f, &a), eval_expr(&e, &a), "case {case}: {e:?}");
        }
    }
}

#[test]
fn canonical_equal_functions_equal_nodes() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let e1 = gen_expr(&mut rng, 4);
        let e2 = gen_expr(&mut rng, 4);
        let mut b = Bdd::new(NVARS);
        let f1 = to_bdd(&e1, &mut b);
        let f2 = to_bdd(&e2, &mut b);
        let same_fn = assignments().all(|a| eval_expr(&e1, &a) == eval_expr(&e2, &a));
        assert_eq!(
            f1 == f2,
            same_fn,
            "case {case}: canonicity: node equality iff function equality"
        );
    }
}

#[test]
fn sat_count_matches_brute_force() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let e = gen_expr(&mut rng, 4);
        let mut b = Bdd::new(NVARS);
        let f = to_bdd(&e, &mut b);
        let brute = assignments().filter(|a| eval_expr(&e, a)).count();
        assert_eq!(b.sat_count(f), brute as f64, "case {case}: {e:?}");
    }
}

#[test]
fn exists_matches_brute_force() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let e = gen_expr(&mut rng, 4);
        let qvar = rng.below(NVARS as u64) as u32;
        let mut b = Bdd::new(NVARS);
        let f = to_bdd(&e, &mut b);
        let cube = b.cube_of_vars(&[qvar]);
        let g = b.exists(f, cube);
        for a in assignments() {
            let mut a0 = a.clone();
            a0[qvar as usize] = false;
            let mut a1 = a.clone();
            a1[qvar as usize] = true;
            let expect = eval_expr(&e, &a0) || eval_expr(&e, &a1);
            assert_eq!(b.eval(g, &a), expect, "case {case}: exists {qvar} over {e:?}");
        }
    }
}

#[test]
fn pick_cube_satisfies() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let e = gen_expr(&mut rng, 4);
        let mut b = Bdd::new(NVARS);
        let f = to_bdd(&e, &mut b);
        match b.pick_cube(f) {
            None => assert_eq!(f, NodeId::FALSE, "case {case}"),
            Some(c) => assert!(b.eval(f, &c.concretize()), "case {case}: {e:?}"),
        }
    }
}

#[test]
fn not_is_involution() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let e = gen_expr(&mut rng, 4);
        let mut b = Bdd::new(NVARS);
        let f = to_bdd(&e, &mut b);
        let nf = b.not(f);
        let nnf = b.not(nf);
        assert_eq!(f, nnf, "case {case}");
        assert_eq!(b.and(f, nf), NodeId::FALSE, "case {case}");
        assert_eq!(b.or(f, nf), NodeId::TRUE, "case {case}");
    }
}

#[test]
fn rename_shift_matches() {
    for case in 0..CASES {
        let mut rng = case_rng(7, case);
        let e = gen_expr(&mut rng, 4);
        // Shift all variables up by NVARS within a double-width manager.
        let mut b = Bdd::new(NVARS * 2);
        let f = to_bdd(&e, &mut b);
        let pairs: Vec<(u32, u32)> = (0..NVARS).map(|v| (v, v + NVARS)).collect();
        let map = b.register_map(&pairs);
        let g = b.rename(f, map);
        for a in assignments() {
            // Place the assignment on the shifted positions.
            let mut wide = vec![false; (NVARS * 2) as usize];
            for (i, &bit) in a.iter().enumerate() {
                wide[i + NVARS as usize] = bit;
            }
            assert_eq!(b.eval(g, &wide), eval_expr(&e, &a), "case {case}: {e:?}");
        }
    }
}

#[test]
fn fused_transform_matches_3step() {
    for case in 0..CASES {
        let mut rng = case_rng(8, case);
        let e = gen_expr(&mut rng, 4);
        let r = gen_expr(&mut rng, 4);
        // Inputs are vars 0..NVARS, outputs NVARS..2*NVARS; rule relates
        // them via an arbitrary expression over inputs ∧ shifted expr over
        // outputs (enough to stress quantify+rename interplay).
        let mut b = Bdd::new(NVARS * 2);
        let f = to_bdd(&e, &mut b);
        let rule_in = to_bdd(&r, &mut b);
        let pairs_up: Vec<(u32, u32)> = (0..NVARS).map(|v| (v, v + NVARS)).collect();
        let up = b.register_map(&pairs_up);
        let rule_out = b.rename(rule_in, up);
        let rule = b.or(rule_in, rule_out);
        let inputs: Vec<u32> = (0..NVARS).collect();
        let pairs_down: Vec<(u32, u32)> = (0..NVARS).map(|v| (v + NVARS, v)).collect();
        let t = b.register_transform(&inputs, &pairs_down);
        let fused = b.transform(f, rule, t);
        let steps = b.transform_3step(f, rule, t);
        assert_eq!(fused, steps, "case {case}: {e:?} / {r:?}");
    }
}

/// Every operation the cases above exercise, on one manager: the results
/// in a fixed order.
fn replay(b: &mut Bdd, case: u64) -> Vec<NodeId> {
    let mut rng = case_rng(9, case);
    let e = gen_expr(&mut rng, 4);
    let r = gen_expr(&mut rng, 4);
    let qvar = rng.below(NVARS as u64) as u32;
    let f = to_bdd(&e, b);
    let rule_in = to_bdd(&r, b);
    let d = b.diff(f, rule_in);
    let cube = b.cube_of_vars(&[qvar]);
    let ex = b.exists(f, cube);
    let pairs_up: Vec<(u32, u32)> = (0..NVARS).map(|v| (v, v + NVARS)).collect();
    let up = b.register_map(&pairs_up);
    let rule_out = b.rename(rule_in, up);
    let rule = b.or(rule_in, rule_out);
    let inputs: Vec<u32> = (0..NVARS).collect();
    let pairs_down: Vec<(u32, u32)> = (0..NVARS).map(|v| (v + NVARS, v)).collect();
    let t = b.register_transform(&inputs, &pairs_down);
    let fused = b.transform(f, rule, t);
    let steps = b.transform_3step(f, rule, t);
    vec![f, rule_in, d, ex, rule_out, rule, fused, steps]
}

/// The operation cache is lossy; canonicity must not depend on what it
/// forgot. The same operations on a manager whose cache is 16 slots give
/// the same `NodeId`s and leave the same arena as on the default one —
/// recomputing an evicted subproblem only re-finds hash-consed nodes.
#[test]
fn results_do_not_depend_on_what_the_cache_forgot() {
    let (mut misses, mut small_misses) = (0, 0);
    for case in 0..CASES {
        let mut b = Bdd::new(NVARS * 2);
        let mut small = Bdd::new(NVARS * 2);
        small.shrink_cache_for_test(16);
        // Two rounds on the same managers: the second one is all hits or
        // all re-finds.
        for round in 0..2 {
            let want = replay(&mut b, case);
            let got = replay(&mut small, case);
            assert_eq!(got, want, "case {case} round {round}");
            assert_eq!(small.node_count(), b.node_count(), "case {case} round {round}");
        }
        assert!(small.cache_entries() <= 16);
        misses += b.stats().cache_misses;
        small_misses += small.stats().cache_misses;
    }
    assert!(small_misses > misses, "16 slots must actually evict: {small_misses} vs {misses}");
}

/// `import` copies a function between managers: the copy agrees with the
/// original on every assignment and on every count, and importing into a
/// fork (which already holds the diagram) finds the original's nodes.
#[test]
fn import_copies_the_function_between_managers() {
    for case in 0..CASES {
        let mut rng = case_rng(10, case);
        let e = gen_expr(&mut rng, 4);
        let noise = gen_expr(&mut rng, 4);
        let mut src = Bdd::new(NVARS);
        let f = to_bdd(&e, &mut src);
        // A destination that already holds unrelated nodes, so ids differ.
        let mut dst = Bdd::new(NVARS);
        to_bdd(&noise, &mut dst);
        let g = dst.import(&src, f);
        assert_eq!(dst.sat_count(g), src.sat_count(f), "case {case}: {e:?}");
        assert_eq!(dst.size(g), src.size(f), "case {case}");
        assert_eq!(dst.support(g), src.support(f), "case {case}");
        for a in assignments() {
            assert_eq!(dst.eval(g, &a), src.eval(f, &a), "case {case}: {e:?}");
        }
        assert_eq!(dst.import(&src, f), g, "case {case}: importing twice");
        let mut fork = src.fork();
        assert_eq!(fork.import(&src, f), f, "case {case}: fork");
    }
}
