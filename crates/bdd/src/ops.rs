//! Quantification, variable renaming, and the fused transform operation.
//!
//! The transform operation is the paper's NAT workhorse (§4.2.3): a NAT
//! edge's behaviour is a *relation* between input and output packets,
//! encoded over a doubled set of IP/port variables. Applying a NAT to a
//! reachable set is `rename(∃inputs. set ∧ rule)`; the fused
//! [`Bdd::transform`] does all three steps in one traversal, and the
//! unfused [`Bdd::transform_3step`] is kept for the A-5 ablation benchmark.

use crate::manager::{Bdd, NodeId, Tag, TAG_ID_LIMIT};

/// A registered variable renaming. Create with [`Bdd::register_map`]; apply
/// with [`Bdd::rename`]. Handles are cheap copies; the mapping data lives in
/// the manager so the per-(node, map) cache stays identity-keyed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VarMap {
    pub(crate) id: u32,
}

/// A registered transform: the set of variables to existentially quantify
/// (the *input* copies) plus the renaming applied to the surviving
/// variables (the *output* copies back onto input positions).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Transform {
    pub(crate) id: u32,
}

#[derive(Clone)]
pub(crate) struct MapData {
    /// `mapping[v]` is the new index of variable `v` (identity if absent).
    pub mapping: Vec<u32>,
}

#[derive(Clone)]
pub(crate) struct TransformData {
    /// `quantify[v]` — erase variable `v`.
    pub quantify: Vec<bool>,
    /// Renaming applied to surviving variables.
    pub mapping: Vec<u32>,
    /// Cube of the quantified variables (for the unfused ablation path).
    pub cube: NodeId,
    /// Registered map equivalent to `mapping` (for the unfused path).
    pub map: VarMap,
}

impl Bdd {
    /// Existentially quantifies every variable in `cube` (a conjunction of
    /// positive literals) out of `f`: the "erase the input headers" step.
    pub fn exists(&mut self, f: NodeId, cube: NodeId) -> NodeId {
        if f.is_terminal() || cube == NodeId::TRUE {
            return f;
        }
        debug_assert!(cube != NodeId::FALSE, "quantifier cube must be a product of literals");
        if let Some(r) = self.cache_get(Tag::Exists, f, cube) {
            return r;
        }
        // Skip cube variables above f's top variable.
        let fv = self.var_of(f);
        let mut c = cube;
        while !c.is_terminal() && self.var_of(c) < fv {
            c = self.hi_of(c);
        }
        if c == NodeId::TRUE {
            self.cache_put(Tag::Exists, f, cube, f);
            return f;
        }
        let cv = self.var_of(c);
        let r = if fv == cv {
            let inner = self.hi_of(c);
            let lo = self.exists(self.lo_of(f), inner);
            let hi = self.exists(self.hi_of(f), inner);
            self.or(lo, hi)
        } else {
            debug_assert!(fv < cv);
            let lo = self.exists(self.lo_of(f), c);
            let hi = self.exists(self.hi_of(f), c);
            self.mk(fv, lo, hi)
        };
        self.cache_put(Tag::Exists, f, cube, r);
        r
    }

    /// Builds the positive-literal cube over `vars` (sorted internally).
    pub fn cube_of_vars(&mut self, vars: &[u32]) -> NodeId {
        let mut sorted: Vec<u32> = vars.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut acc = NodeId::TRUE;
        for &v in sorted.iter().rev() {
            acc = self.mk(v, NodeId::FALSE, acc);
        }
        acc
    }

    /// Registers a variable renaming given `(from, to)` pairs; unlisted
    /// variables map to themselves. The renaming must be injective on the
    /// support of any BDD it is applied to (checked only in debug builds,
    /// via canonical-form assertions in `mk`).
    pub fn register_map(&mut self, pairs: &[(u32, u32)]) -> VarMap {
        let mut mapping: Vec<u32> = (0..self.num_vars()).collect();
        for &(from, to) in pairs {
            mapping[from as usize] = to;
        }
        // Map and transform ids are part of a cache key word (every
        // transform registers a map, so this bounds both).
        assert!(self.maps.len() < TAG_ID_LIMIT, "too many registered variable maps");
        self.maps.push(MapData { mapping });
        VarMap {
            id: (self.maps.len() - 1) as u32,
        }
    }

    /// Applies a registered renaming to `f`.
    ///
    /// Uses the fast `mk` path when the renamed variable still sits above
    /// both children (the common case for the interleaved NAT layout) and
    /// falls back to an ITE-based rebuild otherwise, so arbitrary maps are
    /// handled correctly.
    pub fn rename(&mut self, f: NodeId, map: VarMap) -> NodeId {
        if f.is_terminal() {
            return f;
        }
        if let Some(r) = self.cache_get(Tag::Rename(map.id), f, NodeId::FALSE) {
            return r;
        }
        let v = self.var_of(f);
        let lo = self.rename(self.lo_of(f), map);
        let hi = self.rename(self.hi_of(f), map);
        let nv = self.maps[map.id as usize].mapping[v as usize];
        let r = self.mk_ordered(nv, lo, hi);
        self.cache_put(Tag::Rename(map.id), f, NodeId::FALSE, r);
        r
    }

    /// `mk` that tolerates an out-of-order variable by falling back to ITE.
    fn mk_ordered(&mut self, v: u32, lo: NodeId, hi: NodeId) -> NodeId {
        if self.var_of(lo) > v && self.var_of(hi) > v {
            self.mk(v, lo, hi)
        } else {
            let lit = self.var(v);
            self.ite(lit, hi, lo)
        }
    }

    /// Registers a transform: quantify `inputs`, then rename according to
    /// `pairs` (typically each output variable back onto its input
    /// partner's position).
    pub fn register_transform(&mut self, inputs: &[u32], pairs: &[(u32, u32)]) -> Transform {
        let mut quantify = vec![false; self.num_vars() as usize];
        for &v in inputs {
            quantify[v as usize] = true;
        }
        let cube = self.cube_of_vars(inputs);
        let map = self.register_map(pairs);
        let mapping = self.maps[map.id as usize].mapping.clone();
        self.transforms.push(TransformData {
            quantify,
            mapping,
            cube,
            map,
        });
        Transform {
            id: (self.transforms.len() - 1) as u32,
        }
    }

    /// The fused transform: `rename(∃inputs. f ∧ rule)` in a single
    /// traversal of the pair `(f, rule)` — the paper's optimized NAT
    /// operation.
    pub fn transform(&mut self, f: NodeId, rule: NodeId, t: Transform) -> NodeId {
        if f == NodeId::FALSE || rule == NodeId::FALSE {
            return NodeId::FALSE;
        }
        if f == NodeId::TRUE && rule == NodeId::TRUE {
            return NodeId::TRUE;
        }
        if let Some(r) = self.cache_get(Tag::Transform(t.id), f, rule) {
            return r;
        }
        let v = self.var_of(f).min(self.var_of(rule));
        let (f0, f1) = self.cofactors(f, v);
        let (r0, r1) = self.cofactors(rule, v);
        let lo = self.transform(f0, r0, t);
        let hi = self.transform(f1, r1, t);
        let quantified = self.transforms[t.id as usize].quantify[v as usize];
        let r = if quantified {
            self.or(lo, hi)
        } else {
            let nv = self.transforms[t.id as usize].mapping[v as usize];
            self.mk_ordered(nv, lo, hi)
        };
        self.cache_put(Tag::Transform(t.id), f, rule, r);
        r
    }

    /// The unfused three-step version of [`Bdd::transform`], kept as the
    /// comparison leg for the A-5 ablation benchmark.
    pub fn transform_3step(&mut self, f: NodeId, rule: NodeId, t: Transform) -> NodeId {
        let data = self.transforms[t.id as usize].clone();
        let conj = self.and(f, rule);
        let erased = self.exists(conj, data.cube);
        self.rename(erased, data.map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exists_removes_variable() {
        let mut b = Bdd::new(4);
        let x = b.var(0);
        let y = b.var(1);
        let f = b.and(x, y);
        let cube = b.cube_of_vars(&[0]);
        let g = b.exists(f, cube);
        assert_eq!(g, y, "∃x. x∧y == y");
        // Quantifying a variable not in the support is a no-op.
        let cube3 = b.cube_of_vars(&[3]);
        assert_eq!(b.exists(f, cube3), f);
    }

    #[test]
    fn exists_multiple_vars() {
        let mut b = Bdd::new(4);
        let x = b.var(0);
        let y = b.var(1);
        let z = b.var(2);
        let xy = b.and(x, y);
        let f = b.or(xy, z);
        let cube = b.cube_of_vars(&[0, 1]);
        let g = b.exists(f, cube);
        assert_eq!(g, NodeId::TRUE, "∃x,y. (x∧y)∨z is satisfiable for every z");
        let cube_z = b.cube_of_vars(&[2]);
        let h = b.exists(f, cube_z);
        assert_eq!(h, NodeId::TRUE);
    }

    #[test]
    fn rename_shifts_variables() {
        let mut b = Bdd::new(6);
        let x = b.var(0);
        let y = b.var(2);
        let f = b.and(x, y);
        let map = b.register_map(&[(0, 1), (2, 3)]);
        let g = b.rename(f, map);
        let x1 = b.var(1);
        let y3 = b.var(3);
        let expect = b.and(x1, y3);
        assert_eq!(g, expect);
    }

    #[test]
    fn rename_non_monotone_map() {
        let mut b = Bdd::new(6);
        // Swap-like: move var 4 up to position 0 while 5 stays.
        let a = b.var(4);
        let c = b.var(5);
        let f = b.and(a, c);
        let map = b.register_map(&[(4, 0)]);
        let g = b.rename(f, map);
        let v0 = b.var(0);
        let expect = b.and(v0, c);
        assert_eq!(g, expect);
    }

    #[test]
    fn transform_identity_relation() {
        // Variables: input bits {0,2}, output bits {1,3} (interleaved).
        let mut b = Bdd::new(4);
        let i0 = b.var(0);
        let o0 = b.var(1);
        let i1 = b.var(2);
        let o1 = b.var(3);
        // Identity rule: o0 == i0 ∧ o1 == i1.
        let eq0 = b.xor(i0, o0);
        let eq0 = b.not(eq0);
        let eq1 = b.xor(i1, o1);
        let eq1 = b.not(eq1);
        let rule = b.and(eq0, eq1);
        let t = b.register_transform(&[0, 2], &[(1, 0), (3, 2)]);
        // Any set must map to itself under the identity relation.
        let set = b.and(i0, i1);
        let out = b.transform(set, rule, t);
        assert_eq!(out, set);
        let set2 = b.or(i0, i1);
        assert_eq!(b.transform(set2, rule, t), set2);
    }

    #[test]
    fn transform_constant_rewrite() {
        // NAT that rewrites the single input bit 0 to constant 1 on output
        // bit 1.
        let mut b = Bdd::new(2);
        let o0 = b.var(1);
        let rule = o0; // output bit is 1, input unconstrained
        let t = b.register_transform(&[0], &[(1, 0)]);
        let i0 = b.var(0);
        let ni0 = b.not(i0);
        // Both "bit set" and "bit clear" inputs map to "bit set".
        assert_eq!(b.transform(i0, rule, t), i0);
        assert_eq!(b.transform(ni0, rule, t), i0);
        assert_eq!(b.transform(NodeId::FALSE, rule, t), NodeId::FALSE);
    }

    #[test]
    fn fused_matches_3step() {
        // Random-ish small relation over 3 input (0,2,4) and 3 output
        // (1,3,5) variables: output = input with bit0 flipped.
        let mut b = Bdd::new(6);
        let mut rule = NodeId::TRUE;
        // o0 = ¬i0
        let i0 = b.var(0);
        let o0 = b.var(1);
        let x = b.xor(i0, o0);
        rule = b.and(rule, x);
        // o1 = i1, o2 = i2
        for (iv, ov) in [(2u32, 3u32), (4, 5)] {
            let i = b.var(iv);
            let o = b.var(ov);
            let eq = b.xor(i, o);
            let eq = b.not(eq);
            rule = b.and(rule, eq);
        }
        let t = b.register_transform(&[0, 2, 4], &[(1, 0), (3, 2), (5, 4)]);
        // Try several input sets.
        let i1 = b.var(2);
        let i2 = b.var(4);
        let sets = {
            let a = b.and(i0, i1);
            let bb = b.or(i1, i2);
            let c = b.xor(i0, i2);
            vec![i0, a, bb, c, NodeId::TRUE, NodeId::FALSE]
        };
        for s in sets {
            let fused = b.transform(s, rule, t);
            let steps = b.transform_3step(s, rule, t);
            assert_eq!(fused, steps, "fused and 3-step must agree");
        }
    }

    #[test]
    fn transform_of_union_is_union_of_transforms() {
        let mut b = Bdd::new(4);
        // rule: o = i (identity on one pair), second pair free.
        let i0 = b.var(0);
        let o0 = b.var(1);
        let eq = b.xor(i0, o0);
        let rule = b.not(eq);
        let t = b.register_transform(&[0], &[(1, 0)]);
        let i1 = b.var(2);
        let a = b.and(i0, i1);
        let na = b.not(i0);
        let c = b.and(na, i1);
        let union = b.or(a, c);
        let ta = b.transform(a, rule, t);
        let tc = b.transform(c, rule, t);
        let tu = b.transform(union, rule, t);
        let expect = b.or(ta, tc);
        assert_eq!(tu, expect);
    }
}
