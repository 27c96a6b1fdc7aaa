//! Model counting, cube extraction, and preference-guided example picking.
//!
//! The paper's §4.4.3: *"BDDs help to select positive and negative examples
//! quickly by intersecting the answer space with preferences constraints
//! (also encoded as BDDs)"*. [`Bdd::pick_with_prefs`] is that operation:
//! preferences are applied greedily in priority order, each kept only if
//! the intersection stays non-empty, and a concrete cube is read off the
//! result.

use crate::manager::{Bdd, NodeId};
use batnet_net::hash::FxMap;

/// A (partial) satisfying assignment: `Some(bit)` for constrained
/// variables, `None` for don't-cares. Indexed by variable number.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Cube {
    bits: Vec<Option<bool>>,
}

impl Cube {
    /// The assignment for variable `v`.
    pub fn get(&self, v: u32) -> Option<bool> {
        self.bits.get(v as usize).copied().flatten()
    }

    /// All variables, indexed.
    pub fn bits(&self) -> &[Option<bool>] {
        &self.bits
    }

    /// Reads an unsigned field laid out MSB-first on `bits` variables
    /// starting at `first_var`; don't-care bits read as 0 (the numerically
    /// smallest completion, which keeps examples stable run to run).
    pub fn field(&self, first_var: u32, bits: u32) -> u64 {
        let mut v = 0u64;
        for i in 0..bits {
            v <<= 1;
            if self.get(first_var + i) == Some(true) {
                v |= 1;
            }
        }
        v
    }

    /// A fully concrete assignment vector (don't-cares resolved to 0).
    pub fn concretize(&self) -> Vec<bool> {
        self.bits.iter().map(|b| b.unwrap_or(false)).collect()
    }
}

impl Bdd {
    /// Number of satisfying assignments over the manager's full variable
    /// set, as `f64` (exact for counts below 2^53; the universe at 261
    /// packet variables is ~3.7e78, well inside `f64` range).
    pub fn sat_count(&self, f: NodeId) -> f64 {
        let mut cache: FxMap<NodeId, f64> = FxMap::default();
        let n = self.num_vars();
        // fraction(f) = |f| / 2^num_vars computed top-down as a weight.
        fn frac(bdd: &Bdd, f: NodeId, cache: &mut FxMap<NodeId, f64>) -> f64 {
            if f == NodeId::FALSE {
                return 0.0;
            }
            if f == NodeId::TRUE {
                return 1.0;
            }
            if let Some(&v) = cache.get(&f) {
                return v;
            }
            let lo = frac(bdd, bdd.lo_of(f), cache);
            let hi = frac(bdd, bdd.hi_of(f), cache);
            let v = 0.5 * (lo + hi);
            cache.insert(f, v);
            v
        }
        frac(self, f, &mut cache) * (n as f64).exp2()
    }

    /// Deterministically picks one satisfying cube, or `None` for the empty
    /// set. Prefers the 0-branch at every node, so the example is the
    /// numerically smallest available in each constrained field.
    pub fn pick_cube(&self, f: NodeId) -> Option<Cube> {
        if f == NodeId::FALSE {
            return None;
        }
        let mut bits = vec![None; self.num_vars() as usize];
        let mut cur = f;
        while cur != NodeId::TRUE {
            let v = self.var_of(cur) as usize;
            if self.lo_of(cur) != NodeId::FALSE {
                bits[v] = Some(false);
                cur = self.lo_of(cur);
            } else {
                bits[v] = Some(true);
                cur = self.hi_of(cur);
            }
        }
        Some(Cube { bits })
    }

    /// Picks an example from `f` biased by `prefs`, applied greedily in
    /// priority order: each preference is intersected in only if the result
    /// stays satisfiable. This is the paper's example-selection mechanism.
    pub fn pick_with_prefs(&mut self, f: NodeId, prefs: &[NodeId]) -> Option<Cube> {
        if f == NodeId::FALSE {
            return None;
        }
        let mut cur = f;
        for &p in prefs {
            let refined = self.and(cur, p);
            if refined != NodeId::FALSE {
                cur = refined;
            }
        }
        self.pick_cube(cur)
    }

    /// The support of `f`: every variable tested anywhere in the diagram,
    /// ascending.
    pub fn support(&self, f: NodeId) -> Vec<u32> {
        let mut seen: FxMap<NodeId, ()> = FxMap::default();
        let mut vars: Vec<u32> = Vec::new();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n.is_terminal() || seen.contains_key(&n) {
                continue;
            }
            seen.insert(n, ());
            vars.push(self.var_of(n));
            stack.push(self.lo_of(n));
            stack.push(self.hi_of(n));
        }
        vars.sort_unstable();
        vars.dedup();
        vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat_count_simple() {
        let mut b = Bdd::new(3);
        assert_eq!(b.sat_count(NodeId::TRUE), 8.0);
        assert_eq!(b.sat_count(NodeId::FALSE), 0.0);
        let x = b.var(0);
        assert_eq!(b.sat_count(x), 4.0);
        let y = b.var(1);
        let xy = b.and(x, y);
        assert_eq!(b.sat_count(xy), 2.0);
        let xor = b.xor(x, y);
        assert_eq!(b.sat_count(xor), 4.0);
    }

    #[test]
    fn pick_cube_smallest() {
        let mut b = Bdd::new(4);
        let x = b.var(0);
        let y = b.var(1);
        let f = b.or(x, y);
        let c = b.pick_cube(f).unwrap();
        // Smallest solution: x=0, y=1.
        assert_eq!(c.get(0), Some(false));
        assert_eq!(c.get(1), Some(true));
        assert_eq!(c.get(2), None);
        assert!(b.eval(f, &c.concretize()));
        assert!(b.pick_cube(NodeId::FALSE).is_none());
    }

    #[test]
    fn pick_with_prefs_steers() {
        let mut b = Bdd::new(4);
        let x = b.var(0);
        let y = b.var(1);
        let f = b.or(x, y);
        // Prefer x=1 over the default smallest pick.
        let c = b.pick_with_prefs(f, &[x]).unwrap();
        assert_eq!(c.get(0), Some(true));
        // An unsatisfiable preference is skipped, not fatal.
        let nx = b.not(x);
        let ny = b.not(y);
        let only_x = b.and(f, ny);
        let c2 = b.pick_with_prefs(only_x, &[nx]).unwrap();
        assert_eq!(c2.get(0), Some(true), "pref dropped because f requires x");
    }

    #[test]
    fn prefs_apply_in_priority_order() {
        let mut b = Bdd::new(4);
        let x = b.var(0);
        let y = b.var(1);
        let f = NodeId::TRUE;
        let nx = b.not(x);
        // First pref (x) wins, later conflicting pref (¬x) is skipped,
        // compatible pref (y) still applies.
        let c = b.pick_with_prefs(f, &[x, nx, y]).unwrap();
        assert_eq!(c.get(0), Some(true));
        assert_eq!(c.get(1), Some(true));
    }

    #[test]
    fn field_extraction() {
        let mut b = Bdd::new(8);
        let f = b.value_cube(0, 8, 0xA5);
        let c = b.pick_cube(f).unwrap();
        assert_eq!(c.field(0, 8), 0xA5);
    }

    #[test]
    fn support_reports_tested_vars() {
        let mut b = Bdd::new(8);
        let x = b.var(2);
        let y = b.var(5);
        let f = b.and(x, y);
        assert_eq!(b.support(f), vec![2, 5]);
        assert!(b.support(NodeId::TRUE).is_empty());
    }

    #[test]
    fn sat_count_matches_enumeration() {
        let mut b = Bdd::new(4);
        let x = b.var(0);
        let y = b.var(1);
        let z = b.var(3);
        let xy = b.or(x, y);
        let f = b.and(xy, z);
        let count = b.sat_count(f);
        let mut brute = 0u32;
        for v in 0..16u32 {
            let assignment: Vec<bool> = (0..4).map(|i| (v >> i) & 1 == 1).collect();
            if b.eval(f, &assignment) {
                brute += 1;
            }
        }
        assert_eq!(count, brute as f64);
    }
}
