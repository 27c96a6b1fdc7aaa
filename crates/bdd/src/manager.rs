//! The BDD manager: node arena, hash-consing, and the apply/ITE core.

use batnet_net::hash::{fx_add, FxMap};

/// A reference to a BDD node within one [`Bdd`] manager.
///
/// Ids are only meaningful relative to the manager that produced them.
/// `FALSE` and `TRUE` are the two terminals.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The constant-false terminal (empty packet set).
    pub const FALSE: NodeId = NodeId(0);
    /// The constant-true terminal (universe packet set).
    pub const TRUE: NodeId = NodeId(1);

    /// Is this one of the two terminals?
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }
}

/// One decision node: branch variable plus low (var=0) and high (var=1)
/// children. 12 bytes; the arena stores millions of these comfortably.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Node {
    var: u32,
    lo: NodeId,
    hi: NodeId,
}

const _: () = assert!(std::mem::size_of::<Node>() == 12);

/// Variable index used for terminals: larger than any real variable so the
/// min-var recursion in apply never descends into a terminal.
const TERMINAL_VAR: u32 = u32::MAX;

/// The workspace hasher's mix over three words, for the two tables the
/// manager owns. The upper half of the product is the well-mixed one.
#[inline]
fn hash3(a: u32, b: u32, c: u32) -> usize {
    (fx_add(fx_add(u64::from(a), u64::from(b)), u64::from(c)) >> 32) as usize
}

/// Binary operations computed by `apply`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Op {
    And,
    Or,
    Xor,
    /// Set difference `a ∧ ¬b`.
    Diff,
}

/// Node ids stay below this, so the third key word of a cache entry is
/// either an `ite` operand (below) or a [`Tag`] (at or above).
const ARENA_CEILING: u32 = 1 << 31;

/// Registered map/transform ids share the tag word with the operation.
pub(crate) const TAG_ID_LIMIT: usize = 1 << 24;

/// Which operation a cache entry belongs to — every cached operation but
/// `ite`, which needs all three key words for its operands.
#[derive(Clone, Copy)]
pub(crate) enum Tag {
    Apply(Op),
    Not,
    Exists,
    /// With the registered map's id.
    Rename(u32),
    /// With the registered transform's id.
    Transform(u32),
}

impl Tag {
    #[inline]
    fn word(self) -> u32 {
        let (op, id) = match self {
            Tag::Apply(op) => (op as u32, 0),
            Tag::Not => (4, 0),
            Tag::Exists => (5, 0),
            Tag::Rename(id) => (6, id),
            Tag::Transform(id) => (7, id),
        };
        debug_assert!((id as usize) < TAG_ID_LIMIT);
        ARENA_CEILING | op << 24 | id
    }
}

/// One operation-cache entry: key words `(a, b, c)` then the result. `a`
/// is a non-FALSE operand of every cached operation, so the all-zero
/// entry is "empty" and a zeroed allocation is an empty cache.
type Entry = [u32; 4];

const _: () = assert!(std::mem::size_of::<Entry>() == 16);

/// Slots in the operation cache (4 MiB) once the unique table is at least
/// as long; until then the cache is as long as the unique table, so a
/// small short-lived manager (lint builds one per ACL) does not zero 4 MiB.
/// Measured, not guessed — see DESIGN §2.2: 2¹⁶ loses a quarter of
/// `verify-n7`'s hits, 2²⁰ costs every live shard fork 16 MiB and falls
/// out of L2.
const CACHE_SLOTS: usize = 1 << 18;

fn empty_cache(slots: usize) -> Vec<Entry> {
    debug_assert!(slots.is_power_of_two());
    // Array-of-integer zero is what `vec!` hands to `alloc_zeroed`: pages
    // no operation has hashed to are never touched.
    vec![[0; 4]; slots]
}

/// Counters exposed for benchmarks and regression tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BddStats {
    /// Nodes currently in the arena (including terminals).
    pub nodes: usize,
    /// Apply-cache hits since creation.
    pub cache_hits: u64,
    /// Apply-cache misses since creation.
    pub cache_misses: u64,
}

/// A BDD manager: owns the node arena, the unique table (hash-consing), and
/// the operation cache. All operations go through `&mut self`; one manager
/// is used per analysis.
///
/// The arena only grows (no GC); the two tables around it do not hold
/// anything the arena cannot rebuild. The unique table is open-addressed
/// arena indices and is regrown by rehashing the arena. The operation
/// cache is direct-mapped, lossy (a collision overwrites) and bounded: it
/// doubles with the unique table up to `CACHE_SLOTS` and stays there.
/// Losing an entry costs a recomputation and never a different answer —
/// every node a recomputation asks `mk` for was hash-consed the first
/// time, so results, node numbering and `node_count` do not depend on
/// what the cache forgot.
pub struct Bdd {
    nodes: Vec<Node>,
    /// Power-of-two table of arena indices, 0 = empty (terminals are
    /// never hashed), linear probing, load ≤ ½.
    unique: Vec<u32>,
    cache: Vec<Entry>,
    cache_used: usize,
    pub(crate) maps: Vec<crate::ops::MapData>,
    pub(crate) transforms: Vec<crate::ops::TransformData>,
    num_vars: u32,
    cache_hits: u64,
    cache_misses: u64,
}

impl Bdd {
    /// Creates a manager for `num_vars` variables, indexed `0..num_vars`
    /// with 0 topmost in the order.
    pub fn new(num_vars: u32) -> Bdd {
        let slots = 1 << 13;
        let mut bdd = Bdd {
            nodes: Vec::with_capacity(slots / 2),
            unique: vec![0; slots],
            cache: empty_cache(slots),
            cache_used: 0,
            maps: Vec::new(),
            transforms: Vec::new(),
            num_vars,
            cache_hits: 0,
            cache_misses: 0,
        };
        // Terminals occupy slots 0 and 1; their `lo`/`hi` are self-loops
        // that no operation ever follows.
        bdd.nodes.push(Node { var: TERMINAL_VAR, lo: NodeId::FALSE, hi: NodeId::FALSE });
        bdd.nodes.push(Node { var: TERMINAL_VAR, lo: NodeId::TRUE, hi: NodeId::TRUE });
        bdd
    }

    /// Number of variables this manager was created with.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// A detached copy for a shard worker: same node arena, unique
    /// table, and registered maps/transforms — every existing `NodeId`,
    /// `VarMap`, and `Transform` handle stays valid in the fork — but a
    /// fresh empty operation cache. The manager enforces no budget, so
    /// none is copied: a fork's driver polls its own per-call governor.
    /// Forks diverge from the parent: nodes created in one are
    /// invisible to the other, which is exactly what per-worker
    /// reachability sharding wants.
    pub fn fork(&self) -> Bdd {
        Bdd {
            nodes: self.nodes.clone(),
            unique: self.unique.clone(),
            cache: empty_cache(self.cache.len()),
            cache_used: 0,
            maps: self.maps.clone(),
            transforms: self.transforms.clone(),
            num_vars: self.num_vars,
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    #[inline]
    pub(crate) fn var_of(&self, id: NodeId) -> u32 {
        self.nodes[id.0 as usize].var
    }

    #[inline]
    pub(crate) fn lo_of(&self, id: NodeId) -> NodeId {
        self.nodes[id.0 as usize].lo
    }

    #[inline]
    pub(crate) fn hi_of(&self, id: NodeId) -> NodeId {
        self.nodes[id.0 as usize].hi
    }

    /// Hash-consing constructor: returns the canonical node for
    /// `(var, lo, hi)`, eliding redundant tests (`lo == hi`).
    pub(crate) fn mk(&mut self, var: u32, lo: NodeId, hi: NodeId) -> NodeId {
        debug_assert!(var < self.num_vars, "variable {var} out of range");
        debug_assert!(
            self.var_of(lo) > var && self.var_of(hi) > var,
            "ordering violation at var {var}"
        );
        if lo == hi {
            return lo;
        }
        let node = Node { var, lo, hi };
        let mask = self.unique.len() - 1;
        let mut slot = hash3(var, lo.0, hi.0) & mask;
        loop {
            match self.unique[slot] {
                0 => break,
                i if self.nodes[i as usize] == node => return NodeId(i),
                _ => slot = (slot + 1) & mask,
            }
        }
        let id = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&i| i < ARENA_CEILING)
            .expect("BDD arena overflow");
        self.nodes.push(node);
        self.unique[slot] = id;
        if self.nodes.len() * 2 > self.unique.len() {
            self.grow_unique();
        }
        NodeId(id)
    }

    /// Doubles the unique table and rehashes every decision node into it
    /// from the arena (the table holds nothing the arena does not). The
    /// operation cache, while it is as long as the table and short of
    /// `CACHE_SLOTS`, doubles with it and starts over empty — five times
    /// in a manager's first 65,536 nodes, never after.
    fn grow_unique(&mut self) {
        if self.cache.len() == self.unique.len() && self.cache.len() < CACHE_SLOTS {
            self.cache = empty_cache(self.cache.len() * 2);
            self.cache_used = 0;
        }
        let mut table = vec![0u32; self.unique.len() * 2];
        let mask = table.len() - 1;
        for (i, n) in self.nodes.iter().enumerate().skip(2) {
            let mut slot = hash3(n.var, n.lo.0, n.hi.0) & mask;
            while table[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            table[slot] = i as u32;
        }
        self.unique = table;
    }

    /// Looks a tagged operation on `(a, b)` up in the operation cache.
    #[inline]
    pub(crate) fn cache_get(&self, tag: Tag, a: NodeId, b: NodeId) -> Option<NodeId> {
        self.lookup(a.0, b.0, tag.word())
    }

    /// Records a tagged operation's result, overwriting whatever hashed
    /// to the same slot.
    #[inline]
    pub(crate) fn cache_put(&mut self, tag: Tag, a: NodeId, b: NodeId, r: NodeId) {
        self.store(a.0, b.0, tag.word(), r);
    }

    #[inline]
    fn lookup(&self, a: u32, b: u32, c: u32) -> Option<NodeId> {
        let e = &self.cache[hash3(a, b, c) & (self.cache.len() - 1)];
        (e[0] == a && e[1] == b && e[2] == c).then_some(NodeId(e[3]))
    }

    #[inline]
    fn store(&mut self, a: u32, b: u32, c: u32, r: NodeId) {
        debug_assert!(a != 0, "the all-zero entry means empty");
        let slot = hash3(a, b, c) & (self.cache.len() - 1);
        let e = &mut self.cache[slot];
        self.cache_used += usize::from(e[0] == 0);
        *e = [a, b, c, r.0];
    }

    /// The canonical node "if `var` then `hi` else `lo`", for encoders that
    /// build a diagram bottom-up instead of through `apply` (prefix cubes,
    /// longest-prefix-match tables): one unique-table probe, no operation
    /// cache. Hash-consing and `lo == hi` elision are [`Bdd::mk`]'s; what
    /// this adds is the ordering check in release builds, because a caller
    /// that passes a child testing `var` or an earlier variable would
    /// otherwise put a non-canonical node in the arena.
    ///
    /// # Panics
    /// If `var` is out of range or not strictly above both children in the
    /// variable order.
    pub fn node(&mut self, var: u32, lo: NodeId, hi: NodeId) -> NodeId {
        assert!(var < self.num_vars, "variable {var} out of range");
        assert!(
            self.var_of(lo) > var && self.var_of(hi) > var,
            "ordering violation at var {var}"
        );
        self.mk(var, lo, hi)
    }

    /// The function "variable `v` is 1".
    pub fn var(&mut self, v: u32) -> NodeId {
        self.mk(v, NodeId::FALSE, NodeId::TRUE)
    }

    /// The function "variable `v` is 0".
    pub fn nvar(&mut self, v: u32) -> NodeId {
        self.mk(v, NodeId::TRUE, NodeId::FALSE)
    }

    /// The literal for `v` with the given polarity.
    pub fn literal(&mut self, v: u32, value: bool) -> NodeId {
        if value {
            self.var(v)
        } else {
            self.nvar(v)
        }
    }

    /// Branch children of `id` with respect to variable `v` (Shannon
    /// cofactors): if `id` does not test `v` both cofactors are `id`.
    #[inline]
    pub(crate) fn cofactors(&self, id: NodeId, v: u32) -> (NodeId, NodeId) {
        if self.var_of(id) == v {
            (self.lo_of(id), self.hi_of(id))
        } else {
            (id, id)
        }
    }

    fn apply(&mut self, op: Op, a: NodeId, b: NodeId) -> NodeId {
        // Terminal cases per operation.
        match op {
            Op::And => {
                if a == NodeId::FALSE || b == NodeId::FALSE {
                    return NodeId::FALSE;
                }
                if a == NodeId::TRUE {
                    return b;
                }
                if b == NodeId::TRUE || a == b {
                    return a;
                }
            }
            Op::Or => {
                if a == NodeId::TRUE || b == NodeId::TRUE {
                    return NodeId::TRUE;
                }
                if a == NodeId::FALSE {
                    return b;
                }
                if b == NodeId::FALSE || a == b {
                    return a;
                }
            }
            Op::Xor => {
                if a == b {
                    return NodeId::FALSE;
                }
                if a == NodeId::FALSE {
                    return b;
                }
                if b == NodeId::FALSE {
                    return a;
                }
            }
            Op::Diff => {
                if a == NodeId::FALSE || b == NodeId::TRUE || a == b {
                    return NodeId::FALSE;
                }
                if b == NodeId::FALSE {
                    return a;
                }
            }
        }
        // Commutative ops: canonicalize the key order to double cache hits.
        let (a, b) = if op != Op::Diff && a.0 > b.0 { (b, a) } else { (a, b) };
        if let Some(r) = self.cache_get(Tag::Apply(op), a, b) {
            self.cache_hits += 1;
            return r;
        }
        self.cache_misses += 1;
        let v = self.var_of(a).min(self.var_of(b));
        let (a0, a1) = self.cofactors(a, v);
        let (b0, b1) = self.cofactors(b, v);
        let lo = self.apply(op, a0, b0);
        let hi = self.apply(op, a1, b1);
        let r = self.mk(v, lo, hi);
        self.cache_put(Tag::Apply(op), a, b, r);
        r
    }

    /// Conjunction (packet-set intersection).
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.apply(Op::And, a, b)
    }

    /// Disjunction (packet-set union).
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.apply(Op::Or, a, b)
    }

    /// Exclusive or (symmetric difference).
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.apply(Op::Xor, a, b)
    }

    /// Set difference `a ∖ b`.
    pub fn diff(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.apply(Op::Diff, a, b)
    }

    /// Negation (set complement).
    pub fn not(&mut self, a: NodeId) -> NodeId {
        if a == NodeId::FALSE {
            return NodeId::TRUE;
        }
        if a == NodeId::TRUE {
            return NodeId::FALSE;
        }
        if let Some(r) = self.cache_get(Tag::Not, a, NodeId::FALSE) {
            self.cache_hits += 1;
            return r;
        }
        self.cache_misses += 1;
        let lo = self.not(self.lo_of(a));
        let hi = self.not(self.hi_of(a));
        let r = self.mk(self.var_of(a), lo, hi);
        self.cache_put(Tag::Not, a, NodeId::FALSE, r);
        // Negation is an involution; prime the reverse direction too.
        self.cache_put(Tag::Not, r, NodeId::FALSE, a);
        r
    }

    /// If-then-else: `(f ∧ g) ∨ (¬f ∧ h)` computed in one pass.
    pub fn ite(&mut self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
        if f == NodeId::TRUE {
            return g;
        }
        if f == NodeId::FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == NodeId::TRUE && h == NodeId::FALSE {
            return f;
        }
        if let Some(r) = self.lookup(f.0, g.0, h.0) {
            self.cache_hits += 1;
            return r;
        }
        self.cache_misses += 1;
        let v = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let (h0, h1) = self.cofactors(h, v);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(v, lo, hi);
        self.store(f.0, g.0, h.0, r);
        r
    }

    /// Logical implication as a set query: is `a ⊆ b`? Equivalent to
    /// `a ∖ b = ∅` but short-circuits without building the difference.
    pub fn implies_true(&mut self, a: NodeId, b: NodeId) -> bool {
        self.diff(a, b) == NodeId::FALSE
    }

    /// Evaluates `f` on a concrete assignment (index = variable).
    pub fn eval(&self, f: NodeId, assignment: &[bool]) -> bool {
        let mut cur = f;
        while !cur.is_terminal() {
            let v = self.var_of(cur) as usize;
            cur = if assignment.get(v).copied().unwrap_or(false) {
                self.hi_of(cur)
            } else {
                self.lo_of(cur)
            };
        }
        cur == NodeId::TRUE
    }

    /// Number of decision nodes reachable from `f` (diagram size).
    pub fn size(&self, f: NodeId) -> usize {
        let mut seen: FxMap<NodeId, ()> = FxMap::default();
        let mut stack = vec![f];
        let mut count = 0;
        while let Some(n) = stack.pop() {
            if n.is_terminal() || seen.contains_key(&n) {
                continue;
            }
            seen.insert(n, ());
            count += 1;
            stack.push(self.lo_of(n));
            stack.push(self.hi_of(n));
        }
        count
    }

    /// Copies `f` out of `src` into this manager: the same function over
    /// the same variable indices, rebuilt children first with one
    /// unique-table probe per decision node of `f`. Managers hash-cons,
    /// so importing a function this manager already holds returns the
    /// node it has.
    ///
    /// # Panics
    /// If `f` tests a variable this manager does not have.
    pub fn import(&mut self, src: &Bdd, f: NodeId) -> NodeId {
        let mut copied: FxMap<NodeId, NodeId> = FxMap::default();
        copied.insert(NodeId::FALSE, NodeId::FALSE);
        copied.insert(NodeId::TRUE, NodeId::TRUE);
        let mut stack = vec![f];
        while let Some(&n) = stack.last() {
            if copied.contains_key(&n) {
                stack.pop();
                continue;
            }
            let (lo, hi) = (src.lo_of(n), src.hi_of(n));
            match (copied.get(&lo), copied.get(&hi)) {
                (Some(&lo), Some(&hi)) => {
                    let var = src.var_of(n);
                    assert!(var < self.num_vars, "variable {var} out of range");
                    let id = self.mk(var, lo, hi);
                    copied.insert(n, id);
                    stack.pop();
                }
                (l, h) => {
                    if l.is_none() {
                        stack.push(lo);
                    }
                    if h.is_none() {
                        stack.push(hi);
                    }
                }
            }
        }
        copied[&f]
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> BddStats {
        BddStats {
            nodes: self.nodes.len(),
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
        }
    }

    /// Nodes currently in the arena (including the two terminals).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Entries in the unique table (hash-consed decision nodes): every
    /// arena node but the two terminals.
    pub fn unique_table_len(&self) -> usize {
        self.nodes.len() - 2
    }

    /// Apply/ITE/not-cache hits since creation or the last
    /// [`Bdd::take_stats`].
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Cache misses since creation or the last [`Bdd::take_stats`].
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    /// Cache hit rate in `[0, 1]` over the current accounting window
    /// (0 when no lookups happened).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Returns the statistics accumulated since the last call (or
    /// creation) and resets the hit/miss counters, so per-snapshot
    /// reports see per-snapshot numbers rather than process-lifetime
    /// accumulation. The node count is a level, not a flow, and is not
    /// reset.
    pub fn take_stats(&mut self) -> BddStats {
        let stats = self.stats();
        self.cache_hits = 0;
        self.cache_misses = 0;
        stats
    }

    /// Occupied slots of the operation cache, at most `CACHE_SLOTS` — what
    /// the bench harness surfaces as the `bdd.cache.entries` gauge (16
    /// bytes each). Deterministic: a slot fills the first time an
    /// operation hashes to it and is only ever overwritten after that.
    pub fn cache_entries(&self) -> usize {
        self.cache_used
    }

    /// Empties the operation cache (not the arena). Never needed to bound
    /// memory; for measurements that must not see an earlier phase's hits.
    pub fn clear_caches(&mut self) {
        self.cache = empty_cache(self.cache.len());
        self.cache_used = 0;
    }

    /// Test seam: replaces the operation cache with an empty one of
    /// `slots` entries (fewer than the unique table has, so it never
    /// grows), so a test can show results do not depend on what a tiny
    /// cache forgot. Not a tuning knob — see `CACHE_SLOTS`.
    #[doc(hidden)]
    pub fn shrink_cache_for_test(&mut self, slots: usize) {
        self.cache = empty_cache(slots);
        self.cache_used = 0;
    }

    /// Builds the conjunction of literals for an unsigned value laid out on
    /// `bits` variables starting at `first_var`, most significant bit first
    /// — the §4.2.2 bit order. Constructed bottom-up in a single pass so no
    /// intermediate conjunctions are allocated.
    pub fn value_cube(&mut self, first_var: u32, bits: u32, value: u64) -> NodeId {
        let mut acc = NodeId::TRUE;
        for i in (0..bits).rev() {
            let bit = (value >> (bits - 1 - i)) & 1 == 1;
            let v = first_var + i;
            acc = if bit {
                self.mk(v, NodeId::FALSE, acc)
            } else {
                self.mk(v, acc, NodeId::FALSE)
            };
        }
        acc
    }

    /// Like [`Bdd::value_cube`] but only constrains the top `fixed` bits —
    /// the BDD for "field starts with this prefix", the workhorse of IP
    /// prefix encoding.
    pub fn prefix_cube(&mut self, first_var: u32, bits: u32, value: u64, fixed: u32) -> NodeId {
        debug_assert!(fixed <= bits);
        let mut acc = NodeId::TRUE;
        for i in (0..fixed).rev() {
            let bit = (value >> (bits - 1 - i)) & 1 == 1;
            let v = first_var + i;
            acc = if bit {
                self.mk(v, NodeId::FALSE, acc)
            } else {
                self.mk(v, acc, NodeId::FALSE)
            };
        }
        acc
    }
}

impl std::fmt::Debug for Bdd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bdd")
            .field("num_vars", &self.num_vars)
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_behave() {
        let mut b = Bdd::new(4);
        assert_eq!(b.and(NodeId::TRUE, NodeId::FALSE), NodeId::FALSE);
        assert_eq!(b.or(NodeId::TRUE, NodeId::FALSE), NodeId::TRUE);
        assert_eq!(b.not(NodeId::TRUE), NodeId::FALSE);
        assert_eq!(b.xor(NodeId::TRUE, NodeId::TRUE), NodeId::FALSE);
        assert_eq!(b.diff(NodeId::TRUE, NodeId::FALSE), NodeId::TRUE);
    }

    #[test]
    fn hash_consing_is_canonical() {
        let mut b = Bdd::new(4);
        let x = b.var(0);
        let y = b.var(1);
        let f1 = b.and(x, y);
        let f2 = b.and(y, x);
        assert_eq!(f1, f2, "commutativity must yield identical nodes");
        let ny = b.not(y);
        let g = b.or(f1, ny);
        let g2 = {
            // (x∧y) ∨ ¬y == x ∨ ¬y  (absorption-ish identity)
            let nv = b.not(y);
            b.or(x, nv)
        };
        assert_eq!(g, g2, "equivalent formulas must be the same node");
    }

    #[test]
    fn redundant_tests_elided() {
        let mut b = Bdd::new(4);
        let x = b.var(2);
        // ite(var0, x, x) must collapse to x without testing var0.
        let v0 = b.var(0);
        let f = b.ite(v0, x, x);
        assert_eq!(f, x);
        assert_eq!(b.var_of(f), 2);
    }

    #[test]
    fn demorgan() {
        let mut b = Bdd::new(6);
        let x = b.var(3);
        let y = b.var(5);
        let lhs = {
            let a = b.and(x, y);
            b.not(a)
        };
        let rhs = {
            let nx = b.not(x);
            let ny = b.not(y);
            b.or(nx, ny)
        };
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn ite_equals_expansion() {
        let mut b = Bdd::new(6);
        let f = b.var(0);
        let x1 = b.var(1);
        let x2 = b.var(2);
        let g = b.or(x1, x2);
        let x3 = b.var(3);
        let h = b.and(x2, x3);
        let ite = b.ite(f, g, h);
        let expanded = {
            let fg = b.and(f, g);
            let nf = b.not(f);
            let nfh = b.and(nf, h);
            b.or(fg, nfh)
        };
        assert_eq!(ite, expanded);
    }

    #[test]
    fn eval_walks_correctly() {
        let mut b = Bdd::new(3);
        let x0 = b.var(0);
        let x2 = b.var(2);
        let f = b.xor(x0, x2);
        assert!(!b.eval(f, &[false, false, false]));
        assert!(b.eval(f, &[true, false, false]));
        assert!(b.eval(f, &[false, true, true]));
        assert!(!b.eval(f, &[true, false, true]));
    }

    #[test]
    fn value_cube_matches_exact_value() {
        let mut b = Bdd::new(8);
        let f = b.value_cube(0, 8, 0b1010_0001);
        for v in 0u32..256 {
            let assignment: Vec<bool> = (0..8).map(|i| (v >> (7 - i)) & 1 == 1).collect();
            assert_eq!(b.eval(f, &assignment), v == 0b1010_0001, "v={v}");
        }
        assert_eq!(b.size(f), 8);
    }

    #[test]
    fn prefix_cube_matches_prefix() {
        let mut b = Bdd::new(8);
        // Top 3 bits must equal 101.
        let f = b.prefix_cube(0, 8, 0b1010_0000, 3);
        for v in 0u32..256 {
            let assignment: Vec<bool> = (0..8).map(|i| (v >> (7 - i)) & 1 == 1).collect();
            assert_eq!(b.eval(f, &assignment), v >> 5 == 0b101, "v={v}");
        }
        assert_eq!(b.size(f), 3);
        // fixed = 0 is the universe.
        assert_eq!(b.prefix_cube(0, 8, 0, 0), NodeId::TRUE);
    }

    #[test]
    fn node_is_the_hash_consed_ite_on_a_variable() {
        let mut b = Bdd::new(6);
        let lo = b.var(3);
        let hi = b.nvar(5);
        let x1 = b.var(1);
        let expect = b.ite(x1, hi, lo);
        let lookups = b.cache_hits() + b.cache_misses();
        let n = b.node(1, lo, hi);
        assert_eq!(n, expect);
        assert_eq!(b.node(1, lo, lo), lo, "redundant test elided");
        assert_eq!(b.cache_hits() + b.cache_misses(), lookups, "no op cache involved");
    }

    #[test]
    #[should_panic(expected = "ordering violation at var 3")]
    fn node_rejects_a_child_at_or_above_its_variable() {
        let mut b = Bdd::new(6);
        let child = b.var(3);
        b.node(3, NodeId::FALSE, child);
    }

    #[test]
    fn diff_and_implies() {
        let mut b = Bdd::new(4);
        let x = b.var(0);
        let y = b.var(1);
        let xy = b.and(x, y);
        assert!(b.implies_true(xy, x));
        assert!(!b.implies_true(x, xy));
        let d = b.diff(x, xy);
        // x ∖ (x∧y) == x∧¬y
        let ny = b.not(y);
        let expect = b.and(x, ny);
        assert_eq!(d, expect);
    }

    #[test]
    fn take_stats_resets_cache_counters_not_nodes() {
        let mut b = Bdd::new(8);
        let x = b.var(0);
        let y = b.var(1);
        let f = b.and(x, y);
        b.and(x, y); // cache hit
        let first = b.take_stats();
        assert!(first.cache_hits >= 1, "repeat apply must hit the cache");
        assert!(first.cache_misses >= 1);
        let nodes_before = b.node_count();
        // After the take, the window restarts at zero…
        assert_eq!(b.cache_hits(), 0);
        assert_eq!(b.cache_misses(), 0);
        assert_eq!(b.cache_hit_rate(), 0.0);
        // …but the arena and unique table are untouched.
        assert_eq!(b.node_count(), nodes_before);
        assert_eq!(b.unique_table_len(), nodes_before - 2, "terminals are not hash-consed");
        // A fresh window counts only new activity.
        b.and(x, y);
        assert!(b.cache_hits() >= 1);
        assert!(b.eval(f, &[true, true]));
    }

    #[test]
    fn fork_preserves_ids_and_diverges() {
        let mut b = Bdd::new(8);
        let x = b.var(0);
        let y = b.var(3);
        let f = b.and(x, y);
        let mut shard = b.fork();
        // Existing NodeIds mean the same function in the fork.
        for v in 0u32..4 {
            let assignment: Vec<bool> = (0..8).map(|i| (v >> i) & 1 == 1).collect();
            assert_eq!(b.eval(f, &assignment), shard.eval(f, &assignment));
        }
        // The fork hash-conses against the copied unique table: an
        // equivalent build resolves to the same NodeId.
        assert_eq!(shard.and(x, y), f);
        // Divergence: new nodes in the fork do not touch the parent.
        let parent_nodes = b.node_count();
        let z = shard.var(6);
        let g = shard.or(f, z);
        assert!(shard.eval(g, &[false, false, false, false, false, false, true, false]));
        assert_eq!(b.node_count(), parent_nodes);
    }

    /// Every decision node of the arena resolves to its own id, and
    /// nothing new is allocated finding that out.
    fn assert_refinds_every_node(b: &mut Bdd) {
        let n = b.node_count();
        for i in 2..n {
            let id = NodeId(i as u32);
            assert_eq!(b.mk(b.var_of(id), b.lo_of(id), b.hi_of(id)), id);
        }
        assert_eq!(b.node_count(), n);
    }

    #[test]
    fn unique_table_regrows_from_the_arena_and_forks_by_copy() {
        let mut b = Bdd::new(32);
        b.shrink_cache_for_test(16);
        let initial = b.unique.len();
        let mut k = 0u64;
        while b.unique.len() < initial << 4 {
            b.value_cube(0, 32, k.wrapping_mul(0x9E37_79B9));
            k += 1;
        }
        assert!(b.node_count() * 2 <= b.unique.len(), "load stays at or under a half");
        assert_eq!(b.unique.iter().filter(|&&i| i != 0).count(), b.unique_table_len());
        assert_refinds_every_node(&mut b);
        assert_eq!(b.cache.len(), 16, "a shrunk test cache does not follow the table");
        // The fork's table is the parent's, slot for slot: it re-finds the
        // same nodes and numbers its first new one after them.
        let mut shard = b.fork();
        assert_eq!(shard.unique, b.unique);
        assert_refinds_every_node(&mut shard);
        let next = shard.node_count();
        let fresh = shard.value_cube(0, 32, u64::from(u32::MAX));
        assert!(fresh.0 as usize >= next, "a new function gets new nodes");
        assert_eq!(b.node_count(), next, "and the parent does not see them");
    }

    #[test]
    fn op_cache_grows_to_its_fixed_size_and_stays() {
        let mut b = Bdd::new(32);
        assert_eq!(b.cache.len(), b.unique.len(), "a fresh manager's cache is small");
        let mut acc = NodeId::FALSE;
        let mut k = 0u64;
        while b.cache_hits() + b.cache_misses() < 1_000_000 {
            let c = b.value_cube(0, 32, k.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF);
            acc = b.or(acc, c);
            k += 1;
        }
        assert_ne!(acc, NodeId::FALSE);
        assert!(b.unique.len() > CACHE_SLOTS, "the arena outgrew the cache");
        assert_eq!(b.cache.len(), CACHE_SLOTS);
        let occupied = b.cache.iter().filter(|e| e[0] != 0).count();
        assert_eq!(b.cache_entries(), occupied);
        assert!(occupied > 0 && occupied <= CACHE_SLOTS);
        b.clear_caches();
        assert_eq!(b.cache_entries(), 0);
        assert_eq!(b.cache.len(), CACHE_SLOTS);
    }

    #[test]
    fn stats_count_nodes() {
        let mut b = Bdd::new(4);
        let before = b.stats().nodes;
        let x = b.var(0);
        let y = b.var(1);
        b.and(x, y);
        assert!(b.stats().nodes > before);
        b.clear_caches();
        // Clearing caches must not lose nodes.
        let f = b.and(x, y);
        assert!(b.eval(f, &[true, true]));
    }
}
