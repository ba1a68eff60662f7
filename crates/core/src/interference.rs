//! Explicit interference graph stored as a half bit-matrix.
//!
//! The paper's baseline configurations (Sreedhar III, and `Us I`/`Us III`
//! without the `InterCheck` option) build an interference graph over the
//! φ-related and copy-related variables. The graph answers `interfere(a, b)`
//! in O(1) but its construction needs the liveness sets and its footprint is
//! quadratic — which is exactly what Figures 6 and 7 measure.

use ossa_ir::entity::Value;
use ossa_ir::Function;
use ossa_liveness::{BlockLiveness, IntersectionTest};

use crate::congruence::dominance_walk;
use crate::value::ValueTable;

/// Half bit-matrix interference graph over a restricted universe of values.
#[derive(Clone, Debug)]
pub struct InterferenceGraph {
    /// Dense index of each universe value (`usize::MAX` = not in universe).
    index_of: Vec<usize>,
    universe: Vec<Value>,
    bits: Vec<u8>,
}

impl InterferenceGraph {
    /// Builds the graph over `universe` using the intersection oracle and,
    /// optionally, value-based interference.
    ///
    /// Instead of querying all `n·(n-1)/2` pairs, the universe is sorted by
    /// definition point (dominator-tree pre-order, then position) and swept
    /// with the class tests' dominance-stack walk — the paper's
    /// linear-intersection idea applied at build time — so each value is
    /// queried only against the values whose definitions dominate its own.
    /// Values with no definition never intersect anything and are skipped up
    /// front.
    pub fn build<L: BlockLiveness>(
        func: &Function,
        universe: &[Value],
        intersect: &IntersectionTest<'_, L>,
        values: Option<&ValueTable>,
    ) -> Self {
        let mut index_of = vec![usize::MAX; func.num_values()];
        for (i, &v) in universe.iter().enumerate() {
            index_of[v.index()] = i;
        }
        let n = universe.len();
        let bits = vec![0u8; Self::matrix_bytes(n)];
        let mut graph = Self { index_of, universe: universe.to_vec(), bits };

        let domtree = intersect.domtree();
        let info = intersect.info();
        // (pre-order of def block, block index, def position, value index)
        // sort key. The block index disambiguates unreachable blocks (which
        // all share pre-order `u32::MAX`) so that same-block values stay
        // adjacent — same-block definition points dominate by position even
        // when the block is unreachable, and the oracle calls such values
        // intersecting, so the sweep must visit them as one chain (and pops
        // with the dominator tree's `def_dominates`, not the class tests'
        // keys, which let nothing in an unreachable block dominate). The
        // value index tie-break keeps the sweep deterministic for values
        // defined by the same instruction (e.g. one parallel copy).
        let mut order: Vec<(u32, u32, u32, u32)> = Vec::with_capacity(n);
        for &v in universe {
            if let Some(def) = info.def(v) {
                order.push((
                    domtree.preorder_number(def.block),
                    def.block.index() as u32,
                    def.pos as u32,
                    v.index() as u32,
                ));
            }
        }
        order.sort_unstable();

        dominance_walk(
            &mut Vec::new(),
            order.iter().map(|&(_, _, _, raw)| (Value::from_index(raw as usize), ())),
            |top, current| intersect.def_dominates(top, current),
            |current, (), dominators| {
                for &(above, ()) in dominators {
                    let interferes = intersect.intersect(above, current)
                        && values.is_none_or(|table| !table.same_value(above, current));
                    if interferes {
                        graph.set(graph.index_of[above.index()], graph.index_of[current.index()]);
                    }
                }
                false
            },
        );
        graph
    }

    fn matrix_bytes(n: usize) -> usize {
        (n * (n + 1) / 2).div_ceil(8)
    }

    fn bit_index(i: usize, j: usize) -> usize {
        let (hi, lo) = if i >= j { (i, j) } else { (j, i) };
        hi * (hi + 1) / 2 + lo
    }

    fn set(&mut self, i: usize, j: usize) {
        let bit = Self::bit_index(i, j);
        self.bits[bit / 8] |= 1 << (bit % 8);
    }

    fn get(&self, i: usize, j: usize) -> bool {
        let bit = Self::bit_index(i, j);
        self.bits[bit / 8] & (1 << (bit % 8)) != 0
    }

    /// Returns `true` if `a` and `b` interfere. Values outside the universe
    /// never interfere according to the graph.
    pub fn interfere(&self, a: Value, b: Value) -> bool {
        if a == b {
            return false;
        }
        let (ia, ib) = (self.index_of[a.index()], self.index_of[b.index()]);
        if ia == usize::MAX || ib == usize::MAX {
            return false;
        }
        self.get(ia, ib)
    }

    /// Returns `true` if `value` belongs to the graph's universe.
    pub fn contains(&self, value: Value) -> bool {
        value.index() < self.index_of.len() && self.index_of[value.index()] != usize::MAX
    }

    /// Number of values in the universe.
    pub fn num_values(&self) -> usize {
        self.universe.len()
    }

    /// Heap bytes used by the bit matrix (the "Measured" interference-graph
    /// footprint of Figure 7).
    pub fn footprint_bytes(&self) -> usize {
        self.bits.capacity() + self.index_of.capacity() * std::mem::size_of::<usize>()
    }

    /// Bytes of the bit matrix alone, matching the paper's "Evaluated"
    /// formula `⌈V/8⌉ × V / 2`.
    pub fn evaluated_bytes(&self) -> usize {
        ossa_liveness::footprint::interference_bit_matrix_bytes(self.universe.len())
    }
}

/// Collects the universe the paper restricts liveness/interference
/// information to: values that appear in φ-functions or copies (sequential
/// or parallel), i.e. the values the coalescer may actually merge. A
/// one-shot form of [`copy_related_universe_and_sites_into`], the scan the
/// translation runs.
pub fn copy_related_universe(func: &Function) -> Vec<Value> {
    let mut universe = Vec::new();
    copy_related_universe_and_sites_into(
        func,
        &mut universe,
        &mut ossa_ir::EntitySet::new(),
        &mut Vec::new(),
        &mut Vec::new(),
    );
    universe
}

/// Collects the copy-related universe into recycled buffers, fusing the
/// other two instruction scans of the decision phase into the same pass
/// over the function: the pre-existing plain copies (affinity candidates)
/// and the positions of the parallel copies (copy-sharing sites), both in
/// block/instruction order. The output vectors and the dedup bit-set keep
/// their storage across functions when threaded through a corpus driver's
/// scratch.
pub fn copy_related_universe_and_sites_into(
    func: &Function,
    universe: &mut Vec<Value>,
    seen: &mut ossa_ir::EntitySet<Value>,
    plain_copies: &mut Vec<crate::insertion::InsertedMove>,
    parallel_sites: &mut Vec<(ossa_ir::Block, u32, ossa_ir::Inst)>,
) {
    universe.clear();
    seen.reset();
    plain_copies.clear();
    parallel_sites.clear();
    for block in func.blocks() {
        for (pos, &inst) in func.block_insts(block).iter().enumerate() {
            let data = func.inst(inst);
            match data {
                ossa_ir::InstData::Copy { dst, src } => {
                    plain_copies.push(crate::insertion::InsertedMove {
                        dst: *dst,
                        src: *src,
                        block,
                    });
                }
                ossa_ir::InstData::ParallelCopy { .. } => {
                    parallel_sites.push((block, pos as u32, inst));
                }
                _ => {}
            }
            if data.is_phi() || data.is_copy_like() {
                let mut add = |v| {
                    if seen.insert(v) {
                        universe.push(v);
                    }
                };
                data.for_each_def(func.pools(), &mut add);
                data.for_each_use(func.pools(), add);
            }
        }
    }
    // Pinned values are also copy-related (they get isolated by copies).
    for v in func.values() {
        if func.pinned_reg(v).is_some() && seen.insert(v) {
            universe.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossa_ir::builder::FunctionBuilder;
    use ossa_ir::{BinaryOp, ControlFlowGraph, DominatorTree};
    use ossa_liveness::{LiveRangeInfo, LivenessSets};

    fn analyses(func: &Function) -> (ControlFlowGraph, DominatorTree, LivenessSets, LiveRangeInfo) {
        let cfg = ControlFlowGraph::compute(func);
        let domtree = DominatorTree::compute(func, &cfg);
        let liveness = LivenessSets::compute(func, &cfg);
        let info = LiveRangeInfo::compute(func);
        (cfg, domtree, liveness, info)
    }

    /// Builds the graph over every value of `f`, with and without the value
    /// table, and checks it against the pairwise oracle. Returns the
    /// interfering ordered pairs, over both tables.
    fn assert_graph_matches_pairwise_oracle(f: &Function) -> Vec<(Value, Value)> {
        let (_, domtree, liveness, info) = analyses(f);
        let intersect = IntersectionTest::new(f, &domtree, &liveness, &info);
        let values = ValueTable::of(f);
        let universe: Vec<Value> = f.values().collect();
        let mut interfering = Vec::new();
        for table in [None, Some(&values)] {
            let graph = InterferenceGraph::build(f, &universe, &intersect, table);
            for &p in &universe {
                for &q in &universe {
                    if p == q {
                        continue;
                    }
                    let expected =
                        intersect.intersect(p, q) && table.is_none_or(|t| !t.same_value(p, q));
                    assert_eq!(graph.interfere(p, q), expected, "pair ({p}, {q})");
                    assert_eq!(graph.interfere(p, q), graph.interfere(q, p));
                    if expected {
                        interfering.push((p, q));
                    }
                }
            }
        }
        interfering
    }

    #[test]
    fn graph_matches_pairwise_oracle() {
        let mut b = FunctionBuilder::new("graph", 1);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        let a = b.copy(x);
        let c = b.copy(a);
        let s = b.binary(BinaryOp::Add, a, c);
        let t = b.binary(BinaryOp::Add, s, x);
        b.ret(Some(t));
        assert_graph_matches_pairwise_oracle(&b.finish());
    }

    /// Definitions in an unreachable block are where the build's pop
    /// predicate (`def_dominates`, which orders same-block definitions by
    /// position whether or not the block is reachable) and the class tests'
    /// keys (under which nothing there dominates) disagree. The oracle calls
    /// such values intersecting, so the graph must record them.
    #[test]
    fn graph_matches_pairwise_oracle_over_an_unreachable_block() {
        let mut b = FunctionBuilder::new("unreachable", 1);
        let entry = b.create_block();
        let dead = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.param(0);
        let a = b.copy(x);
        let s = b.binary(BinaryOp::Add, a, x);
        b.ret(Some(s));
        b.switch_to_block(dead);
        let u = b.iconst(3);
        let v = b.copy(u);
        let w = b.copy(v);
        let t = b.binary(BinaryOp::Add, v, u);
        let r = b.binary(BinaryOp::Add, t, w);
        b.ret(Some(r));
        let interfering = assert_graph_matches_pairwise_oracle(&b.finish());
        let dead_values = [u, v, w, t, r];
        let in_dead_block = interfering
            .iter()
            .filter(|(p, q)| dead_values.contains(p) && dead_values.contains(q))
            .count();
        assert!(in_dead_block > 0, "no interference inside the unreachable block: {interfering:?}");
    }

    #[test]
    fn universe_is_restricted_to_phi_and_copy_values() {
        let mut b = FunctionBuilder::new("universe", 1);
        let entry = b.create_block();
        let left = b.create_block();
        let join = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let p = b.param(0);
        let plain = b.binary(BinaryOp::Add, p, p);
        let copied = b.copy(plain);
        b.branch(p, left, join);
        b.switch_to_block(left);
        let c2 = b.iconst(2);
        b.jump(join);
        b.switch_to_block(join);
        let m = b.phi(vec![(entry, copied), (left, c2)]);
        b.ret(Some(m));
        let f = b.finish();
        let universe = copy_related_universe(&f);
        assert!(universe.contains(&copied));
        assert!(universe.contains(&m));
        assert!(universe.contains(&c2));
        assert!(universe.contains(&plain)); // source of a copy
        assert!(!universe.contains(&p)); // never copy- or φ-related
    }

    #[test]
    fn footprint_matches_formula_shape() {
        let mut b = FunctionBuilder::new("fp", 0);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.iconst(1);
        let y = b.copy(x);
        let z = b.copy(y);
        let s = b.binary(BinaryOp::Add, z, y);
        b.ret(Some(s));
        let f = b.finish();
        let (_, domtree, liveness, info) = analyses(&f);
        let intersect = IntersectionTest::new(&f, &domtree, &liveness, &info);
        let graph = InterferenceGraph::build(&f, &copy_related_universe(&f), &intersect, None);
        assert!(graph.num_values() >= 3);
        assert!(graph.footprint_bytes() >= graph.evaluated_bytes());
    }

    #[test]
    fn values_outside_universe_never_interfere() {
        let mut b = FunctionBuilder::new("outside", 0);
        let entry = b.create_block();
        b.set_entry(entry);
        b.switch_to_block(entry);
        let x = b.iconst(1);
        let y = b.copy(x);
        b.ret(Some(y));
        let f = b.finish();
        let (_, domtree, liveness, info) = analyses(&f);
        let intersect = IntersectionTest::new(&f, &domtree, &liveness, &info);
        let graph = InterferenceGraph::build(&f, &[x], &intersect, None);
        assert!(graph.contains(x));
        assert!(!graph.contains(y));
        assert!(!graph.interfere(x, y));
    }
}
