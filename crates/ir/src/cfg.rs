//! Control-flow graph and dominance analysis over a [`Function`].
//!
//! Dominance is computed with the Cooper–Harvey–Kennedy iterative algorithm
//! over a reverse postorder. It backs the validator's SSA availability rules
//! and the preconditions of control-flow transformations such as
//! `MoveBlockDown` ("a block must appear before all blocks it dominates").

use crate::{Function, Id};

/// The control-flow graph of a function, with blocks addressed by dense
/// indexes in syntactic order.
#[derive(Debug, Clone)]
pub struct Cfg {
    labels: Vec<Id>,
    /// `(label, block index)` sorted by label. A label carried by several
    /// blocks (only in invalid functions) resolves to the last of them.
    index: Vec<(Id, usize)>,
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
}

impl Cfg {
    /// Builds the CFG of `function`.
    #[must_use]
    pub fn new(function: &Function) -> Self {
        let labels: Vec<Id> = function.blocks.iter().map(|b| b.label).collect();
        let mut index: Vec<(Id, usize)> =
            labels.iter().enumerate().map(|(i, &l)| (l, i)).collect();
        // Stable, so equal labels stay in block order and the last one wins.
        index.sort_by_key(|&(label, _)| label);
        index.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        let mut cfg = Cfg {
            succs: vec![Vec::new(); labels.len()],
            preds: vec![Vec::new(); labels.len()],
            labels,
            index,
        };
        for (i, block) in function.blocks.iter().enumerate() {
            for target in block.terminator.targets() {
                if let Some(j) = cfg.index_of(target) {
                    cfg.succs[i].push(j);
                    cfg.preds[j].push(i);
                }
            }
        }
        cfg
    }

    /// Number of blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the function has no blocks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The label of block `i`.
    #[must_use]
    pub fn label(&self, i: usize) -> Id {
        self.labels[i]
    }

    /// The dense index of `label`, if it names a block.
    #[must_use]
    pub fn index_of(&self, label: Id) -> Option<usize> {
        let i = self.index.binary_search_by_key(&label, |&(l, _)| l).ok()?;
        Some(self.index[i].1)
    }

    /// Successor indexes of block `i`.
    #[must_use]
    pub fn successors(&self, i: usize) -> &[usize] {
        &self.succs[i]
    }

    /// Predecessor indexes of block `i`.
    #[must_use]
    pub fn predecessors(&self, i: usize) -> &[usize] {
        &self.preds[i]
    }

    /// Blocks in reverse postorder from the entry. Unreachable blocks are
    /// absent.
    #[must_use]
    pub fn reverse_postorder(&self) -> Vec<usize> {
        if self.labels.is_empty() {
            return Vec::new();
        }
        let mut visited = vec![false; self.labels.len()];
        let mut postorder = Vec::with_capacity(self.labels.len());
        // Iterative DFS carrying an explicit successor cursor.
        // Successors are explored in reverse so the resulting RPO matches
        // the natural order a structured emitter produces (entry, then-arm,
        // else-arm, merge) rather than its mirror.
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        visited[0] = true;
        while let Some(&mut (node, ref mut cursor)) = stack.last_mut() {
            if *cursor < self.succs[node].len() {
                let next = self.succs[node][self.succs[node].len() - 1 - *cursor];
                *cursor += 1;
                if !visited[next] {
                    visited[next] = true;
                    stack.push((next, 0));
                }
            } else {
                postorder.push(node);
                stack.pop();
            }
        }
        postorder.reverse();
        postorder
    }
}

/// The dominator tree of a function.
#[derive(Debug, Clone)]
pub struct Dominators {
    cfg: Cfg,
    /// Immediate dominator per block index; `usize::MAX` marks unreachable
    /// blocks, and the entry is its own idom.
    idom: Vec<usize>,
}

const UNREACHABLE: usize = usize::MAX;

impl Dominators {
    /// Computes the dominator tree of `function`.
    #[must_use]
    pub fn compute(function: &Function) -> Self {
        let cfg = Cfg::new(function);
        let n = cfg.len();
        let mut idom = vec![UNREACHABLE; n];
        if n == 0 {
            return Dominators { cfg, idom };
        }
        let rpo = cfg.reverse_postorder();
        let mut rpo_number = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_number[b] = i;
        }
        idom[0] = 0;
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom = UNREACHABLE;
                for &p in cfg.predecessors(b) {
                    if idom[p] == UNREACHABLE {
                        continue;
                    }
                    new_idom = if new_idom == UNREACHABLE {
                        p
                    } else {
                        intersect(&idom, &rpo_number, p, new_idom)
                    };
                }
                if new_idom != UNREACHABLE && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }
        Dominators { cfg, idom }
    }

    /// The underlying CFG.
    #[must_use]
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// Returns `true` if block `a` is reachable from the entry.
    #[must_use]
    pub fn is_reachable(&self, a: Id) -> bool {
        self.cfg
            .index_of(a)
            .is_some_and(|i| self.idom[i] != UNREACHABLE)
    }

    /// The immediate dominator of `b`, or `None` for the entry and for
    /// unreachable or unknown blocks.
    #[must_use]
    pub fn idom(&self, b: Id) -> Option<Id> {
        let i = self.cfg.index_of(b)?;
        if i == 0 || self.idom[i] == UNREACHABLE {
            None
        } else {
            Some(self.cfg.label(self.idom[i]))
        }
    }

    /// Returns `true` if `a` dominates `b` (reflexively).
    ///
    /// Unreachable blocks are dominated only by themselves.
    #[must_use]
    pub fn dominates(&self, a: Id, b: Id) -> bool {
        if a == b {
            return true;
        }
        let (Some(ai), Some(mut bi)) = (self.cfg.index_of(a), self.cfg.index_of(b)) else {
            return false;
        };
        if self.idom[bi] == UNREACHABLE {
            return false;
        }
        while bi != 0 {
            bi = self.idom[bi];
            if bi == UNREACHABLE {
                return false;
            }
            if bi == ai {
                return true;
            }
        }
        ai == 0
    }

    /// Returns `true` if `a` strictly dominates `b`.
    #[must_use]
    pub fn strictly_dominates(&self, a: Id, b: Id) -> bool {
        a != b && self.dominates(a, b)
    }
}

fn intersect(idom: &[usize], rpo_number: &[usize], mut a: usize, mut b: usize) -> usize {
    while a != b {
        while rpo_number[a] > rpo_number[b] {
            a = idom[a];
        }
        while rpo_number[b] > rpo_number[a] {
            b = idom[b];
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Block, FunctionControl, Terminator};

    /// Builds a function from (label, successors) pairs; the first entry is
    /// the entry block.
    fn function_from_edges(edges: &[(u32, &[u32])]) -> Function {
        let blocks = edges
            .iter()
            .map(|&(label, succs)| Block {
                label: Id::new(label),
                instructions: vec![],
                merge: None,
                terminator: match succs {
                    [] => Terminator::Return,
                    [t] => Terminator::Branch { target: Id::new(*t) },
                    [t, f] => Terminator::BranchConditional {
                        cond: Id::new(999),
                        true_target: Id::new(*t),
                        false_target: Id::new(*f),
                    },
                    _ => panic!("at most two successors"),
                },
            })
            .collect();
        Function {
            id: Id::new(100),
            ty: Id::new(101),
            control: FunctionControl::None,
            params: vec![],
            blocks,
        }
    }

    #[test]
    fn diamond_dominance() {
        // 1 -> {2, 3} -> 4
        let f = function_from_edges(&[(1, &[2, 3]), (2, &[4]), (3, &[4]), (4, &[])]);
        let dom = Dominators::compute(&f);
        assert!(dom.dominates(Id::new(1), Id::new(4)));
        assert!(!dom.dominates(Id::new(2), Id::new(4)));
        assert!(!dom.dominates(Id::new(3), Id::new(4)));
        assert_eq!(dom.idom(Id::new(4)), Some(Id::new(1)));
        assert_eq!(dom.idom(Id::new(1)), None);
    }

    #[test]
    fn chain_dominance_is_transitive() {
        let f = function_from_edges(&[(1, &[2]), (2, &[3]), (3, &[])]);
        let dom = Dominators::compute(&f);
        assert!(dom.dominates(Id::new(1), Id::new(3)));
        assert!(dom.strictly_dominates(Id::new(1), Id::new(3)));
        assert!(dom.dominates(Id::new(2), Id::new(3)));
        assert!(!dom.dominates(Id::new(3), Id::new(2)));
    }

    #[test]
    fn loop_back_edge() {
        // 1 -> 2 -> {3, 2-again via 3? } classic: 1->2, 2->{3,4}, 3->2, 4 exit
        let f = function_from_edges(&[(1, &[2]), (2, &[3, 4]), (3, &[2]), (4, &[])]);
        let dom = Dominators::compute(&f);
        assert!(dom.dominates(Id::new(2), Id::new(3)));
        assert!(dom.dominates(Id::new(2), Id::new(4)));
        assert!(!dom.dominates(Id::new(3), Id::new(4)));
    }

    #[test]
    fn unreachable_blocks_reported() {
        let f = function_from_edges(&[(1, &[2]), (2, &[]), (9, &[2])]);
        let dom = Dominators::compute(&f);
        assert!(!dom.is_reachable(Id::new(9)));
        assert!(dom.is_reachable(Id::new(2)));
        assert!(dom.dominates(Id::new(9), Id::new(9)));
        assert!(!dom.dominates(Id::new(9), Id::new(2)));
        assert!(!dom.dominates(Id::new(1), Id::new(9)));
    }

    #[test]
    fn rpo_starts_at_entry_and_skips_unreachable() {
        let f = function_from_edges(&[(1, &[2]), (2, &[]), (9, &[2])]);
        let cfg = Cfg::new(&f);
        let rpo = cfg.reverse_postorder();
        assert_eq!(rpo[0], 0);
        assert_eq!(rpo.len(), 2);
    }
}
