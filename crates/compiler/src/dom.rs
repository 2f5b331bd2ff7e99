//! Dominator and post-dominator trees (Cooper–Harvey–Kennedy "a simple,
//! fast dominance algorithm").
//!
//! The region analysis of Algorithm 1 is phrased in terms of dominance
//! ("there is a header in R that dominates all BBs in it; a BB
//! post-dominates all nodes in R"), so these trees are the foundation of
//! everything in [`crate::regions`] and [`crate::wfg`].

use crate::cfg::Cfg;
use crate::ir::{BlockId, Function};

/// A dominator tree over reachable blocks.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// `idom[b]` = immediate dominator of `b`; entry's idom is itself;
    /// `None` for unreachable blocks.
    idom: Vec<Option<BlockId>>,
    root: BlockId,
}

impl DomTree {
    /// Computes the dominator tree of `func`.
    pub fn dominators(func: &Function) -> Self {
        let cfg = Cfg::new(func);
        Self::compute(cfg.len(), cfg.entry(), &cfg.rpo, &cfg.rpo_index, &cfg.preds)
    }

    /// Computes the post-dominator tree of `func`.
    ///
    /// Multiple exit blocks are handled with a virtual exit: a block's
    /// immediate post-dominator may be `None` even when reachable, meaning
    /// only the virtual exit post-dominates it.
    pub fn post_dominators(func: &Function) -> Self {
        let cfg = Cfg::new(func);
        let n = cfg.len();
        // Build the reverse graph with a virtual exit node `n` connected
        // from every real exit.
        let virt = n;
        let mut preds = vec![Vec::new(); n + 1]; // preds in the reverse graph = succs in forward graph
        #[allow(clippy::needless_range_loop)] // parallel arrays indexed by block id
        for b in 0..n {
            if !cfg.is_reachable(b) {
                continue;
            }
            if cfg.succs[b].is_empty() {
                preds[b].push(virt);
            } else {
                for &s in &cfg.succs[b] {
                    preds[b].push(s);
                }
            }
        }
        // RPO of the reverse graph = reverse of forward postorder... compute
        // directly by DFS from the virtual exit over reverse edges.
        let mut radj = vec![Vec::new(); n + 1]; // radj[x] = nodes that x leads to in reverse graph = forward preds
        #[allow(clippy::needless_range_loop)] // parallel arrays indexed by block id
        for b in 0..n {
            if !cfg.is_reachable(b) {
                continue;
            }
            for &p in &cfg.preds[b] {
                radj[b].push(p);
            }
        }
        for b in cfg.exits() {
            radj[virt].push(b);
        }
        let mut post = Vec::new();
        let mut visited = vec![false; n + 1];
        let mut stack = vec![(virt, 0usize)];
        visited[virt] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < radj[b].len() {
                let next = radj[b][*i];
                *i += 1;
                if !visited[next] {
                    visited[next] = true;
                    stack.push((next, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        let rpo: Vec<BlockId> = post.into_iter().rev().collect();
        let mut rpo_index = vec![usize::MAX; n + 1];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b] = i;
        }
        let tree = Self::compute(n + 1, virt, &rpo, &rpo_index, &preds);
        // Strip the virtual node: idoms pointing at `virt` become None.
        let idom = (0..n)
            .map(|b| match tree.idom[b] {
                Some(d) if d == virt => None,
                other => other,
            })
            .collect();
        DomTree { idom, root: virt }
    }

    fn compute(
        n: usize,
        root: BlockId,
        rpo: &[BlockId],
        rpo_index: &[usize],
        preds: &[Vec<BlockId>],
    ) -> Self {
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[root] = Some(root);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo {
                if b == root {
                    continue;
                }
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b] {
                    if idom[p].is_none() {
                        continue; // not yet processed / unreachable
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => Self::intersect(cur, p, &idom, rpo_index),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b] != Some(ni) {
                        idom[b] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        DomTree { idom, root }
    }

    fn intersect(
        mut a: BlockId,
        mut b: BlockId,
        idom: &[Option<BlockId>],
        rpo_index: &[usize],
    ) -> BlockId {
        while a != b {
            while rpo_index[a] > rpo_index[b] {
                a = idom[a].expect("walk above root");
            }
            while rpo_index[b] > rpo_index[a] {
                b = idom[b].expect("walk above root");
            }
        }
        a
    }

    /// Immediate dominator of `b` (`None` for the root, unreachable blocks,
    /// or — in post-dominator trees — blocks only the virtual exit covers).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        match self.idom.get(b).copied().flatten() {
            Some(d) if d == b => None, // root
            other => other,
        }
    }

    /// Whether `a` dominates `b` (reflexive: every block dominates itself).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if a == b {
            return true;
        }
        let mut cur = b;
        while let Some(d) = self.idom(cur) {
            if d == a {
                return true;
            }
            cur = d;
        }
        false
    }

    /// The root (entry block, or the virtual exit id for post-dominators).
    pub fn root(&self) -> BlockId {
        self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BasicBlock, Terminator};

    fn diamond() -> Function {
        Function {
            name: "d".into(),
            entry: 0,
            blocks: vec![
                BasicBlock::empty(Terminator::Branch {
                    taken_prob: 0.5,
                    then_b: 1,
                    else_b: 2,
                }),
                BasicBlock::empty(Terminator::Jump(3)),
                BasicBlock::empty(Terminator::Jump(3)),
                BasicBlock::empty(Terminator::Return),
            ],
        }
    }

    #[test]
    fn diamond_dominators() {
        let d = DomTree::dominators(&diamond());
        assert_eq!(d.idom(0), None);
        assert_eq!(d.idom(1), Some(0));
        assert_eq!(d.idom(2), Some(0));
        assert_eq!(d.idom(3), Some(0), "join dominated by fork, not a branch");
        assert!(d.dominates(0, 3));
        assert!(!d.dominates(1, 3));
        assert!(d.dominates(3, 3));
    }

    #[test]
    fn diamond_post_dominators() {
        let p = DomTree::post_dominators(&diamond());
        assert_eq!(p.idom(0), Some(3), "join post-dominates the fork");
        assert_eq!(p.idom(1), Some(3));
        assert_eq!(p.idom(2), Some(3));
        assert!(p.dominates(3, 0), "pdom: 3 post-dominates 0");
        assert!(!p.dominates(1, 0));
    }

    #[test]
    fn loop_dominators() {
        // 0 → 1(header) → 2(body) → latch(2→{1,3}) ; 3 exit.
        let f = Function {
            name: "l".into(),
            entry: 0,
            blocks: vec![
                BasicBlock::empty(Terminator::Jump(1)),
                BasicBlock::empty(Terminator::Jump(2)),
                BasicBlock::empty(Terminator::LoopLatch {
                    header: 1,
                    exit: 3,
                    trips: Some(10),
                }),
                BasicBlock::empty(Terminator::Return),
            ],
        };
        let d = DomTree::dominators(&f);
        assert_eq!(d.idom(1), Some(0));
        assert_eq!(d.idom(2), Some(1));
        assert_eq!(d.idom(3), Some(2));
        assert!(d.dominates(1, 3), "loop header dominates the exit");

        let p = DomTree::post_dominators(&f);
        assert!(p.dominates(3, 1), "exit post-dominates the header");
        assert!(p.dominates(2, 1), "latch post-dominates the header");
    }

    #[test]
    fn multi_exit_post_dominators_use_virtual_exit() {
        // 0 → {1, 2}; both return: nothing real post-dominates 0.
        let f = Function {
            name: "m".into(),
            entry: 0,
            blocks: vec![
                BasicBlock::empty(Terminator::Branch {
                    taken_prob: 0.5,
                    then_b: 1,
                    else_b: 2,
                }),
                BasicBlock::empty(Terminator::Return),
                BasicBlock::empty(Terminator::Return),
            ],
        };
        let p = DomTree::post_dominators(&f);
        assert_eq!(p.idom(0), None, "only the virtual exit post-dominates 0");
        assert!(!p.dominates(1, 0));
        assert!(!p.dominates(2, 0));
    }

    #[test]
    fn dominance_is_transitive_on_a_chain() {
        let f = Function {
            name: "c".into(),
            entry: 0,
            blocks: vec![
                BasicBlock::empty(Terminator::Jump(1)),
                BasicBlock::empty(Terminator::Jump(2)),
                BasicBlock::empty(Terminator::Return),
            ],
        };
        let d = DomTree::dominators(&f);
        assert!(d.dominates(0, 2));
        assert!(d.dominates(1, 2));
        assert!(!d.dominates(2, 0));
    }
}
