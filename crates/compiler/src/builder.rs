//! Structured construction of IR functions.
//!
//! Workload generators and tests build CFGs through this builder rather than
//! wiring block ids by hand; `if_else` and `loop_` produce the canonical
//! shapes the analyses expect (branch/join diamonds and latch-terminated
//! natural loops).

use terp_pmo::{AccessKind, Permission, PmoId};

use crate::ir::{AddrPattern, BasicBlock, BlockId, Function, Instr, Terminator};

/// Default window for the convenience access methods: addresses are drawn
/// from the first MiB of the pool.
pub const DEFAULT_ACCESS_WINDOW: u64 = 1 << 20;

/// Incremental builder for a [`Function`].
///
/// ```
/// use terp_compiler::FunctionBuilder;
/// use terp_pmo::{AccessKind, PmoId};
///
/// let pmo = PmoId::new(1).unwrap();
/// let mut b = FunctionBuilder::new("kernel");
/// b.compute(100);
/// b.loop_(Some(10), |body| {
///     body.pmo_access(pmo, AccessKind::Write, 8);
///     body.compute(500);
/// });
/// let func = b.finish();
/// assert!(func.validate().is_ok());
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    name: String,
    blocks: Vec<BasicBlock>,
    current: BlockId,
    finished: bool,
}

impl FunctionBuilder {
    /// Starts a function with an empty entry block.
    pub fn new(name: &str) -> Self {
        FunctionBuilder {
            name: name.to_string(),
            blocks: vec![BasicBlock::empty(Terminator::Return)],
            current: 0,
            finished: false,
        }
    }

    /// Appends a raw instruction to the current block.
    pub fn instr(&mut self, instr: Instr) -> &mut Self {
        self.blocks[self.current].instrs.push(instr);
        self
    }

    /// Appends `instrs` compute instructions.
    pub fn compute(&mut self, instrs: u64) -> &mut Self {
        self.instr(Instr::Compute { instrs })
    }

    /// Appends `count` PMO accesses with random addresses in the pool's
    /// first MiB ([`DEFAULT_ACCESS_WINDOW`]).
    pub fn pmo_access(&mut self, pmo: PmoId, kind: AccessKind, count: u64) -> &mut Self {
        self.instr(Instr::PmoAccess {
            pmo,
            kind,
            pattern: AddrPattern::rand(DEFAULT_ACCESS_WINDOW),
            count,
        })
    }

    /// Appends `count` PMO accesses with an explicit address pattern.
    pub fn pmo_access_with(
        &mut self,
        pmo: PmoId,
        kind: AccessKind,
        pattern: AddrPattern,
        count: u64,
    ) -> &mut Self {
        self.instr(Instr::PmoAccess {
            pmo,
            kind,
            pattern,
            count,
        })
    }

    /// Appends `count` may-alias PMO accesses (the pointer may target
    /// either pool; see [`Instr::PmoAccessMay`]).
    pub fn pmo_access_may(
        &mut self,
        a: PmoId,
        b: PmoId,
        kind: AccessKind,
        count: u64,
    ) -> &mut Self {
        self.instr(Instr::PmoAccessMay {
            a,
            b,
            kind,
            pattern: AddrPattern::rand(DEFAULT_ACCESS_WINDOW),
            count,
        })
    }

    /// Appends `count` DRAM accesses.
    pub fn dram_access(&mut self, pattern: AddrPattern, count: u64) -> &mut Self {
        self.instr(Instr::DramAccess { pattern, count })
    }

    /// Appends a manual granting construct.
    pub fn attach(&mut self, pmo: PmoId, perm: Permission) -> &mut Self {
        self.instr(Instr::Attach { pmo, perm })
    }

    /// Appends a manual depriving construct.
    pub fn detach(&mut self, pmo: PmoId) -> &mut Self {
        self.instr(Instr::Detach { pmo })
    }

    /// Appends a direct call to function `callee` of the enclosing program.
    pub fn call(&mut self, callee: crate::ir::FuncId) -> &mut Self {
        self.instr(Instr::Call { callee })
    }

    /// Builds a two-way branch. Each closure fills one arm; control rejoins
    /// after both. Returns the block ids of (then-arm, else-arm) bodies for
    /// test assertions.
    pub fn if_else(
        &mut self,
        taken_prob: f64,
        then_f: impl FnOnce(&mut FunctionBuilder),
        else_f: impl FnOnce(&mut FunctionBuilder),
    ) -> (Vec<BlockId>, Vec<BlockId>) {
        let then_b = self.new_block();
        let else_b = self.new_block();
        let fork = self.current;
        self.blocks[fork].terminator = Terminator::Branch {
            taken_prob,
            then_b,
            else_b,
        };

        self.current = then_b;
        let then_start = self.blocks.len();
        then_f(self);
        let then_end_block = self.current;
        let mut then_blocks: Vec<BlockId> = vec![then_b];
        then_blocks.extend(then_start..self.blocks.len());

        self.current = else_b;
        let else_start = self.blocks.len();
        else_f(self);
        let else_end_block = self.current;
        let mut else_blocks: Vec<BlockId> = vec![else_b];
        else_blocks.extend(else_start..self.blocks.len());

        let join = self.new_block();
        self.blocks[then_end_block].terminator = Terminator::Jump(join);
        self.blocks[else_end_block].terminator = Terminator::Jump(join);
        self.current = join;
        (then_blocks, else_blocks)
    }

    /// Builds a counted loop: the closure fills the body, which repeats
    /// `trips` times (`None` = statically unknown; analyses assume 1k and
    /// lowering iterates 1k times). Returns the header block id.
    pub fn loop_(
        &mut self,
        trips: Option<u64>,
        body_f: impl FnOnce(&mut FunctionBuilder),
    ) -> BlockId {
        let header = self.new_block();
        let pre = self.current;
        self.blocks[pre].terminator = Terminator::Jump(header);
        self.current = header;
        body_f(self);
        let latch = self.current;
        let exit = self.new_block();
        self.blocks[latch].terminator = Terminator::LoopLatch {
            header,
            exit,
            trips,
        };
        self.current = exit;
        header
    }

    /// Finalizes the function: the current block becomes the (sole
    /// fall-through) return.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn finish(&mut self) -> Function {
        assert!(!self.finished, "finish() called twice");
        self.finished = true;
        self.blocks[self.current].terminator = Terminator::Return;
        let f = Function {
            name: std::mem::take(&mut self.name),
            blocks: std::mem::take(&mut self.blocks),
            entry: 0,
        };
        debug_assert!(f.validate().is_ok());
        f
    }

    fn new_block(&mut self) -> BlockId {
        self.blocks.push(BasicBlock::empty(Terminator::Return));
        self.blocks.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::loops::LoopForest;

    fn pmo(n: u16) -> PmoId {
        PmoId::new(n).unwrap()
    }

    #[test]
    fn straight_line_is_single_block() {
        let mut b = FunctionBuilder::new("s");
        b.compute(1).compute(2);
        let f = b.finish();
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].instrs.len(), 2);
    }

    #[test]
    fn if_else_builds_a_diamond() {
        let mut b = FunctionBuilder::new("d");
        b.compute(1);
        let (t, e) = b.if_else(
            0.3,
            |t| {
                t.compute(2);
            },
            |e| {
                e.compute(3);
            },
        );
        b.compute(4);
        let f = b.finish();
        f.validate().unwrap();
        let cfg = Cfg::new(&f);
        // Fork has two successors; both arms converge.
        assert_eq!(cfg.succs[0].len(), 2);
        assert_eq!(cfg.succs[t[0]], cfg.succs[e[0]]);
        assert_eq!(cfg.exits().len(), 1);
    }

    #[test]
    fn loop_builds_a_natural_loop() {
        let mut b = FunctionBuilder::new("l");
        b.compute(1);
        let header = b.loop_(Some(7), |body| {
            body.compute(10);
        });
        b.compute(2);
        let f = b.finish();
        f.validate().unwrap();
        let forest = LoopForest::find(&f);
        assert_eq!(forest.loops.len(), 1);
        assert_eq!(forest.loops[0].header, header);
        assert_eq!(forest.loops[0].trips, 7);
    }

    #[test]
    fn nested_structures_compose() {
        let mut b = FunctionBuilder::new("n");
        b.loop_(Some(3), |outer| {
            outer.if_else(
                0.5,
                |t| {
                    t.loop_(Some(5), |inner| {
                        inner.pmo_access(pmo(1), AccessKind::Read, 1);
                    });
                },
                |e| {
                    e.compute(10);
                },
            );
        });
        let f = b.finish();
        f.validate().unwrap();
        let forest = LoopForest::find(&f);
        assert_eq!(forest.loops.len(), 2);
    }

    #[test]
    #[should_panic(expected = "finish() called twice")]
    fn double_finish_panics() {
        let mut b = FunctionBuilder::new("x");
        let _ = b.finish();
        let _ = b.finish();
    }
}
