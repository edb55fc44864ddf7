package cpu

// Trace compilation and dispatch: the execution half of the trace JIT
// tier. A validated flat path (trace_form.go) compiles to an array of
// specialized Go closures — threaded code, one closure per instruction
// word (consecutive nops collapse into one) — and dispatch runs the
// array with no per-word fetch, no queue maintenance, no environmental
// checks, and no statistics updates: a clean pass bulk-adds the
// precomputed cost of the whole trace.
//
// Every check a closure would repeat per word is hoisted to dispatch
// entry, where the quiet-configuration guard (stepTraces) has already
// discharged it: no device, ticker, or DMA engine exists to raise the
// interrupt line or remap memory mid-trace, privilege and overflow
// enable can only change through words a trace refuses to contain, and
// the write barrier reports the one store hazard that remains (a store
// into the trace's own code) through tr.valid.
//
// Exits are exact. Each closure captures the statistics prefix of the
// words before it plus its own partial contribution, and the precise
// fetch-queue image for each way it can leave: the fault-restart queue
// an exception saves as return addresses, the completion queue after a
// finished word, and the redirect queues of a mispredicted branch
// direction or indirect-jump target. A trace therefore abandons
// execution at an exact instruction boundary with the machine
// indistinguishable from the block engine having run the same prefix —
// the tier-bail ladder (trace -> superblock -> fast path -> reference)
// never shows through architecturally.

import "mips/internal/isa"

// plus returns the sum of two cost vectors.
func (tc traceCost) plus(o traceCost) traceCost {
	tc.instr += o.instr
	tc.cycles += o.cycles
	tc.pieces += o.pieces
	tc.nops += o.nops
	tc.loads += o.loads
	tc.stores += o.stores
	tc.branches += o.branches
	tc.taken += o.taken
	tc.data += o.data
	tc.free += o.free
	return tc
}

// Per-class happy-path cost of one word, identical to what the block
// engine's body loop in runBlocks accounts for the same word.
var (
	wcNop     = traceCost{instr: 1, cycles: 1, nops: 1, free: 1}
	wcALU     = traceCost{instr: 1, cycles: 1, pieces: 1, free: 1}
	wcLoadImm = traceCost{instr: 1, cycles: 1, pieces: 1, free: 1}
	wcLoad    = traceCost{instr: 1, cycles: 1, pieces: 1, loads: 1, data: 1}
	wcStore   = traceCost{instr: 1, cycles: 1, pieces: 1, stores: 1, data: 1}
	wcBranch  = traceCost{instr: 1, cycles: 1, pieces: 1, branches: 1, free: 1}
	wcTaken   = traceCost{instr: 1, cycles: 1, pieces: 1, branches: 1, taken: 1, free: 1}
	// A faulting memory word accounts its data cycle but not the
	// load/store completion count, exactly like finishWord's fault path.
	wcMemFault = traceCost{instr: 1, cycles: 1, pieces: 1, data: 1}

	// Packed words carry two active pieces; otherwise the same shapes.
	wcPackedLoadImm  = traceCost{instr: 1, cycles: 1, pieces: 2, free: 1}
	wcPackedLoad     = traceCost{instr: 1, cycles: 1, pieces: 2, loads: 1, data: 1}
	wcPackedStore    = traceCost{instr: 1, cycles: 1, pieces: 2, stores: 1, data: 1}
	wcPackedBranch   = traceCost{instr: 1, cycles: 1, pieces: 2, branches: 1, free: 1}
	wcPackedTaken    = traceCost{instr: 1, cycles: 1, pieces: 2, branches: 1, taken: 1, free: 1}
	wcPackedMemFault = traceCost{instr: 1, cycles: 1, pieces: 2, data: 1}
)

// rdOp reads a predecoded operand on the unguarded path: no load can be
// pending at this position, so the register file is current.
func rdOp(c *CPU, o fastOp) uint32 {
	if o.imm {
		return o.val
	}
	return c.Regs[o.reg]
}

// rdOpG reads a predecoded operand on the guarded path, through the
// exact hazard-audited read.
func rdOpG(c *CPU, o fastOp, vpc uint32) uint32 {
	if o.imm {
		return o.val
	}
	return c.leanRead(o.reg, vpc)
}

// traceFault abandons the trace at a faulting word: the word restarts
// at the head of the restored fetch queue (return address zero),
// exactly as bailFault leaves it. The caller has already accounted the
// executed prefix.
func (c *CPU) traceFault(q [3]uint32, cause isa.Cause) {
	c.deopt = DeoptFault
	c.pcq[0], c.pcq[1], c.pcq[2] = q[0], q[1], q[2]
	c.pcn = 3
	c.exception(cause, isa.CauseNone, 0)
}

// traceFault2 is traceFault with a secondary cause: a packed word whose
// ALU piece overflowed while its memory piece also faulted, ordered by
// the exception priority rule (overflow primary, mapping secondary).
func (c *CPU) traceFault2(q [3]uint32, primary, secondary isa.Cause) {
	c.deopt = DeoptFault
	c.pcq[0], c.pcq[1], c.pcq[2] = q[0], q[1], q[2]
	c.pcn = 3
	c.exception(primary, secondary, 0)
}

// runTrace executes a compiled trace from its entry, then chains
// trace-to-trace through the cache (a loop trace chains to itself)
// bounded by the same follow budget as block chaining. A guard exit
// chains too when it left a single-entry (hence sequential) queue and
// raised no exception: a mispredicted direction frequently lands at the
// entry of the trace covering the other path, and bouncing through the
// lower tiers for one Step would forfeit the dispatch. The environment
// guards hold for the whole chain: nothing inside a trace can change
// what stepTraces checked (the quiet configuration has no source of
// interrupts, and privilege or overflow enable only change through
// words a trace refuses to contain).
func (c *CPU) runTrace(tr *trace) {
	c.trOvfOn = c.Sur.OverflowEnabled()
	exc0 := c.excSeq
	for follow := 0; ; follow++ {
		c.Trans.TraceDispatchHits++
		tr.hits++
		if !tr.warm {
			tr.warm = true
			if c.onJIT != nil {
				c.emitJIT(JITEvent{Kind: JITDispatchCold, PC: tr.pa, Len: uint32(len(tr.ops))})
			}
		}
		ops := tr.ops
		clean := true
		xi := 0
		i0 := c.Stats.Instructions
		for i := 0; i < len(ops); i++ {
			if !ops[i](c) {
				clean, xi = false, i
				break
			}
		}
		if clean {
			tr.cost.add(&c.Stats)
			c.pcq[0], c.pcn = tr.endPC, 1
			tr.instrs += c.Stats.Instructions - i0
		} else {
			tr.instrs += c.Stats.Instructions - i0
			// The closure set c.deopt immediately before returning
			// false. Mispredicted directions and indirect targets first
			// try to resolve inside the tier — chain straight into the
			// trace or side stub covering where execution actually went
			// — and only an unresolved exit counts as a guard exit, so
			// the per-reason slots stay an exact partition of the total
			// and every op exit counts exactly one of guard-exit,
			// side-hit, or IC-hit.
			r := c.deopt
			if (r == DeoptBranchDirection || r == DeoptIndirectTarget) &&
				c.excSeq == exc0 && follow < c.chainFollow {
				if nt := c.sideResolve(tr, xi, r); nt != nil {
					tr = nt
					continue
				}
			}
			c.Trans.TraceGuardExits++
			c.Trans.TraceDeopts[r]++
			tr.deopts[r]++
			if c.onJIT != nil {
				c.emitJIT(JITEvent{Kind: JITGuardExit, Reason: uint8(r), PC: tr.pa, Len: uint32(xi)})
			}
			if c.Halted || c.excSeq != exc0 || c.pcn != 1 {
				return
			}
		}
		if follow >= c.chainFollow {
			// Standing down with a compiled trace ready at the next PC
			// is lost trace time, not a guard failure: counted as a
			// dispatch-level deopt outside the guard-exit partition.
			if c.traceAt(c.pcq[0]) != nil {
				c.Trans.TraceDeoptChainBudget++
			}
			return
		}
		nt := c.traceAt(c.pcq[0])
		if nt == nil {
			return
		}
		tr = nt
	}
}

// sideResolve tries to keep a mispredicted-direction or wrong-target
// exit inside the trace tier. The exiting closure left the exact
// architectural fetch queue, which is all the classification needs:
//
//   - a sequential queue (the cold arm starts at the next word, no
//     delay slot in flight) chains into a compiled trace there;
//   - a branch redirect queue [ds, target] chains into the op's side
//     stub — the flattened delay slot ending at the target — compiling
//     it once the exit crosses sideThreshold;
//   - an indirect redirect queue [ds0, ds1, target] looks the target up
//     in the op's inline cache (MRU first), installing a new stub on a
//     hot miss.
//
// A successful resolution returns the trace to continue in, having
// counted a side/IC hit; nil falls back to the guard-exit path.
func (c *CPU) sideResolve(tr *trace, xi int, r DeoptReason) *trace {
	if c.pcn == 1 || (c.pcn == 2 && c.pcq[1] == c.pcq[0]+1) {
		if nt := c.traceAt(c.pcq[0]); nt != nil {
			c.Trans.TraceSideHits++
			tr.sideHits++
			return nt
		}
		return nil
	}
	if tr.sides == nil {
		return nil
	}
	s := &tr.sides[xi]
	if r == DeoptBranchDirection {
		if c.pcn != 2 {
			return nil
		}
		if st := s.br; st != nil && st.valid {
			c.Trans.TraceSideHits++
			tr.sideHits++
			return st
		}
		s.br = nil // dropped by the barrier: rebuild from live memory
		if s.hot == sideNever {
			return nil
		}
		s.hot++
		if s.hot < sideThreshold {
			return nil
		}
		st := c.buildSideStub(c.pcq[0], 1, c.pcq[1])
		if st == nil {
			s.hot = sideNever
			return nil
		}
		s.hot = 0
		s.br = st
		c.Trans.TraceSideCompiled++
		if c.onJIT != nil {
			c.emitJIT(JITEvent{Kind: JITSideCompiled, PC: st.pa, Len: uint32(len(st.ops))})
		}
		c.Trans.TraceSideHits++
		tr.sideHits++
		return st
	}
	// DeoptIndirectTarget: queue is [vpc+1, vpc+2, target].
	if c.pcn != 3 {
		return nil
	}
	t := c.pcq[2]
	if st := s.ic[0]; st != nil && st.valid && s.icTgt[0] == t {
		c.Trans.TraceICHits++
		tr.icHits++
		return st
	}
	if st := s.ic[1]; st != nil && st.valid && s.icTgt[1] == t {
		s.ic[0], s.ic[1] = s.ic[1], s.ic[0]
		s.icTgt[0], s.icTgt[1] = s.icTgt[1], s.icTgt[0]
		c.Trans.TraceICHits++
		tr.icHits++
		return st
	}
	if s.hot == sideNever {
		return nil
	}
	s.hot++
	if s.hot < sideThreshold {
		return nil
	}
	st := c.buildSideStub(c.pcq[0], 2, t)
	if st == nil {
		// Compilability depends only on the delay-slot words, which are
		// the same for every target: poison the whole slot.
		s.hot = sideNever
		return nil
	}
	s.hot = 0
	s.ic[1], s.icTgt[1] = s.ic[0], s.icTgt[0]
	s.ic[0], s.icTgt[0] = st, t
	c.Trans.TraceICInstalls++
	if c.onJIT != nil {
		c.emitJIT(JITEvent{Kind: JITSideCompiled, PC: st.pa, Len: uint32(len(st.ops))})
	}
	c.Trans.TraceICHits++
	tr.icHits++
	return st
}

// buildSideStub compiles the minimal continuation of a guard exit: the
// dsN delay-slot words still in flight (starting at dsPC), flattened
// with the exact fault-restart and completion queues of a drain toward
// control target x, ending at x. After a clean stub pass the queue is
// [x] and the ordinary chain loop picks up the trace there — so the
// stub stitches the parent to the cold path's own trace, forming a
// trace tree, without ever returning to dispatch.
//
// The words come fresh from live instruction memory (pc == pa in the
// quiet configuration), never from the parent's recording: a stub built
// after self-modification must reflect what the lower tiers would
// fetch. Stubs are derived state like every trace — the write barrier
// drops them, validity is checked at every use, and a dropped stub
// re-forms from memory on the next hot exit.
func (c *CPU) buildSideStub(dsPC uint32, dsN int, x uint32) *trace {
	if uint64(dsPC)+uint64(dsN) > uint64(len(c.IMem)) {
		return nil
	}
	var words [2]traceWord
	for k := 0; k < dsN; k++ {
		pa := dsPC + uint32(k)
		in := c.IMem[pa]
		if in.ALU == nil && in.Mem == nil {
			return nil
		}
		w := &words[k]
		decodeWord(&w.d, pa, in)
		classifyLean(&w.d)
		if !dsCompilable(&w.d) {
			return nil
		}
		w.vpc = pa
		// Entry state is unknown (a load may be pending from the
		// parent): every stub word runs the guarded variant.
		w.hazard = true
	}
	if dsN == 1 {
		words[0].fq = [3]uint32{dsPC, x, x + 1}
		words[0].cq = [2]uint32{x}
		words[0].cqn = 1
	} else {
		d1 := dsPC + 1
		words[0].fq = [3]uint32{dsPC, d1, x}
		words[0].cq = [2]uint32{d1, x}
		words[0].cqn = 2
		words[1].fq = [3]uint32{d1, x, x + 1}
		words[1].cq = [2]uint32{x}
		words[1].cqn = 1
	}
	tr := c.compileTrace(words[:dsN], dsPC, x, []traceSpan{{pa: dsPC, n: uint32(dsN)}})
	if tr == nil {
		return nil
	}
	tr.side = true
	tr.sides = nil // stub words carry no resolvable guards
	c.installSideTrace(tr)
	return tr
}

// compileTrace builds the closure array for a flattened path. It is
// total over validated words: formation already refused everything the
// emitters cannot specialize, so a nil return means an internal
// inconsistency and the path is simply not installed.
func (c *CPU) compileTrace(words []traceWord, entry, endPC uint32, spans []traceSpan) *trace {
	tr := &trace{pa: entry, endPC: endPC, spans: spans}
	ops := make([]traceOp, 0, len(words))
	var pre traceCost
	for i := 0; i < len(words); {
		w := &words[i]
		if w.d.bclass == bcNop {
			// Collapse the run of consecutive nops (crossing block
			// boundaries in the flattened path) into one closure.
			k := 1
			guarded := w.hazard
			for i+k < len(words) && words[i+k].d.bclass == bcNop {
				guarded = guarded || words[i+k].hazard
				k++
			}
			ops = append(ops, emitNops(k, guarded))
			for j := 0; j < k; j++ {
				pre = pre.plus(wcNop)
			}
			i += k
			continue
		}
		var op traceOp
		var happy traceCost
		switch w.d.bclass {
		case bcGeneral:
			packedALU := w.d.aluKind == isa.PieceALU || w.d.aluKind == isa.PieceSetCond
			switch w.d.memKind {
			case isa.PieceBranch, isa.PieceJump, isa.PieceCall, isa.PieceJumpInd:
				if packedALU {
					op, happy = emitPackedTerm(w, pre)
				} else {
					op, happy = emitGeneralTerm(tr, w, pre)
				}
			case isa.PieceLoad, isa.PieceStore:
				if packedALU {
					op, happy = emitPacked(tr, w, pre)
				} else {
					op, happy = emitGeneral(tr, w, pre)
				}
			default:
				op, happy = emitGeneral(tr, w, pre)
			}
		case bcALU:
			op, happy = emitALU(w, pre)
		case bcLoad:
			op, happy = emitLoad(w, pre)
		case bcStore:
			op, happy = emitStore(tr, w, pre)
		case bcBranch:
			op, happy = emitBranch(w, pre)
		case bcJump:
			op, happy = emitJump(w, pre)
		case bcCall:
			op, happy = emitCall(w, pre)
		case bcJumpInd:
			op, happy = emitJumpInd(w, pre)
		}
		if op == nil {
			return nil
		}
		ops = append(ops, op)
		pre = pre.plus(happy)
		i++
	}
	if len(ops) == 0 {
		return nil
	}
	tr.ops = ops
	tr.cost = pre
	// Side-exit state, one slot per op, allocated here so the dispatch
	// path never does: a resolvable guard exit indexes its own op.
	tr.sides = make([]sideSlot, len(ops))
	return tr
}

// emitNops compiles a run of k consecutive nops. Unguarded, the whole
// run is one sequence-counter bump; guarded, pending-load commits drain
// at each position exactly as per-word stepping would.
func emitNops(k int, guarded bool) traceOp {
	n := uint64(k)
	if !guarded {
		return func(c *CPU) bool {
			c.seq += n
			return true
		}
	}
	return func(c *CPU) bool {
		for j := uint64(0); j < n; j++ {
			c.seq++
			if c.pendN != 0 {
				c.commitLoads()
			}
		}
		return true
	}
}

// emitGeneral compiles a packed or otherwise unclassified body word
// through the exact executor, exactly as the block engine's body loop
// in runBlocks runs one: the word accounts its own statistics live (so
// it contributes nothing to the trace's bulk cost or to later exit
// prefixes), and any redirect, halt, fault, or self-invalidation exits
// the trace at the boundary the executor left.
func emitGeneral(tr *trace, w *traceWord, pre traceCost) (traceOp, traceCost) {
	d := w.d
	vpc := w.vpc
	ec := pre
	return func(c *CPU) bool {
		c.seq++
		if c.pendN != 0 {
			c.commitLoads()
		}
		e0 := c.excSeq
		c.pcq[0], c.pcq[1] = vpc+1, vpc+2
		c.pcn = 2
		c.execFast(&d, vpc)
		if c.Halted || c.pcn != 2 || c.pcq[0] != vpc+1 {
			switch {
			case c.Halted:
				c.deopt = DeoptHalt
			case c.excSeq != e0:
				c.deopt = DeoptFault
			default:
				c.deopt = DeoptQueueShape
			}
			ec.add(&c.Stats)
			return false
		}
		if !tr.valid {
			c.deopt = DeoptInvalidation
			ec.add(&c.Stats)
			c.pcq[0], c.pcn = vpc+1, 1
			return false
		}
		return true
	}, traceCost{}
}

// emitGeneralTerm compiles a packed terminator — a control piece sharing
// its word with computation — through the exact executor, then guards on
// the fetch-queue shape the recorded direction leaves behind. A redirect
// the other way (or a halt or fault) exits the trace with the machine
// exactly where the executor left it: no queue restore is needed because
// the executor maintains the queue itself. Like emitGeneral the word
// accounts its own statistics live, so exits charge only the prefix.
func emitGeneralTerm(tr *trace, w *traceWord, pre traceCost) (traceOp, traceCost) {
	d := w.d
	vpc := w.vpc
	ec := pre
	if d.memKind == isa.PieceJumpInd {
		exp := w.expTarget
		return func(c *CPU) bool {
			c.seq++
			if c.pendN != 0 {
				c.commitLoads()
			}
			e0 := c.excSeq
			c.pcq[0], c.pcq[1] = vpc+1, vpc+2
			c.pcn = 2
			c.execFast(&d, vpc)
			if c.Halted || c.pcn != 3 || c.pcq[0] != vpc+1 ||
				c.pcq[1] != vpc+2 || c.pcq[2] != exp || !tr.valid {
				switch {
				case c.Halted:
					c.deopt = DeoptHalt
				case c.excSeq != e0:
					c.deopt = DeoptFault
				case !tr.valid:
					c.deopt = DeoptInvalidation
				case c.pcn == 3 && c.pcq[0] == vpc+1 && c.pcq[1] == vpc+2:
					// The executor produced the indirect redirect shape
					// with a target other than the recorded one.
					c.deopt = DeoptIndirectTarget
				default:
					c.deopt = DeoptQueueShape
				}
				ec.add(&c.Stats)
				return false
			}
			return true
		}, traceCost{}
	}
	// Direct control: a taken branch, jump, or call schedules the target
	// one slot out; a not-taken branch leaves the queue sequential.
	// Formation refused shadow targets, so the two shapes are disjoint.
	q1 := vpc + 2
	qAlt := d.target
	if w.taken {
		q1 = d.target
		qAlt = vpc + 2
	}
	isBranch := d.memKind == isa.PieceBranch
	return func(c *CPU) bool {
		c.seq++
		if c.pendN != 0 {
			c.commitLoads()
		}
		e0 := c.excSeq
		c.pcq[0], c.pcq[1] = vpc+1, vpc+2
		c.pcn = 2
		c.execFast(&d, vpc)
		if c.Halted || c.pcn != 2 || c.pcq[0] != vpc+1 ||
			c.pcq[1] != q1 || !tr.valid {
			switch {
			case c.Halted:
				c.deopt = DeoptHalt
			case c.excSeq != e0:
				c.deopt = DeoptFault
			case !tr.valid:
				c.deopt = DeoptInvalidation
			case isBranch && c.pcn == 2 && c.pcq[0] == vpc+1 && c.pcq[1] == qAlt:
				// The packed branch resolved the other way: the queue is
				// exactly the opposite direction's shape.
				c.deopt = DeoptBranchDirection
			default:
				c.deopt = DeoptQueueShape
			}
			ec.add(&c.Stats)
			return false
		}
		return true
	}, traceCost{}
}

// packedALU evaluates the computation piece of a packed word: operand
// reads in the exact executor's order, overflow latched against the
// dispatch-latched trap enable. It returns the value to commit to the
// ALU destination (or the byte-selector value for movlo) and whether an
// enabled overflow occurred; the caller owns commit order and the
// overflow exit.
func (c *CPU) packedALU(d *decoded, vpc uint32, guarded bool) (v, lo uint32, ovf bool) {
	var a, b uint32
	if guarded {
		a = rdOpG(c, d.a1, vpc)
	} else {
		a = rdOp(c, d.a1)
	}
	if d.aluKind == isa.PieceSetCond {
		if guarded {
			b = rdOpG(c, d.a2, vpc)
		} else {
			b = rdOp(c, d.a2)
		}
		if d.aluCmp.Eval(a, b) {
			v = 1
		}
		return v, 0, false
	}
	if !d.aluUnary {
		if guarded {
			b = rdOpG(c, d.a2, vpc)
		} else {
			b = rdOp(c, d.a2)
		}
	}
	var dstVal uint32
	if d.aluDstRead {
		if guarded {
			dstVal = c.leanRead(d.aluDst, vpc)
		} else {
			dstVal = c.Regs[d.aluDst]
		}
	}
	v, lo, o := aluEval(d.aluOp, a, b, dstVal, c.Lo)
	return v, lo, o && c.trOvfOn
}

// emitPacked compiles a packed body word — an ALU-class piece sharing
// its word with a load or store — as one specialized closure instead of
// routing through the exact executor. Semantics mirror execFast +
// finishWord exactly: operand reads before address reads, the memory
// piece executing even when the ALU piece overflowed (a store commits
// to memory, a load counts, and only the register writes are
// suppressed), overflow primary over a memory fault, and the staged
// commit order (ALU write, then the load's delayed write). Position
// exactness comes from the flattened queues, so packed words compile
// anywhere in a trace — body, delay slot — unlike emitGeneral's fixed
// sequential shape.
func emitPacked(tr *trace, w *traceWord, pre traceCost) (traceOp, traceCost) {
	d := w.d
	vpc, fq := w.vpc, w.fq
	cq, cqn := w.cq, int(w.cqn)
	guarded := w.hazard
	movLo := d.aluKind == isa.PieceALU && d.aluOp == isa.OpMovLo
	dst := d.aluDst
	data := d.data

	if d.memKind == isa.PieceLoad && d.mode == isa.AModeLongImm {
		imm := uint32(d.disp)
		ecOvf := pre.plus(wcPackedLoadImm)
		return func(c *CPU) bool {
			c.seq++
			if guarded && c.pendN != 0 {
				c.commitLoads()
			}
			aluV, loV, ovf := c.packedALU(&d, vpc, guarded)
			if ovf {
				ecOvf.add(&c.Stats)
				c.traceFault(fq, isa.CauseOverflow)
				return false
			}
			if movLo {
				c.Regs[data] = imm
				c.lastWrite[data] = c.seq
				c.Lo = loV
				return true
			}
			// Stage order: ALU write first, the immediate second (a
			// shared destination takes the immediate).
			c.Regs[dst] = aluV
			c.lastWrite[dst] = c.seq
			c.Regs[data] = imm
			c.lastWrite[data] = c.seq
			return true
		}, wcPackedLoadImm
	}

	ecFault := pre.plus(wcPackedMemFault)
	if d.memKind == isa.PieceLoad {
		ecOvf := pre.plus(wcPackedLoad)
		return func(c *CPU) bool {
			c.seq++
			if guarded && c.pendN != 0 {
				c.commitLoads()
			}
			aluV, loV, ovf := c.packedALU(&d, vpc, guarded)
			var addr uint32
			if guarded {
				addr = c.leanAddr(&d, vpc)
			} else {
				switch d.mode {
				case isa.AModeAbs:
					addr = uint32(d.disp)
				case isa.AModeDisp:
					addr = c.Regs[d.base] + uint32(d.disp)
				case isa.AModeIndex:
					addr = c.Regs[d.base] + c.Regs[d.index]
				default:
					addr = c.Regs[d.base] + c.Regs[d.index]>>d.shift
				}
			}
			v, f := c.Bus.Read(addr, false)
			if f != nil {
				ecFault.add(&c.Stats)
				if ovf {
					c.traceFault2(fq, isa.CauseOverflow, f.Cause)
				} else {
					c.traceFault(fq, f.Cause)
				}
				return false
			}
			if c.onMem != nil {
				c.onMem(vpc, addr, false)
			}
			if ovf {
				// The load completed and counts; only the writes are
				// suppressed.
				ecOvf.add(&c.Stats)
				c.traceFault(fq, isa.CauseOverflow)
				return false
			}
			if !movLo {
				c.Regs[dst] = aluV
				c.lastWrite[dst] = c.seq
			}
			c.writeLoad(data, v)
			if movLo {
				c.Lo = loV
			}
			return true
		}, wcPackedLoad
	}

	// Packed store.
	ecDone := pre.plus(wcPackedStore)
	return func(c *CPU) bool {
		c.seq++
		if guarded && c.pendN != 0 {
			c.commitLoads()
		}
		aluV, loV, ovf := c.packedALU(&d, vpc, guarded)
		var addr, val uint32
		if guarded {
			addr = c.leanAddr(&d, vpc)
			val = c.leanRead(data, vpc)
		} else {
			switch d.mode {
			case isa.AModeAbs:
				addr = uint32(d.disp)
			case isa.AModeDisp:
				addr = c.Regs[d.base] + uint32(d.disp)
			case isa.AModeIndex:
				addr = c.Regs[d.base] + c.Regs[d.index]
			default:
				addr = c.Regs[d.base] + c.Regs[d.index]>>d.shift
			}
			val = c.Regs[data]
		}
		if f := c.Bus.Write(addr, val, false); f != nil {
			ecFault.add(&c.Stats)
			if ovf {
				c.traceFault2(fq, isa.CauseOverflow, f.Cause)
			} else {
				c.traceFault(fq, f.Cause)
			}
			return false
		}
		if c.onMem != nil {
			c.onMem(vpc, addr, true)
		}
		if ovf {
			// The store hit memory (and may have invalidated this very
			// trace); the register write is suppressed and the word
			// restarts through the exception.
			ecDone.add(&c.Stats)
			c.traceFault(fq, isa.CauseOverflow)
			return false
		}
		if movLo {
			c.Lo = loV
		} else {
			c.Regs[dst] = aluV
			c.lastWrite[dst] = c.seq
		}
		if !tr.valid {
			c.deopt = DeoptInvalidation
			ecDone.add(&c.Stats)
			c.pcq[0], c.pcq[1] = cq[0], cq[1]
			c.pcn = cqn
			return false
		}
		return true
	}, wcPackedStore
}

// emitPackedTerm compiles a packed terminator — an ALU-class piece
// sharing its word with a branch, jump, call, or indirect jump — as one
// specialized closure. The control piece evaluates exactly (hook fired
// with the real outcome before any exit), the recorded direction or
// target is the guard, and a disagreeing resolution restores the exact
// redirect queue the executor would have produced. An enabled overflow
// accounts the word with its real control outcome, then restarts it
// through the fault queue the real direction leaves behind — the queue
// entries past the architectural return window are discarded by the
// exception sequence, so three entries always suffice.
func emitPackedTerm(w *traceWord, pre traceCost) (traceOp, traceCost) {
	d := w.d
	vpc, fq := w.vpc, w.fq
	guarded := w.hazard
	movLo := d.aluKind == isa.PieceALU && d.aluOp == isa.OpMovLo
	dst := d.aluDst

	if d.memKind == isa.PieceJumpInd {
		exp := w.expTarget
		ec := pre.plus(wcPackedTaken)
		return func(c *CPU) bool {
			c.seq++
			if guarded && c.pendN != 0 {
				c.commitLoads()
			}
			aluV, loV, ovf := c.packedALU(&d, vpc, guarded)
			var t uint32
			if guarded {
				t = rdOpG(c, d.m1, vpc)
			} else {
				t = rdOp(c, d.m1)
			}
			if c.onBranch != nil {
				c.onBranch(vpc, t, true)
			}
			if ovf {
				// The jump executed, then the word restarted: the
				// fourth queue entry (the target, two delays out) falls
				// past the saved return window, so the restart queue is
				// the sequential image.
				ec.add(&c.Stats)
				c.traceFault(fq, isa.CauseOverflow)
				return false
			}
			if movLo {
				c.Lo = loV
			} else {
				c.Regs[dst] = aluV
				c.lastWrite[dst] = c.seq
			}
			if t != exp {
				c.deopt = DeoptIndirectTarget
				ec.add(&c.Stats)
				c.pcq[0], c.pcq[1], c.pcq[2] = vpc+1, vpc+2, t
				c.pcn = 3
				return false
			}
			return true
		}, wcPackedTaken
	}

	if d.memKind == isa.PieceBranch {
		target := d.target
		recTaken := w.taken
		ecTaken := pre.plus(wcPackedTaken)
		ecNot := pre.plus(wcPackedBranch)
		happy := wcPackedBranch
		if recTaken {
			happy = wcPackedTaken
		}
		return func(c *CPU) bool {
			c.seq++
			if guarded && c.pendN != 0 {
				c.commitLoads()
			}
			aluV, loV, ovf := c.packedALU(&d, vpc, guarded)
			var a, b uint32
			if guarded {
				a, b = rdOpG(c, d.m1, vpc), rdOpG(c, d.m2, vpc)
			} else {
				a, b = rdOp(c, d.m1), rdOp(c, d.m2)
			}
			t := d.memCmp.Eval(a, b)
			if c.onBranch != nil {
				c.onBranch(vpc, target, t)
			}
			if ovf {
				// Word accounted with its real outcome, then restarted:
				// the fault queue carries the real direction's redirect.
				q1 := vpc + 2
				if t {
					ecTaken.add(&c.Stats)
					q1 = target
				} else {
					ecNot.add(&c.Stats)
				}
				c.traceFault([3]uint32{vpc, vpc + 1, q1}, isa.CauseOverflow)
				return false
			}
			if movLo {
				c.Lo = loV
			} else {
				c.Regs[dst] = aluV
				c.lastWrite[dst] = c.seq
			}
			if t != recTaken {
				c.deopt = DeoptBranchDirection
				if t {
					ecTaken.add(&c.Stats)
					c.pcq[0], c.pcq[1] = vpc+1, target
					c.pcn = 2
				} else {
					ecNot.add(&c.Stats)
					c.pcq[0], c.pcn = vpc+1, 1
				}
				return false
			}
			return true
		}, happy
	}

	// Direct jump or call: always taken, the only exit is overflow.
	target := d.target
	isCall := d.memKind == isa.PieceCall
	linkDst := d.linkDst
	link := vpc + 1 + isa.BranchDelay
	ec := pre.plus(wcPackedTaken)
	return func(c *CPU) bool {
		c.seq++
		if guarded && c.pendN != 0 {
			c.commitLoads()
		}
		aluV, loV, ovf := c.packedALU(&d, vpc, guarded)
		if c.onBranch != nil {
			c.onBranch(vpc, target, true)
		}
		if ovf {
			ec.add(&c.Stats)
			c.traceFault([3]uint32{vpc, vpc + 1, target}, isa.CauseOverflow)
			return false
		}
		if movLo {
			c.Lo = loV
		} else {
			c.Regs[dst] = aluV
			c.lastWrite[dst] = c.seq
		}
		if isCall {
			// Link commits after the ALU write, exactly as staged.
			c.Regs[linkDst] = link
			c.lastWrite[linkDst] = c.seq
		}
		return true
	}, wcPackedTaken
}

// emitALU compiles a single-ALU-piece word. The overflow-capable ops
// check the dispatch-latched trap enable and exit through the exact
// fault path; everything else is pure compute and writeback.
func emitALU(w *traceWord, pre traceCost) (traceOp, traceCost) {
	d := w.d
	vpc, fq := w.vpc, w.fq
	ec := pre.plus(wcALU) // the overflow exit accounts the full word
	dst := d.aluDst
	a1, a2 := d.a1, d.a2

	if w.hazard {
		// Guarded generic: exact reads, per-word commit drain.
		if d.aluKind == isa.PieceSetCond {
			cmp := d.aluCmp
			return func(c *CPU) bool {
				c.seq++
				if c.pendN != 0 {
					c.commitLoads()
				}
				a := rdOpG(c, a1, vpc)
				b := rdOpG(c, a2, vpc)
				var v uint32
				if cmp.Eval(a, b) {
					v = 1
				}
				c.Regs[dst] = v
				c.lastWrite[dst] = c.seq
				return true
			}, wcALU
		}
		return func(c *CPU) bool {
			c.seq++
			if c.pendN != 0 {
				c.commitLoads()
			}
			a := rdOpG(c, a1, vpc)
			var b uint32
			if !d.aluUnary {
				b = rdOpG(c, a2, vpc)
			}
			var dstVal uint32
			if d.aluDstRead {
				dstVal = c.leanRead(dst, vpc)
			}
			v, lo, ovf := aluEval(d.aluOp, a, b, dstVal, c.Lo)
			if ovf && c.trOvfOn {
				ec.add(&c.Stats)
				c.traceFault(fq, isa.CauseOverflow)
				return false
			}
			if d.aluOp == isa.OpMovLo {
				c.Lo = lo
				return true
			}
			c.Regs[dst] = v
			c.lastWrite[dst] = c.seq
			return true
		}, wcALU
	}

	if d.aluKind == isa.PieceSetCond {
		cmp := d.aluCmp
		return func(c *CPU) bool {
			c.seq++
			a, b := rdOp(c, a1), rdOp(c, a2)
			var v uint32
			if cmp.Eval(a, b) {
				v = 1
			}
			c.Regs[dst] = v
			c.lastWrite[dst] = c.seq
			return true
		}, wcALU
	}
	// Unguarded specializations for the dominant ops; the rest fall back
	// to the shared evaluator.
	switch d.aluOp {
	case isa.OpAdd:
		if !d.aluUnary {
			return func(c *CPU) bool {
				c.seq++
				a, b := rdOp(c, a1), rdOp(c, a2)
				v := a + b
				if c.trOvfOn && addOverflows(a, b, v) {
					ec.add(&c.Stats)
					c.traceFault(fq, isa.CauseOverflow)
					return false
				}
				c.Regs[dst] = v
				c.lastWrite[dst] = c.seq
				return true
			}, wcALU
		}
	case isa.OpSub:
		if !d.aluUnary {
			return func(c *CPU) bool {
				c.seq++
				a, b := rdOp(c, a1), rdOp(c, a2)
				v := a - b
				if c.trOvfOn && subOverflows(a, b, v) {
					ec.add(&c.Stats)
					c.traceFault(fq, isa.CauseOverflow)
					return false
				}
				c.Regs[dst] = v
				c.lastWrite[dst] = c.seq
				return true
			}, wcALU
		}
	case isa.OpAnd:
		if !d.aluUnary {
			return func(c *CPU) bool {
				c.seq++
				c.Regs[dst] = rdOp(c, a1) & rdOp(c, a2)
				c.lastWrite[dst] = c.seq
				return true
			}, wcALU
		}
	case isa.OpOr:
		if !d.aluUnary {
			return func(c *CPU) bool {
				c.seq++
				c.Regs[dst] = rdOp(c, a1) | rdOp(c, a2)
				c.lastWrite[dst] = c.seq
				return true
			}, wcALU
		}
	case isa.OpXor:
		if !d.aluUnary {
			return func(c *CPU) bool {
				c.seq++
				c.Regs[dst] = rdOp(c, a1) ^ rdOp(c, a2)
				c.lastWrite[dst] = c.seq
				return true
			}, wcALU
		}
	case isa.OpMov:
		return func(c *CPU) bool {
			c.seq++
			c.Regs[dst] = rdOp(c, a1)
			c.lastWrite[dst] = c.seq
			return true
		}, wcALU
	}
	return func(c *CPU) bool {
		c.seq++
		a := rdOp(c, a1)
		var b uint32
		if !d.aluUnary {
			b = rdOp(c, a2)
		}
		var dstVal uint32
		if d.aluDstRead {
			dstVal = c.Regs[dst]
		}
		v, lo, ovf := aluEval(d.aluOp, a, b, dstVal, c.Lo)
		if ovf && c.trOvfOn {
			ec.add(&c.Stats)
			c.traceFault(fq, isa.CauseOverflow)
			return false
		}
		if d.aluOp == isa.OpMovLo {
			c.Lo = lo
			return true
		}
		c.Regs[dst] = v
		c.lastWrite[dst] = c.seq
		return true
	}, wcALU
}

// emitLoad compiles a load word. Long immediates never touch the data
// port; real loads read through the deviceless unmapped bus fast path,
// fire the memory hook, and commit eagerly when the flattened successor
// proves the delay window unobservable, else through the exact
// delayed-commit machinery.
func emitLoad(w *traceWord, pre traceCost) (traceOp, traceCost) {
	d := w.d
	vpc, fq := w.vpc, w.fq
	data := d.data
	if d.mode == isa.AModeLongImm {
		imm := uint32(d.disp)
		guarded := w.hazard
		return func(c *CPU) bool {
			c.seq++
			if guarded && c.pendN != 0 {
				c.commitLoads()
			}
			c.Regs[data] = imm
			c.lastWrite[data] = c.seq
			return true
		}, wcLoadImm
	}
	ec := pre.plus(wcMemFault)
	eager := w.eager
	if w.hazard {
		return func(c *CPU) bool {
			c.seq++
			if c.pendN != 0 {
				c.commitLoads()
			}
			addr := c.leanAddr(&d, vpc)
			v, f := c.Bus.Read(addr, false)
			if f != nil {
				ec.add(&c.Stats)
				c.traceFault(fq, f.Cause)
				return false
			}
			if c.onMem != nil {
				c.onMem(vpc, addr, false)
			}
			if eager {
				c.Regs[data] = v
				c.lastWrite[data] = c.seq
			} else {
				c.writeLoad(data, v)
			}
			return true
		}, wcLoad
	}
	switch d.mode {
	case isa.AModeDisp:
		base, disp := d.base, uint32(d.disp)
		return func(c *CPU) bool {
			c.seq++
			addr := c.Regs[base] + disp
			v, f := c.Bus.Read(addr, false)
			if f != nil {
				ec.add(&c.Stats)
				c.traceFault(fq, f.Cause)
				return false
			}
			if c.onMem != nil {
				c.onMem(vpc, addr, false)
			}
			if eager {
				c.Regs[data] = v
				c.lastWrite[data] = c.seq
			} else {
				c.writeLoad(data, v)
			}
			return true
		}, wcLoad
	case isa.AModeAbs:
		addr := uint32(d.disp)
		return func(c *CPU) bool {
			c.seq++
			v, f := c.Bus.Read(addr, false)
			if f != nil {
				ec.add(&c.Stats)
				c.traceFault(fq, f.Cause)
				return false
			}
			if c.onMem != nil {
				c.onMem(vpc, addr, false)
			}
			if eager {
				c.Regs[data] = v
				c.lastWrite[data] = c.seq
			} else {
				c.writeLoad(data, v)
			}
			return true
		}, wcLoad
	}
	return func(c *CPU) bool {
		c.seq++
		var addr uint32
		if d.mode == isa.AModeIndex {
			addr = c.Regs[d.base] + c.Regs[d.index]
		} else {
			addr = c.Regs[d.base] + c.Regs[d.index]>>d.shift
		}
		v, f := c.Bus.Read(addr, false)
		if f != nil {
			ec.add(&c.Stats)
			c.traceFault(fq, f.Cause)
			return false
		}
		if c.onMem != nil {
			c.onMem(vpc, addr, false)
		}
		if eager {
			c.Regs[data] = v
			c.lastWrite[data] = c.seq
		} else {
			c.writeLoad(data, v)
		}
		return true
	}, wcLoad
}

// emitStore compiles a store word. The write goes through the
// deviceless unmapped bus fast path, whose physical write barrier is
// the one mechanism that can invalidate this very trace mid-run: the
// closure checks tr.valid after the write and exits at the completed
// word's boundary with the exact remaining queue.
func emitStore(tr *trace, w *traceWord, pre traceCost) (traceOp, traceCost) {
	d := w.d
	vpc, fq := w.vpc, w.fq
	cq, cqn := w.cq, int(w.cqn)
	data := d.data
	ecFault := pre.plus(wcMemFault)
	ecDone := pre.plus(wcStore)
	if w.hazard {
		return func(c *CPU) bool {
			c.seq++
			if c.pendN != 0 {
				c.commitLoads()
			}
			addr := c.leanAddr(&d, vpc)
			val := c.leanRead(data, vpc)
			if f := c.Bus.Write(addr, val, false); f != nil {
				ecFault.add(&c.Stats)
				c.traceFault(fq, f.Cause)
				return false
			}
			if c.onMem != nil {
				c.onMem(vpc, addr, true)
			}
			if !tr.valid {
				c.deopt = DeoptInvalidation
				ecDone.add(&c.Stats)
				c.pcq[0], c.pcq[1] = cq[0], cq[1]
				c.pcn = cqn
				return false
			}
			return true
		}, wcStore
	}
	if d.mode == isa.AModeDisp {
		base, disp := d.base, uint32(d.disp)
		return func(c *CPU) bool {
			c.seq++
			addr := c.Regs[base] + disp
			if f := c.Bus.Write(addr, c.Regs[data], false); f != nil {
				ecFault.add(&c.Stats)
				c.traceFault(fq, f.Cause)
				return false
			}
			if c.onMem != nil {
				c.onMem(vpc, addr, true)
			}
			if !tr.valid {
				c.deopt = DeoptInvalidation
				ecDone.add(&c.Stats)
				c.pcq[0], c.pcq[1] = cq[0], cq[1]
				c.pcn = cqn
				return false
			}
			return true
		}, wcStore
	}
	return func(c *CPU) bool {
		c.seq++
		var addr uint32
		switch d.mode {
		case isa.AModeAbs:
			addr = uint32(d.disp)
		case isa.AModeIndex:
			addr = c.Regs[d.base] + c.Regs[d.index]
		default:
			addr = c.Regs[d.base] + c.Regs[d.index]>>d.shift
		}
		if f := c.Bus.Write(addr, c.Regs[data], false); f != nil {
			ecFault.add(&c.Stats)
			c.traceFault(fq, f.Cause)
			return false
		}
		if c.onMem != nil {
			c.onMem(vpc, addr, true)
		}
		if !tr.valid {
			c.deopt = DeoptInvalidation
			ecDone.add(&c.Stats)
			c.pcq[0], c.pcq[1] = cq[0], cq[1]
			c.pcn = cqn
			return false
		}
		return true
	}, wcStore
}

// emitBranch compiles a conditional-branch terminator with its recorded
// direction as the guard. The actual condition is evaluated exactly;
// when it disagrees with the recording, the closure fires the branch
// hook for the real outcome, accounts the word, restores the queue the
// real direction produces, and exits.
func emitBranch(w *traceWord, pre traceCost) (traceOp, traceCost) {
	d := w.d
	vpc := w.vpc
	m1, m2 := d.m1, d.m2
	cmp, target := d.memCmp, d.target
	guarded := w.hazard
	if w.taken {
		ec := pre.plus(wcBranch) // the not-taken exit never counts a taken branch
		return func(c *CPU) bool {
			c.seq++
			if guarded && c.pendN != 0 {
				c.commitLoads()
			}
			var a, b uint32
			if guarded {
				a, b = rdOpG(c, m1, vpc), rdOpG(c, m2, vpc)
			} else {
				a, b = rdOp(c, m1), rdOp(c, m2)
			}
			t := cmp.Eval(a, b)
			if c.onBranch != nil {
				c.onBranch(vpc, target, t)
			}
			if !t {
				c.deopt = DeoptBranchDirection
				ec.add(&c.Stats)
				c.pcq[0], c.pcn = vpc+1, 1
				return false
			}
			return true
		}, wcTaken
	}
	ec := pre.plus(wcTaken)
	return func(c *CPU) bool {
		c.seq++
		if guarded && c.pendN != 0 {
			c.commitLoads()
		}
		var a, b uint32
		if guarded {
			a, b = rdOpG(c, m1, vpc), rdOpG(c, m2, vpc)
		} else {
			a, b = rdOp(c, m1), rdOp(c, m2)
		}
		t := cmp.Eval(a, b)
		if c.onBranch != nil {
			c.onBranch(vpc, target, t)
		}
		if t {
			c.deopt = DeoptBranchDirection
			ec.add(&c.Stats)
			c.pcq[0], c.pcq[1] = vpc+1, target
			c.pcn = 2
			return false
		}
		return true
	}, wcBranch
}

// emitJump compiles an unconditional direct jump: always taken, no
// guard, no exit — the flattening already placed the target's words
// next.
func emitJump(w *traceWord, _ traceCost) (traceOp, traceCost) {
	vpc, target := w.vpc, w.d.target
	guarded := w.hazard
	return func(c *CPU) bool {
		c.seq++
		if guarded && c.pendN != 0 {
			c.commitLoads()
		}
		if c.onBranch != nil {
			c.onBranch(vpc, target, true)
		}
		return true
	}, wcTaken
}

// emitCall compiles a call: an unconditional jump plus the link-register
// commit, which lands after the branch hook exactly as on the staged
// path.
func emitCall(w *traceWord, _ traceCost) (traceOp, traceCost) {
	vpc, target := w.vpc, w.d.target
	linkDst := w.d.linkDst
	link := vpc + 1 + isa.BranchDelay
	guarded := w.hazard
	return func(c *CPU) bool {
		c.seq++
		if guarded && c.pendN != 0 {
			c.commitLoads()
		}
		if c.onBranch != nil {
			c.onBranch(vpc, target, true)
		}
		c.Regs[linkDst] = link
		c.lastWrite[linkDst] = c.seq
		return true
	}, wcTaken
}

// emitJumpInd compiles an indirect jump with the recorded target as the
// guard. A different runtime target fires the hook for the real target,
// accounts the word, restores the exact two-delay redirect queue, and
// exits.
func emitJumpInd(w *traceWord, pre traceCost) (traceOp, traceCost) {
	d := w.d
	vpc, exp := w.vpc, w.expTarget
	m1 := d.m1
	guarded := w.hazard
	ec := pre.plus(wcTaken)
	return func(c *CPU) bool {
		c.seq++
		if guarded && c.pendN != 0 {
			c.commitLoads()
		}
		var t uint32
		if guarded {
			t = rdOpG(c, m1, vpc)
		} else {
			t = rdOp(c, m1)
		}
		if c.onBranch != nil {
			c.onBranch(vpc, t, true)
		}
		if t != exp {
			c.deopt = DeoptIndirectTarget
			ec.add(&c.Stats)
			c.pcq[0], c.pcq[1], c.pcq[2] = vpc+1, vpc+2, t
			c.pcn = 3
			return false
		}
		return true
	}, wcTaken
}
