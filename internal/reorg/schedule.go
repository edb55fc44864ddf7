package reorg

import (
	"mips/internal/asm"
	"mips/internal/isa"
)

// scheduler carries the block pass across a unit: the output words, the
// arena their pieces are cut from, and the DAG scratch every block
// reuses.
type scheduler struct {
	opt Options
	st  *Stats
	out []asm.Stmt
	// arena backs the pieces of the output words: one allocation serves
	// many words instead of one heap slice per word.
	arena []isa.Piece

	nodes []node
	// gap is the block's dependency DAG as a dense n×n matrix: gap[i*n+j]
	// (i < j) is the minimum word spacing from node i to node j, 0 when
	// there is no edge.
	gap []uint8
	// ready holds the unissued nodes whose predecessors have all issued,
	// in index order.
	ready []int32
}

// node is one piece of a block's DAG (paper §4.2.1 step 1: "create a
// machine-level dag that represents the dependencies between individual
// instruction pieces") with the facts the scheduler reads.
type node struct {
	piece      isa.Piece
	uses, defs regMask
	height     int32 // longest path to a sink, the priority heuristic
	earliest   int32 // first slot the issued predecessors allow
	npreds     int32 // predecessors not yet issued
}

// newScheduler sizes the output for a unit of nstmts statements. With
// every optimization on, the corpus emits 1.07 to 1.14 pieces per input
// statement.
func newScheduler(opt Options, st *Stats, nstmts int) *scheduler {
	size := nstmts + nstmts/4
	return &scheduler{
		opt:   opt,
		st:    st,
		out:   make([]asm.Stmt, 0, size),
		arena: make([]isa.Piece, 0, size),
	}
}

// take cuts n pieces from the arena, starting a new chunk when the
// current one is full. Each slice is capped at its own length, so an
// append to one word's pieces never reaches a neighbour's.
func (s *scheduler) take(n int) []isa.Piece {
	if cap(s.arena)-len(s.arena) < n {
		s.arena = make([]isa.Piece, 0, max(n, 128))
	}
	m := len(s.arena)
	s.arena = s.arena[:m+n]
	return s.arena[m : m+n : m+n]
}

// emit appends a word of the given pieces.
func (s *scheduler) emit(p ...isa.Piece) {
	ps := s.take(len(p))
	copy(ps, p)
	s.out = append(s.out, asm.Stmt{Pieces: ps})
}

func (s *scheduler) emitNop() { s.emit(isa.Nop()) }

// block turns one basic block's sequential statements into
// pipeline-correct instruction words appended to s.out. Pre-packed and
// NoReorg blocks pass through unchanged (trusting the front end, per the
// paper's pseudo-op).
func (s *scheduler) block(stmts []asm.Stmt) {
	start := len(s.out)
	if stmts[0].NoReorg || prepacked(stmts) {
		// Clone the pieces: later passes retarget branches in place, and
		// the input must not change.
		for _, stmt := range stmts {
			stmt.Pieces = append(s.take(len(stmt.Pieces))[:0], stmt.Pieces...)
			s.out = append(s.out, stmt)
		}
		return
	}

	// Flatten to single pieces, dropping input no-ops — in sequential
	// semantics they are pure label anchors, and the scheduler re-inserts
	// any the pipeline actually needs.
	nodes := s.nodes[:0]
	for i := range stmts {
		if p := &stmts[i].Pieces[0]; !p.IsNop() {
			nodes = append(nodes, node{piece: *p, uses: pieceUses(p), defs: pieceDefs(p)})
		}
	}
	s.nodes = nodes

	// Split off the block-final control piece; it is scheduled last and
	// its delay slots appended after.
	var ctrl *node
	if n := len(nodes); n > 0 && nodes[n-1].piece.IsControl() {
		ctrl = &nodes[n-1]
		nodes = nodes[:n-1]
	}

	if s.opt.Reorganize {
		s.listSchedule(nodes)
	} else {
		s.inOrder(nodes)
	}

	// The last executed word of a block must not be a load: the
	// successor block's first word would read it one word too early.
	// With a control piece the delay slot provides the spacing. A
	// machine with hardware interlocks needs neither rule.
	var last *asm.Stmt // the word to check, if any
	if len(s.out) > start && !s.opt.AssumeInterlocks {
		last = &s.out[len(s.out)-1]
	}
	if ctrl == nil {
		if last != nil && wordLoads(last) {
			s.emitNop()
		}
	} else {
		// The control piece reads its operands at its own slot; if the
		// preceding word loads a register the control reads, space it.
		if last != nil && loadDefs(last)&ctrl.uses != 0 {
			s.emitNop()
		}
		ci := len(s.out)
		s.emit(ctrl.piece)
		// Emit the delay slots as no-ops; scheme 1 may pull a body word
		// down, the global pass may fill the rest.
		delay := ctrl.piece.Delay()
		s.st.DelaySlots += delay
		for i := 0; i < delay; i++ {
			if s.opt.FillDelay && s.moveIntoDelay(start, ci, ctrl) {
				ci--
				s.st.DelayFilled++
				s.st.SchemeMoved++
				continue
			}
			s.emitNop()
		}
		if s.opt.Pack {
			s.packControl(start, delay)
		}
	}

	if len(s.out) == start {
		s.emitNop()
	}
	s.out[start].Labels = stmts[0].Labels
}

// prepacked reports whether a block holds a word the front end packed.
func prepacked(stmts []asm.Stmt) bool {
	for i := range stmts {
		if len(stmts[i].Pieces) > 1 {
			return true
		}
	}
	return false
}

// buildDAG fills s.gap with the dependence edges of nodes and sets each
// node's predecessor count and height:
//
//   - true dependences (read after write), with the load-use gap when the
//     producer is a load;
//   - anti and output dependences (write after read/write);
//   - the byte-selector chain (movlo feeds ic);
//   - conservative memory ordering: stores are ordered against all other
//     memory references ("the algorithm must also avoid reordering loads
//     and stores that might be aliased"), loads may pass loads;
//   - special pieces and control flow are scheduling barriers.
func (s *scheduler) buildDAG(nodes []node) {
	n := len(nodes)
	if cap(s.gap) < n*n {
		s.gap = make([]uint8, n*n)
	} else {
		s.gap = s.gap[:n*n]
		clear(s.gap)
	}
	loadGap := uint8(s.opt.loadGap())
	for i := range nodes {
		pi := &nodes[i]
		iBarrier := barrier(&pi.piece)
		row := s.gap[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			pj := &nodes[j]
			var g uint8
			switch {
			case pi.defs&pj.uses != 0:
				// True dependence. A data-memory load's value arrives a
				// word late; a long immediate comes from the instruction
				// stream and has no delay.
				g = 1
				if delayedLoad(&pi.piece) {
					g = loadGap
				}
			case pi.uses&pj.defs != 0 || pi.defs&pj.defs != 0,
				// Memory ordering: any pair involving a store is kept
				// in program order.
				pi.piece.Kind == isa.PieceStore && pj.piece.IsMem(),
				pj.piece.Kind == isa.PieceStore && pi.piece.IsMem(),
				// Barriers order against everything.
				iBarrier, barrier(&pj.piece):
				g = 1
			}
			if g != 0 {
				row[j] = g
				pj.npreds++
			}
		}
	}

	// Longest-path heights for the selection heuristic.
	for i := n - 1; i >= 0; i-- {
		var h int32
		row := s.gap[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			if row[j] != 0 && nodes[j].height+1 > h {
				h = nodes[j].height + 1
			}
		}
		nodes[i].height = h
	}
}

// barrier reports whether a piece orders against every other piece.
func barrier(p *isa.Piece) bool { return p.IsControl() || p.Kind == isa.PieceSpecial }

// listSchedule list-schedules the non-control pieces of a block,
// emitting one word per slot.
func (s *scheduler) listSchedule(nodes []node) {
	if len(nodes) == 0 {
		return
	}
	s.buildDAG(nodes)
	s.ready = s.ready[:0]
	for i := range nodes {
		if nodes[i].npreds == 0 {
			s.ready = append(s.ready, int32(i))
		}
	}

	for remaining, slot := len(nodes), int32(0); remaining > 0; slot++ {
		best := int32(-1)
		for _, i := range s.ready {
			if nodes[i].earliest <= slot && (best < 0 || better(nodes, i, best)) {
				best = i
			}
		}
		if best < 0 {
			// Nothing can issue: a no-op covers the latency (step 4 of
			// the paper's algorithm).
			s.emitNop()
			continue
		}
		s.issue(nodes, best, slot)
		remaining--

		// Packing: prefer a second piece that fits the hole in this
		// nonfull word. It must be ready and legal in the same slot and
		// independent of the co-resident piece (no edge between them).
		if s.opt.Pack {
			if mate, in, ok := s.mate(nodes, best, slot); ok {
				s.emit(*in.ALU, *in.Mem)
				s.issue(nodes, mate, slot)
				remaining--
				continue
			}
		}
		s.emit(nodes[best].piece)
	}
}

// mate finds the first ready node, in index order, that may share best's
// word in this slot.
func (s *scheduler) mate(nodes []node, best, slot int32) (int32, isa.Instr, bool) {
	n := int32(len(nodes))
	for _, i := range s.ready {
		if nodes[i].earliest > slot {
			continue
		}
		lo, hi := min(best, i), max(best, i)
		if s.gap[lo*n+hi] != 0 {
			continue
		}
		if in, ok := isa.Pack(nodes[best].piece, nodes[i].piece); ok {
			return i, in, true
		}
	}
	return 0, isa.Instr{}, false
}

// issue schedules node i in slot: it leaves the ready list, and each
// successor learns its earliest slot and joins the list once its last
// predecessor has issued.
func (s *scheduler) issue(nodes []node, i, slot int32) {
	for k, r := range s.ready {
		if r == i {
			s.ready = append(s.ready[:k], s.ready[k+1:]...)
			break
		}
	}
	n := int32(len(nodes))
	row := s.gap[i*n : (i+1)*n]
	for j := i + 1; j < n; j++ {
		g := row[j]
		if g == 0 {
			continue
		}
		nj := &nodes[j]
		nj.earliest = max(nj.earliest, slot+int32(g))
		if nj.npreds--; nj.npreds == 0 {
			s.insertReady(j)
		}
	}
}

// insertReady adds j to the ready list, keeping index order.
func (s *scheduler) insertReady(j int32) {
	k := len(s.ready)
	for k > 0 && s.ready[k-1] > j {
		k--
	}
	s.ready = append(s.ready, 0)
	copy(s.ready[k+1:], s.ready[k:])
	s.ready[k] = j
}

// better is the selection heuristic: prefer the node with the longer
// path to a sink (critical path first); break ties toward loads, whose
// latency wants covering early; then program order.
func better(nodes []node, i, best int32) bool {
	if nodes[i].height != nodes[best].height {
		return nodes[i].height > nodes[best].height
	}
	iLoad := nodes[i].piece.Kind == isa.PieceLoad
	bLoad := nodes[best].piece.Kind == isa.PieceLoad
	if iLoad != bLoad {
		return iLoad
	}
	return i < best
}

// inOrder keeps the original piece order and inserts no-ops exactly
// where the pipeline requires them — the unoptimized baseline. With
// packing enabled it still merges adjacent independent pairs.
func (s *scheduler) inOrder(nodes []node) {
	var lastLoadDefs regMask // defs of a load in the previous word
	for i := 0; i < len(nodes); i++ {
		p := &nodes[i]
		if !s.opt.AssumeInterlocks && lastLoadDefs&p.uses != 0 {
			s.emitNop()
			lastLoadDefs = 0
		}
		packed := false
		if s.opt.Pack && i+1 < len(nodes) {
			q := &nodes[i+1]
			if lastLoadDefs&q.uses == 0 && independent(p, q) {
				if in, ok := isa.Pack(p.piece, q.piece); ok {
					s.emit(*in.ALU, *in.Mem)
					packed = true
					i++
				}
			}
		}
		if !packed {
			s.emit(p.piece)
		}
		lastLoadDefs = loadDefs(&s.out[len(s.out)-1])
	}
}

// independent reports whether two nodes have no register or memory
// dependence, so they may share a word in either order.
func independent(p, q *node) bool {
	if p.defs&q.uses != 0 || q.defs&p.uses != 0 || p.defs&q.defs != 0 {
		return false
	}
	pk, qk := &p.piece, &q.piece
	return !(pk.Kind == isa.PieceStore && qk.IsMem()) && !(qk.Kind == isa.PieceStore && pk.IsMem())
}

// moveIntoDelay implements delay scheme 1: move the word before the
// control word at s.out[ci] into the slot after it. The block's words
// start at s.out[start].
func (s *scheduler) moveIntoDelay(start, ci int, ctrl *node) bool {
	if ci <= start {
		return false
	}
	cand := &s.out[ci-1]
	// The moved word must be real work, independent of the branch, and
	// must not be a load (it would become the block's final word).
	if isNopStmt(cand) || wordLoads(cand) {
		return false
	}
	cu, cd := ctrl.uses, ctrl.defs
	if stmtDefs(cand)&cu != 0 || stmtUses(cand)&cd != 0 || stmtDefs(cand)&cd != 0 {
		return false
	}
	// Moving the word exposes the control piece to the word before it:
	// check the load-use spacing is still met.
	if ci-start >= 2 && loadDefs(&s.out[ci-2])&cu != 0 {
		return false
	}
	// Splice: [... prev cand ctrl ...] -> [... prev ctrl cand ...]
	s.out[ci-1], s.out[ci] = s.out[ci], s.out[ci-1]
	return true
}

// packControl merges the word before a direct jump into the control
// word when they can share it: the transfer happens after the delay
// slot either way, so executing the ALU piece in the jump's own word is
// equivalent and one word shorter. (Compare-and-branch words need the
// ALU for their comparison; calls need the link field; neither packs.)
func (s *scheduler) packControl(start, delay int) {
	ci := len(s.out) - 1 - delay
	if ci < start+1 {
		return
	}
	cw, prev := &s.out[ci], &s.out[ci-1]
	if len(cw.Pieces) != 1 || cw.Pieces[0].Kind != isa.PieceJump || len(prev.Pieces) != 1 {
		return
	}
	alu, jump := prev.Pieces[0], cw.Pieces[0]
	if !aluClass(&alu) {
		return
	}
	if _, ok := isa.Pack(alu, jump); !ok {
		return
	}
	prev.Pieces = s.take(2)
	prev.Pieces[0], prev.Pieces[1] = alu, jump
	s.out = append(s.out[:ci], s.out[ci+1:]...)
}

// delayedLoad reports whether a piece is a data-memory load, whose value
// arrives a word late (a long immediate comes from the instruction
// stream and has no delay).
func delayedLoad(p *isa.Piece) bool {
	return p.Kind == isa.PieceLoad && p.Mode != isa.AModeLongImm
}

// wordLoads reports whether the word contains a data-memory load.
func wordLoads(s *asm.Stmt) bool {
	for i := range s.Pieces {
		if delayedLoad(&s.Pieces[i]) {
			return true
		}
	}
	return false
}

// loadDefs returns the registers defined by delayed (data-memory) load
// pieces of the word.
func loadDefs(s *asm.Stmt) regMask {
	var m regMask
	for i := range s.Pieces {
		if delayedLoad(&s.Pieces[i]) {
			m |= pieceDefs(&s.Pieces[i])
		}
	}
	return m
}

func isNopStmt(s *asm.Stmt) bool {
	return len(s.Pieces) == 1 && s.Pieces[0].IsNop()
}
