package reorg

import (
	"mips/internal/asm"
	"mips/internal/isa"
)

// blockEnd returns the end (exclusive) of the basic block starting at
// stmts[start]: a maximal straight-line sequence that starts at a label
// (or the unit head) and ends at a control transfer or just before the
// next label. NoReorg statements form blocks of their own that the
// scheduler passes through. Reorganization is done strictly within
// blocks (paper §4.2.1: "All code reorganization is done on a basic
// block basis"), and only a block's first statement can carry labels.
func blockEnd(stmts []asm.Stmt, start int) int {
	noReorg := stmts[start].NoReorg
	for i := start; ; i++ {
		if stmtControl(&stmts[i]) != nil {
			return i + 1
		}
		if next := i + 1; next == len(stmts) || len(stmts[next].Labels) > 0 || stmts[next].NoReorg != noReorg {
			return next
		}
	}
}

// stmtControl returns the control-flow piece of a statement, if any.
func stmtControl(s *asm.Stmt) *isa.Piece {
	for i := range s.Pieces {
		if s.Pieces[i].IsControl() {
			return &s.Pieces[i]
		}
	}
	return nil
}

// regMask is a register set: bits 0..15 the general registers, bit 16
// the byte selector.
type regMask uint32

const loBit regMask = 1 << 16

// allRegs has every register live — the conservative value at calls,
// indirect jumps, and traps.
const allRegs regMask = 1<<17 - 1

func maskOf(r isa.Reg) regMask { return 1 << r }

// pieceUses returns the registers a piece reads.
func pieceUses(p *isa.Piece) regMask {
	var buf [isa.MaxUses]isa.Reg
	var m regMask
	for _, r := range p.Uses(buf[:0]) {
		m |= maskOf(r)
	}
	if p.ReadsLo() {
		m |= loBit
	}
	return m
}

// pieceDefs returns the registers a piece writes.
func pieceDefs(p *isa.Piece) regMask {
	var m regMask
	if d, ok := p.Defs(); ok {
		m |= maskOf(d)
	}
	if p.WritesLo() {
		m |= loBit
	}
	return m
}

// stmtUses and stmtDefs aggregate over a (possibly packed) statement.
// Within one word all reads happen before all writes, so the union is
// exact for liveness.
func stmtUses(s *asm.Stmt) regMask {
	var m regMask
	for i := range s.Pieces {
		m |= pieceUses(&s.Pieces[i])
	}
	return m
}

func stmtDefs(s *asm.Stmt) regMask {
	var m regMask
	for i := range s.Pieces {
		m |= pieceDefs(&s.Pieces[i])
	}
	return m
}
