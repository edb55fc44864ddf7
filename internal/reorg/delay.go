package reorg

import (
	"strconv"

	"mips/internal/asm"
	"mips/internal/isa"
)

// fillDelaysGlobal applies the cross-block branch-delay schemes (paper
// §4.2.1, schemes 2 and 3) to delay slots scheme 1 left as no-ops:
//
//   - scheme 2: a backward (loop) branch duplicates the first word of
//     the loop into its delay slot and retargets to the following word;
//     legal when the duplicate is side-effect free and its result is
//     dead on the fall-through (loop exit) path. Unconditional jumps and
//     calls duplicate unconditionally — the slot executes exactly when
//     the transfer happens, so any non-control word is legal.
//   - scheme 3: a conditional branch hoists the next sequential word
//     into its delay slot; legal when that word has no other
//     predecessors (no label), is side-effect free, and its result is
//     dead on the taken path.
//
// Neither scheme touches .noreorg code: a slot is skipped when its
// transfer or the slot itself is NoReorg, and no word is duplicated or
// hoisted out of such a region.
//
// The pass iterates to a fixpoint since each fill changes the layout;
// the bound is the number of delay slots, so it always terminates. Each
// round rescans from the first statement, and one liveness table is
// kept current across the rounds.
func fillDelaysGlobal(u *asm.Unit, st *Stats) {
	f := &filler{u: u, lv: computeLiveness(u)}
	for pass := 0; pass <= len(u.Stmts); pass++ {
		if !f.fillOnce(st) {
			return
		}
	}
}

// filler is the state of one unit's delay pass.
type filler struct {
	u  *asm.Unit
	lv *liveness
	// next is the lowest N a fresh ".d2.N" label may take: labels are
	// only ever added, so every lower name is already in use.
	next int
}

// fillOnce fills the first fillable delay slot and reports whether it
// found one.
func (f *filler) fillOnce(st *Stats) bool {
	rows := f.lv.rows
	for i := 0; i+1 < len(rows); i++ {
		r, slot := &rows[i], &rows[i+1]
		if r.delay != 1 || !slot.nop || slot.labeled || r.noReorg || slot.noReorg {
			continue
		}
		switch r.ctrl {
		case isa.PieceJump, isa.PieceCall:
			if f.duplicateTarget(i, false) {
				st.DelayFilled++
				st.SchemeLoop++
				return true
			}
		case isa.PieceBranch:
			if r.target >= 0 && int(r.target) <= i && f.duplicateTarget(i, true) {
				st.DelayFilled++
				st.SchemeLoop++
				return true
			}
			if f.hoistFallThrough(i) {
				st.DelayFilled++
				st.SchemeHoist++
				return true
			}
		}
	}
	return false
}

// duplicateTarget implements scheme 2: copy the transfer target's first
// word into the delay slot at branchIdx+1 and retarget the control piece
// past it. For a conditional branch the duplicate also executes on the
// fall-through path, so it must be side-effect free with a dead result
// there; an unconditional transfer has no such path.
func (f *filler) duplicateTarget(branchIdx int, conditional bool) bool {
	u, lv := f.u, f.lv
	ti := int(lv.rows[branchIdx].target)
	if ti < 0 || ti+1 >= len(u.Stmts) {
		return false
	}
	w0 := &lv.rows[ti]
	if w0.ctrl != isa.PieceNop || w0.nop || w0.noReorg {
		return false
	}
	// Duplicating the word that is the branch itself or its slot would
	// self-interfere.
	if ti == branchIdx || ti == branchIdx+1 {
		return false
	}
	// The result must be dead on the fall-through path, which begins
	// right after the delay slot.
	if conditional && (!w0.speculable || w0.defs&lv.liveAt(branchIdx+2) != 0) {
		return false
	}
	// A load may not sit in the delay slot if the retargeted first word
	// reads it in the very next cycle — the original code had the same
	// adjacency, so it is already spaced; loads are still rejected for
	// conditional duplicates by the speculability test above.

	// Install the duplicate and retarget past it.
	u.Stmts[branchIdx+1].Pieces = clonePieces(u.Stmts[ti].Pieces)
	lv.setRow(u, branchIdx+1)
	newLabel := f.labelFor(ti + 1)
	ps := u.Stmts[branchIdx].Pieces
	for i := range ps {
		if ps[i].IsControl() {
			ps[i].Label = newLabel
		}
	}
	lv.retarget(branchIdx, ti+1)
	return true
}

// hoistFallThrough implements scheme 3: move the word after the delay
// slot into the slot. It then executes on both paths, so it must be
// side-effect free, its result dead at the branch target, and it must
// have no other predecessors.
func (f *filler) hoistFallThrough(branchIdx int) bool {
	u, lv := f.u, f.lv
	fi := branchIdx + 2
	if fi >= len(u.Stmts) {
		return false
	}
	f0 := &lv.rows[fi]
	if f0.labeled || f0.ctrl != isa.PieceNop || f0.nop || f0.noReorg || !f0.speculable {
		return false
	}
	ti := int(lv.rows[branchIdx].target)
	if ti < 0 || f0.defs&lv.liveAt(ti) != 0 {
		return false
	}
	// Move: the slot takes f0's pieces; f0 is deleted.
	u.Stmts[branchIdx+1].Pieces = u.Stmts[fi].Pieces
	u.Stmts = append(u.Stmts[:fi], u.Stmts[fi+1:]...)
	lv.deleteRow(fi)
	lv.setRow(u, branchIdx+1)
	return true
}

func clonePieces(ps []isa.Piece) []isa.Piece {
	out := make([]isa.Piece, len(ps))
	copy(out, ps)
	return out
}

// labelFor returns a label bound to statement index i, creating a fresh
// one if none exists.
func (f *filler) labelFor(i int) string {
	s := &f.u.Stmts[i]
	if len(s.Labels) > 0 {
		return s.Labels[0]
	}
	for ; ; f.next++ {
		name := ".d2." + strconv.Itoa(f.next)
		if _, ok := f.lv.labels[name]; ok {
			continue
		}
		if _, ok := f.u.DataLabels[name]; ok {
			continue
		}
		f.next++
		s.Labels = []string{name}
		f.lv.addLabel(name, i)
		return name
	}
}
