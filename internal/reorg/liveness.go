package reorg

import (
	"mips/internal/asm"
	"mips/internal/isa"
)

// liveness is the table the delay-filling schemes read over the
// scheduled unit: per-statement register facts, branch targets and
// live-in sets, used to prove a duplicated or hoisted result dead on the
// path that should not observe it (the paper's Figure 4 relies on
// exactly this: "r2 is 'dead' outside of the section shown").
//
// The table is built once per unit. A fill updates only the rows it
// touches (setRow, retarget, addLabel, deleteRow) and marks the live-in
// sets stale; the next query re-solves the dataflow from zero, so every
// query sees the same least fixpoint a freshly built table would.
type liveness struct {
	rows []row
	// flow[i] is statement i's dataflow equation, kept current with the
	// rows it derives from.
	flow []flowRow
	// in[i] is the live-in of statement i, valid unless stale. Past the
	// statements it holds two sentinels at fixed indices (the unit only
	// shrinks): in[all] is every register, in[none] no register.
	in        []regMask
	all, none int32
	stale     bool
	// labels maps every label to the statement it bound when the table
	// was built, and holds the fresh labels fills add. After the build it
	// is only the set of names in use: the rows track branch targets.
	labels map[string]int
}

// row is one statement's facts.
type row struct {
	uses, defs regMask
	// target is the statement the control piece's label binds, or -1
	// when there is no label or it names no statement.
	target     int32
	ctrl       isa.PieceKind // kind of the control piece; PieceNop if none
	delay      int8          // the control piece's branch delay
	nop        bool          // a lone no-op
	labeled    bool
	noReorg    bool
	speculable bool // every piece is side-effect free
}

// flowRow is a statement's dataflow equation: live-in is its uses plus
// whatever is live into either successor and not defined here.
type flowRow struct {
	uses, defs regMask
	succ       [2]int32 // indices into liveness.in
}

// computeLiveness builds the table for a unit.
func computeLiveness(u *asm.Unit) *liveness {
	n, nlabels := len(u.Stmts), 0
	for i := range u.Stmts {
		nlabels += len(u.Stmts[i].Labels)
	}
	lv := &liveness{
		rows:   make([]row, n),
		flow:   make([]flowRow, n),
		in:     make([]regMask, n+2),
		all:    int32(n),
		none:   int32(n + 1),
		stale:  true,
		labels: make(map[string]int, nlabels),
	}
	lv.in[lv.all] = allRegs
	for i := range u.Stmts {
		for _, l := range u.Stmts[i].Labels {
			lv.labels[l] = i
		}
	}
	for i := range u.Stmts {
		lv.rows[i] = rowOf(&u.Stmts[i])
		if c := stmtControl(&u.Stmts[i]); c != nil {
			if t, ok := lv.labels[c.Label]; ok {
				lv.rows[i].target = int32(t)
			}
		}
	}
	lv.reflow(0, n)
	return lv
}

// rowOf computes a statement's facts, with no branch target.
func rowOf(s *asm.Stmt) row {
	r := row{
		uses:       stmtUses(s),
		defs:       stmtDefs(s),
		target:     -1,
		nop:        isNopStmt(s),
		labeled:    len(s.Labels) > 0,
		noReorg:    s.NoReorg,
		speculable: true,
	}
	for j := range s.Pieces {
		if !sideEffectFree(&s.Pieces[j]) {
			r.speculable = false
		}
	}
	if c := stmtControl(s); c != nil {
		r.ctrl, r.delay = c.Kind, int8(c.Delay())
		if c.Kind == isa.PieceCall || c.Kind == isa.PieceTrap {
			// The callee or monitor routine may read anything.
			r.uses = allRegs
		}
	}
	return r
}

// setRow recomputes row i from its statement, which holds no control
// piece that needs a target.
func (lv *liveness) setRow(u *asm.Unit, i int) {
	lv.rows[i] = rowOf(&u.Stmts[i])
	lv.reflow(i, i+3) // statements i+1 and i+2 read row i's delay
}

// retarget records that statement i's control piece now targets t.
func (lv *liveness) retarget(i, t int) {
	lv.rows[i].target = int32(t)
	lv.reflow(i+1, i+2) // the slot after i flows to the target
}

// addLabel records a fresh label bound to statement i.
func (lv *liveness) addLabel(name string, i int) {
	lv.labels[name] = i
	lv.rows[i].labeled = true
}

// deleteRow removes statement i, which no branch targets.
func (lv *liveness) deleteRow(i int) {
	lv.rows = append(lv.rows[:i], lv.rows[i+1:]...)
	lv.flow = append(lv.flow[:i], lv.flow[i+1:]...)
	for k := range lv.rows {
		if lv.rows[k].target > int32(i) {
			lv.rows[k].target--
		}
		f := &lv.flow[k]
		for j, s := range f.succ {
			if s > int32(i) && s < lv.all {
				f.succ[j]--
			}
		}
	}
	// Statements i and i+1 now follow different rows, and a new
	// statement may be last.
	lv.reflow(i, i+2)
	lv.reflow(len(lv.rows)-1, len(lv.rows))
}

// reflow recomputes the equations of statements lo..hi-1 (clipped to
// the unit) from the rows.
func (lv *liveness) reflow(lo, hi int) {
	rows := lv.rows
	n := len(rows)
	for i := max(lo, 0); i < min(hi, n); i++ {
		succ := [2]int32{int32(i + 1), lv.none}
		switch {
		case i == n-1:
			// The last statement precedes the end of the program.
			succ[0] = lv.all
		case i >= 2 && rows[i-2].delay == 2:
			// Two after an indirect jump: an unknown target.
			succ[0] = lv.all
		case rows[i].ctrl == isa.PieceSpecial:
			// Return from exception (the only control special).
			succ[0] = lv.all
		case i >= 1 && rows[i-1].delay == 1:
			// One after a delayed transfer: flows to the target (all
			// registers when it is not in the unit) and, for
			// conditional branches and calls, the fall-through.
			c := &rows[i-1]
			if c.ctrl == isa.PieceJump {
				succ[0] = lv.none
			}
			succ[1] = lv.all
			if c.target >= 0 {
				succ[1] = c.target
			}
		}
		lv.flow[i] = flowRow{uses: rows[i].uses, defs: rows[i].defs, succ: succ}
	}
	lv.stale = true
}

// liveAt returns the registers live immediately before statement i.
func (lv *liveness) liveAt(i int) regMask {
	if i < 0 || i >= len(lv.rows) {
		return allRegs
	}
	if lv.stale {
		lv.solve()
	}
	return lv.in[i]
}

// solve runs the backward dataflow from zero to its fixpoint, honoring
// delay-slot control flow: the statement after a branch always executes,
// and the transfer happens after it. Calls, traps, indirect jumps, and
// returns-from-exception are treated conservatively (all registers
// live).
func (lv *liveness) solve() {
	flow, in := lv.flow, lv.in
	n := len(flow)
	clear(in[:n])
	for pass := 0; pass < 4*n+8; pass++ {
		changed := false
		for i := n - 1; i >= 0; i-- {
			f := &flow[i]
			if v := f.uses | (in[f.succ[0]]|in[f.succ[1]])&^f.defs; v != in[i] {
				in[i] = v
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	lv.stale = false
}
