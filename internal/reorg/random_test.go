package reorg

import (
	"fmt"
	"math/rand"
	"testing"

	"mips/internal/asm"
	"mips/internal/cpu"
	"mips/internal/isa"
	"mips/internal/mem"
)

// randomBlock generates a random straight-line piece sequence: ALU
// operations, set-conditionally, loads, and stores over registers r1-r9
// and memory words 64-95. Sequential semantics are well defined for any
// such sequence, so the hardware-interlocked machine serves as the
// oracle for what the reorganized code must compute.
func randomBlock(r *rand.Rand, n int) []asm.Stmt {
	reg := func() isa.Reg { return isa.Reg(1 + r.Intn(9)) }
	operand := func() isa.Operand {
		if r.Intn(3) == 0 {
			return isa.Imm(int32(r.Intn(16)))
		}
		return isa.R(reg())
	}
	addr := func() int32 { return int32(64 + r.Intn(32)) }
	var out []asm.Stmt
	add := func(p isa.Piece) { out = append(out, asm.Stmt{Pieces: []isa.Piece{p}}) }
	for i := 0; i < n; i++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3:
			ops := []isa.ALUOp{isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpSll, isa.OpSrl}
			add(isa.ALU(ops[r.Intn(len(ops))], reg(), operand(), operand()))
		case 4:
			cmps := []isa.Cmp{isa.CmpEQ, isa.CmpLT, isa.CmpLTU, isa.CmpGE, isa.CmpNE}
			add(isa.SetCond(cmps[r.Intn(len(cmps))], reg(), operand(), operand()))
		case 5, 6:
			add(isa.LoadAbs(reg(), addr()))
		case 7, 8:
			add(isa.StoreAbs(reg(), addr()))
		case 9:
			add(isa.Mov(reg(), isa.Imm(int32(r.Intn(256)))))
		}
	}
	return out
}

// machineState executes a unit and returns the final registers and the
// shared memory window.
func machineState(t *testing.T, u *asm.Unit, interlocked bool) ([isa.NumRegs]uint32, [32]uint32, int) {
	t.Helper()
	im, err := asm.Assemble(u)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	phys := mem.NewPhysical(1 << 10)
	c := cpu.New(cpu.NewBus(phys))
	c.Interlocked = interlocked
	c.SetTrapHook(func(code uint16) { c.Halt() })
	// Deterministic nonzero initial memory.
	for i := uint32(64); i < 96; i++ {
		phys.Poke(i, i*3+1)
	}
	hazards := 0
	c.SetAudit(func(cpu.Hazard) { hazards++ })
	if err := c.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(10_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	var memWin [32]uint32
	for i := range memWin {
		memWin[i] = phys.Peek(uint32(64 + i))
	}
	return c.Regs, memWin, hazards
}

// TestScheduleRandomBlocks: for hundreds of random straight-line
// blocks, the reorganized program on the raw no-interlock machine must
// compute exactly what the original order computes under sequential
// semantics — same registers, same memory — with zero hazards.
func TestScheduleRandomBlocks(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 50
	}
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < trials; trial++ {
		stmts := randomBlock(r, 4+r.Intn(24))
		trap := isa.Trap(0)
		stmts = append(stmts, asm.Stmt{Pieces: []isa.Piece{trap}})

		// Oracle: original order on the interlocked machine.
		oracle := &asm.Unit{Stmts: append([]asm.Stmt(nil), stmts...)}
		wantRegs, wantMem, _ := machineState(t, oracle, true)

		for _, opt := range []Options{{}, {Reorganize: true}, {Reorganize: true, Pack: true}, All()} {
			in := &asm.Unit{Stmts: append([]asm.Stmt(nil), stmts...)}
			ro, _ := Reorganize(in, opt)
			gotRegs, gotMem, hazards := machineState(t, ro, false)
			if hazards != 0 {
				t.Fatalf("trial %d opts %+v: %d hazards\n%s", trial, opt, hazards, dump(ro))
			}
			// r13-r15 are scratch/sp/link conventions the random blocks
			// never touch; compare the working registers and memory.
			for reg := 1; reg <= 9; reg++ {
				if gotRegs[reg] != wantRegs[reg] {
					t.Fatalf("trial %d opts %+v: r%d = %d, want %d\n%s",
						trial, opt, reg, gotRegs[reg], wantRegs[reg], dump(ro))
				}
			}
			if gotMem != wantMem {
				t.Fatalf("trial %d opts %+v: memory mismatch\n%s", trial, opt, dump(ro))
			}
		}
	}
}

// loopCounter is the register randomProgram reserves for counted loops;
// the random blocks never touch it.
const loopCounter isa.Reg = 10

// randomProgram generates a random multi-block program in sequential
// semantics: straight-line blocks joined by forward conditional
// branches, counted backward loops (not nested: one counter register),
// and unconditional jumps over dead blocks. Every path terminates, so
// the program ends at the final trap.
func randomProgram(r *rand.Rand) []asm.Stmt {
	var out []asm.Stmt
	labels := 0
	newLabel := func() string { labels++; return fmt.Sprintf("L%d", labels) }
	var pending []string // labels binding to the next statement
	add := func(p isa.Piece) {
		out = append(out, asm.Stmt{Labels: pending, Pieces: []isa.Piece{p}})
		pending = nil
	}
	block := func() {
		for _, s := range randomBlock(r, 1+r.Intn(8)) {
			add(s.Pieces[0])
		}
	}
	reg := func() isa.Reg { return isa.Reg(1 + r.Intn(9)) }
	cmps := []isa.Cmp{isa.CmpEQ, isa.CmpNE, isa.CmpLT, isa.CmpGE, isa.CmpLTU}

	for seg := 2 + r.Intn(5); seg > 0; seg-- {
		switch r.Intn(4) {
		case 0:
			block()
		case 1: // forward conditional branch around a block
			skip := newLabel()
			add(isa.Branch(cmps[r.Intn(len(cmps))], isa.R(reg()), isa.R(reg()), skip))
			block()
			pending = append(pending, skip)
		case 2: // counted backward loop
			head := newLabel()
			add(isa.Mov(loopCounter, isa.Imm(int32(1+r.Intn(4)))))
			pending = append(pending, head)
			block()
			add(isa.ALU(isa.OpSub, loopCounter, isa.R(loopCounter), isa.Imm(1)))
			add(isa.Branch(isa.CmpNE, isa.R(loopCounter), isa.Imm(0), head))
		case 3: // unconditional jump over a dead block
			over := newLabel()
			add(isa.Jump(over))
			block()
			pending = append(pending, over)
		}
	}
	add(isa.Trap(0))
	return out
}

// cloneStmts copies the statements and their pieces: the assembler
// resolves labels in place, so units under test must not share pieces.
func cloneStmts(stmts []asm.Stmt) []asm.Stmt {
	out := make([]asm.Stmt, len(stmts))
	for i, s := range stmts {
		s.Pieces = append([]isa.Piece(nil), s.Pieces...)
		out[i] = s
	}
	return out
}

// withDelaySlots returns the program with a no-op after every delayed
// control transfer: the same computation in the pipeline's own
// semantics, unscheduled.
func withDelaySlots(stmts []asm.Stmt) []asm.Stmt {
	var out []asm.Stmt
	for _, s := range cloneStmts(stmts) {
		out = append(out, s)
		if c := stmtControl(&s); c != nil {
			for i := 0; i < c.Delay(); i++ {
				out = append(out, nopStmt())
			}
		}
	}
	return out
}

func nopStmt() asm.Stmt { return asm.Stmt{Pieces: []isa.Piece{isa.Nop()}} }

// TestScheduleRandomPrograms: for hundreds of random multi-block
// programs, which exercise liveness across branches and the cross-block
// delay schemes, the reorganized program on the raw no-interlock
// machine must compute exactly what the original computes in order on
// the interlocked machine — same registers, same memory — with zero
// hazards.
func TestScheduleRandomPrograms(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 50
	}
	r := rand.New(rand.NewSource(7))
	filled := Stats{}
	for trial := 0; trial < trials; trial++ {
		stmts := randomProgram(r)
		oracle := &asm.Unit{Stmts: withDelaySlots(stmts)}
		wantRegs, wantMem, _ := machineState(t, oracle, true)

		for _, opt := range []Options{{}, {Reorganize: true}, {Reorganize: true, Pack: true}, All()} {
			ro, st := Reorganize(&asm.Unit{Stmts: cloneStmts(stmts)}, opt)
			filled.SchemeLoop += st.SchemeLoop
			filled.SchemeHoist += st.SchemeHoist
			gotRegs, gotMem, hazards := machineState(t, ro, false)
			if hazards != 0 {
				t.Fatalf("trial %d opts %+v: %d hazards\n%s", trial, opt, hazards, dump(ro))
			}
			for reg := 1; reg <= int(loopCounter); reg++ {
				if gotRegs[reg] != wantRegs[reg] {
					t.Fatalf("trial %d opts %+v: r%d = %d, want %d\nin:\n%s\nout:\n%s",
						trial, opt, reg, gotRegs[reg], wantRegs[reg], dump(oracle), dump(ro))
				}
			}
			if gotMem != wantMem {
				t.Fatalf("trial %d opts %+v: memory mismatch\nin:\n%s\nout:\n%s", trial, opt, dump(oracle), dump(ro))
			}
		}
	}
	// The generator must reach the cross-block schemes it exists to test.
	if filled.SchemeLoop == 0 || filled.SchemeHoist == 0 {
		t.Errorf("schemes 2/3 never fired: %+v", filled)
	}
}
