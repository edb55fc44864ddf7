package isa

import (
	"fmt"
	"strings"
)

// PieceKind classifies an instruction piece. The MIPS compiler emits one
// piece per operation; the reorganizer packs compatible pieces into
// 32-bit instruction words (paper §4.2.1: "It packs instruction pieces
// into one 32-bit word").
type PieceKind uint8

const (
	// PieceNop is an explicit pipeline bubble inserted by the reorganizer
	// when no legal instruction can be scheduled.
	PieceNop PieceKind = iota
	// PieceALU is a three-operand register/constant ALU operation.
	PieceALU
	// PieceSetCond performs one of the sixteen comparisons and writes 0
	// or 1 to the destination register (paper §2.3.2: "a powerful Set
	// Conditionally instruction").
	PieceSetCond
	// PieceLoad and PieceStore are the only memory-referencing pieces;
	// the machine is a strict load/store architecture.
	PieceLoad
	PieceStore
	// PieceBranch is compare-and-branch: one of the sixteen comparisons
	// between two operands, with a PC-relative target and a one
	// instruction branch delay.
	PieceBranch
	// PieceJump is a direct unconditional jump (delay one).
	PieceJump
	// PieceCall is jump-and-link: saves the return address (the address
	// after the delay slot) in the link register, then jumps (delay one).
	PieceCall
	// PieceJumpInd is an indirect jump through a register, with a branch
	// delay of two (paper §3.3).
	PieceJumpInd
	// PieceTrap is a software trap carrying a 12-bit monitor-call code.
	PieceTrap
	// PieceSpecial reads or writes a special register, or returns from
	// exception. All special operations except byte-selector access
	// require supervisor privilege.
	PieceSpecial

	numPieceKinds
)

var pieceKindNames = [numPieceKinds]string{
	"nop", "alu", "setcond", "load", "store",
	"branch", "jump", "call", "jumpind", "trap", "special",
}

func (k PieceKind) String() string {
	if k < numPieceKinds {
		return pieceKindNames[k]
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// ALUOp enumerates the ALU operations. The set is deliberately small and
// regular; "reverse" operators let four-bit constants stand in for small
// negative constants without sign-extension hardware (paper §2.2: "MIPS
// uses the latter approach").
type ALUOp uint8

const (
	OpAdd   ALUOp = iota // dst = s1 + s2
	OpSub                // dst = s1 - s2
	OpRSub               // dst = s2 - s1 (reverse subtract)
	OpAnd                // dst = s1 AND s2
	OpOr                 // dst = s1 OR s2
	OpXor                // dst = s1 XOR s2
	OpBic                // dst = s1 AND NOT s2 (bit clear)
	OpSll                // dst = s1 << s2 (logical)
	OpSrl                // dst = s1 >> s2 (logical)
	OpSra                // dst = s1 >> s2 (arithmetic)
	OpRSll               // dst = s2 << s1 (reverse shift left)
	OpRSrl               // dst = s2 >> s1 (reverse logical shift)
	OpRSra               // dst = s2 >> s1 (reverse arithmetic shift)
	OpMov                // dst = s1 (register move or 8-bit move immediate)
	OpNot                // dst = NOT s1
	OpNeg                // dst = -s1
	OpXC                 // extract byte: dst = byte (s1 mod 4) of s2, zero extended
	OpIC                 // insert byte: dst = s2 with byte (lo mod 4) replaced by low byte of s1
	OpMovLo              // byte selector load: lo = s1 (special-register write usable at user level)
	OpMStep              // multiply step (one bit of a shift-and-add multiply)
	OpDStep              // divide step (one bit of a restoring divide)

	NumALUOps
)

var aluOpNames = [NumALUOps]string{
	"add", "sub", "rsub", "and", "or", "xor", "bic",
	"sll", "srl", "sra", "rsll", "rsrl", "rsra",
	"mov", "not", "neg", "xc", "ic", "movlo", "mstep", "dstep",
}

func (op ALUOp) String() string {
	if op < NumALUOps {
		return aluOpNames[op]
	}
	return fmt.Sprintf("op%d", uint8(op))
}

// ParseALUOp returns the ALU operation with the given mnemonic.
func ParseALUOp(s string) (ALUOp, bool) {
	for i, n := range aluOpNames {
		if n == s {
			return ALUOp(i), true
		}
	}
	return 0, false
}

// Unary reports whether the operation reads only its first source.
func (op ALUOp) Unary() bool {
	switch op {
	case OpMov, OpNot, OpNeg, OpMovLo:
		return true
	}
	return false
}

// SetsOverflow reports whether the operation can raise the arithmetic
// overflow trap when overflow detection is enabled in the surprise
// register (paper §2.3.3: "MIPS traps if overflow detection is enabled").
func (op ALUOp) SetsOverflow() bool {
	switch op {
	case OpAdd, OpSub, OpRSub, OpNeg:
		return true
	}
	return false
}

// AddrMode enumerates the five load/store addressing modes (paper §2.2:
// "long immediate, absolute, displacement(base), (base index), and base
// shifted by n").
type AddrMode uint8

const (
	// AModeLongImm loads a full 32-bit constant from the instruction
	// stream. It is the compiler's escape hatch for the ~5% of constants
	// above 255 (Table 1) and for link-time addresses.
	AModeLongImm AddrMode = iota
	// AModeAbs addresses a fixed word.
	AModeAbs
	// AModeDisp addresses displacement(base).
	AModeDisp
	// AModeIndex addresses (base + index).
	AModeIndex
	// AModeShift addresses base + (index >> shift): the packed-array
	// mode. For packed byte arrays shift is 2 (four bytes per word), so
	// "ld (r0>>2),r1" fetches the word containing byte r0 of an array at
	// location zero.
	AModeShift

	numAddrModes
)

var addrModeNames = [numAddrModes]string{"longimm", "abs", "disp", "index", "shift"}

func (m AddrMode) String() string {
	if m < numAddrModes {
		return addrModeNames[m]
	}
	return fmt.Sprintf("mode%d", uint8(m))
}

// SpecialOp enumerates the special-register piece operations.
type SpecialOp uint8

const (
	// SpecRead copies a special register into a general register.
	SpecRead SpecialOp = iota
	// SpecWrite copies a general register into a special register.
	SpecWrite
	// SpecRFE returns from exception: restores the previous privilege
	// level and mapping enables from the surprise register and resumes at
	// the saved return addresses.
	SpecRFE
)

func (op SpecialOp) String() string {
	switch op {
	case SpecRead:
		return "rdspec"
	case SpecWrite:
		return "wrspec"
	case SpecRFE:
		return "rfe"
	}
	return fmt.Sprintf("specop%d", uint8(op))
}

// Operand is a register or small-constant source field. Every operation
// may optionally contain a four-bit constant (0-15) in place of a
// register field; the move-immediate form of OpMov carries an eight-bit
// constant (paper §2.2).
type Operand struct {
	IsImm bool
	Reg   Reg
	Imm   int32
}

// R makes a register operand.
func R(r Reg) Operand { return Operand{Reg: r} }

// Imm makes a constant operand.
func Imm(v int32) Operand { return Operand{IsImm: true, Imm: v} }

func (o Operand) String() string {
	if o.IsImm {
		return fmt.Sprintf("#%d", o.Imm)
	}
	return o.Reg.String()
}

// FitsPacked reports whether the operand fits the four-bit constant field
// available when the piece shares an instruction word.
func (o Operand) FitsPacked() bool { return !o.IsImm || (o.Imm >= 0 && o.Imm <= Imm4Max) }

// Piece is a single instruction piece: the unit the compiler emits, the
// reorganizer schedules, and the packer merges into instruction words.
// The zero value is a no-op.
type Piece struct {
	Kind PieceKind

	// ALU / SetCond fields.
	Op   ALUOp
	Dst  Reg
	Src1 Operand
	Src2 Operand

	// Comparison code for SetCond and Branch.
	Cmp Cmp

	// Memory fields (Load/Store). Data is the register loaded or stored.
	Mode  AddrMode
	Data  Reg
	Base  Reg
	Index Reg
	Shift uint8
	Disp  int32 // displacement, absolute address, or long immediate value

	// Control-flow fields. Target is a word address after assembly;
	// Label carries the symbolic target before the assembler resolves it.
	Target int32
	Label  string

	// Trap and special-register fields.
	TrapCode uint16
	SpecOp   SpecialOp
	SpecReg  SpecialReg
}

// Nop returns a no-op piece.
func Nop() Piece { return Piece{Kind: PieceNop} }

// ALU builds a three-operand ALU piece.
func ALU(op ALUOp, dst Reg, s1, s2 Operand) Piece {
	return Piece{Kind: PieceALU, Op: op, Dst: dst, Src1: s1, Src2: s2}
}

// Mov builds a register-to-register or immediate move. An immediate move
// must fit in eight bits; larger constants need a long-immediate load.
func Mov(dst Reg, src Operand) Piece {
	return Piece{Kind: PieceALU, Op: OpMov, Dst: dst, Src1: src}
}

// SetCond builds a set-conditionally piece: dst = cmp(s1, s2) ? 1 : 0.
func SetCond(cmp Cmp, dst Reg, s1, s2 Operand) Piece {
	return Piece{Kind: PieceSetCond, Cmp: cmp, Dst: dst, Src1: s1, Src2: s2}
}

// LoadDisp builds a displacement(base) load.
func LoadDisp(data, base Reg, disp int32) Piece {
	return Piece{Kind: PieceLoad, Mode: AModeDisp, Data: data, Base: base, Disp: disp}
}

// StoreDisp builds a displacement(base) store.
func StoreDisp(data, base Reg, disp int32) Piece {
	return Piece{Kind: PieceStore, Mode: AModeDisp, Data: data, Base: base, Disp: disp}
}

// LoadAbs builds an absolute-address load.
func LoadAbs(data Reg, addr int32) Piece {
	return Piece{Kind: PieceLoad, Mode: AModeAbs, Data: data, Disp: addr}
}

// StoreAbs builds an absolute-address store.
func StoreAbs(data Reg, addr int32) Piece {
	return Piece{Kind: PieceStore, Mode: AModeAbs, Data: data, Disp: addr}
}

// LoadIndex builds a (base+index) load.
func LoadIndex(data, base, index Reg) Piece {
	return Piece{Kind: PieceLoad, Mode: AModeIndex, Data: data, Base: base, Index: index}
}

// StoreIndex builds a (base+index) store.
func StoreIndex(data, base, index Reg) Piece {
	return Piece{Kind: PieceStore, Mode: AModeIndex, Data: data, Base: base, Index: index}
}

// LoadShift builds a base+(index>>shift) load, the packed-array mode.
func LoadShift(data, base, index Reg, shift uint8) Piece {
	return Piece{Kind: PieceLoad, Mode: AModeShift, Data: data, Base: base, Index: index, Shift: shift}
}

// StoreShift builds a base+(index>>shift) store.
func StoreShift(data, base, index Reg, shift uint8) Piece {
	return Piece{Kind: PieceStore, Mode: AModeShift, Data: data, Base: base, Index: index, Shift: shift}
}

// LoadImm32 builds a long-immediate load: data = value.
func LoadImm32(data Reg, value int32) Piece {
	return Piece{Kind: PieceLoad, Mode: AModeLongImm, Data: data, Disp: value}
}

// Branch builds a compare-and-branch piece with a symbolic target.
func Branch(cmp Cmp, s1, s2 Operand, label string) Piece {
	return Piece{Kind: PieceBranch, Cmp: cmp, Src1: s1, Src2: s2, Label: label}
}

// Jump builds a direct jump to a symbolic target.
func Jump(label string) Piece { return Piece{Kind: PieceJump, Label: label} }

// Call builds a jump-and-link to a symbolic target, saving the return
// address in link.
func Call(label string, link Reg) Piece {
	return Piece{Kind: PieceCall, Label: label, Dst: link}
}

// JumpInd builds an indirect jump through a register (branch delay two).
func JumpInd(r Reg) Piece { return Piece{Kind: PieceJumpInd, Src1: R(r)} }

// Trap builds a software trap with the given 12-bit monitor-call code.
func Trap(code uint16) Piece { return Piece{Kind: PieceTrap, TrapCode: code & MaxTrapCode} }

// ReadSpecial builds a special-register read into dst.
func ReadSpecial(dst Reg, s SpecialReg) Piece {
	return Piece{Kind: PieceSpecial, SpecOp: SpecRead, Dst: dst, SpecReg: s}
}

// WriteSpecial builds a special-register write from src.
func WriteSpecial(s SpecialReg, src Reg) Piece {
	return Piece{Kind: PieceSpecial, SpecOp: SpecWrite, SpecReg: s, Src1: R(src)}
}

// RFE builds a return-from-exception piece.
func RFE() Piece { return Piece{Kind: PieceSpecial, SpecOp: SpecRFE} }

// IsNop reports whether the piece is a no-op.
func (p *Piece) IsNop() bool { return p.Kind == PieceNop }

// IsMem reports whether the piece references data memory.
func (p *Piece) IsMem() bool { return p.Kind == PieceLoad || p.Kind == PieceStore }

// IsControl reports whether the piece transfers control.
func (p *Piece) IsControl() bool {
	switch p.Kind {
	case PieceBranch, PieceJump, PieceCall, PieceJumpInd, PieceTrap:
		return true
	case PieceSpecial:
		return p.SpecOp == SpecRFE
	}
	return false
}

// Delay returns the branch delay of a control-flow piece: the number of
// following instructions that execute before control transfers.
func (p *Piece) Delay() int {
	switch p.Kind {
	case PieceBranch, PieceJump, PieceCall:
		return BranchDelay
	case PieceJumpInd:
		return IndirectJumpDelay
	}
	return 0
}

// Privileged reports whether executing the piece requires supervisor
// privilege (paper §3.2: "The only instructions that require supervisor
// privilege are those that read and write the surprise register and the
// on-chip segmentation registers").
func (p *Piece) Privileged() bool {
	if p.Kind != PieceSpecial {
		return false
	}
	return p.SpecOp == SpecRFE || p.SpecReg.Privileged()
}

// Defs returns the general register written by the piece, if any.
func (p *Piece) Defs() (Reg, bool) {
	switch p.Kind {
	case PieceALU:
		if p.Op == OpMovLo {
			return 0, false
		}
		return p.Dst, true
	case PieceSetCond:
		return p.Dst, true
	case PieceLoad:
		return p.Data, true
	case PieceCall:
		return p.Dst, true
	case PieceSpecial:
		if p.SpecOp == SpecRead {
			return p.Dst, true
		}
	}
	return 0, false
}

// MaxUses is the most general registers one piece reads (an indexed
// store: base, index and data), so a [MaxUses]Reg buffer holds any
// Uses result without allocating.
const MaxUses = 3

// Uses appends the general registers read by the piece to dst and
// returns the extended slice.
func (p *Piece) Uses(dst []Reg) []Reg {
	addOp := func(o Operand) {
		if !o.IsImm {
			dst = append(dst, o.Reg)
		}
	}
	switch p.Kind {
	case PieceALU:
		// Insert byte additionally reads the byte selector; that
		// dependency is surfaced by ReadsLo, not as a general register.
		addOp(p.Src1)
		if !p.Op.Unary() {
			addOp(p.Src2)
		}
	case PieceSetCond, PieceBranch:
		addOp(p.Src1)
		switch p.Cmp {
		case CmpEQ0, CmpNE0, CmpAlw, CmpNev:
			// unary or trivial comparisons read only the first operand
		default:
			addOp(p.Src2)
		}
	case PieceLoad, PieceStore:
		switch p.Mode {
		case AModeDisp:
			dst = append(dst, p.Base)
		case AModeIndex, AModeShift:
			dst = append(dst, p.Base, p.Index)
		}
		if p.Kind == PieceStore {
			dst = append(dst, p.Data)
		}
	case PieceJumpInd:
		addOp(p.Src1)
	case PieceSpecial:
		if p.SpecOp == SpecWrite {
			addOp(p.Src1)
		}
	}
	return dst
}

// ReadsLo reports whether the piece reads the byte-selector register.
func (p *Piece) ReadsLo() bool { return p.Kind == PieceALU && p.Op == OpIC }

// WritesLo reports whether the piece writes the byte-selector register.
func (p *Piece) WritesLo() bool { return p.Kind == PieceALU && p.Op == OpMovLo }

// String renders the piece in the assembly dialect accepted by package asm.
func (p *Piece) String() string {
	switch p.Kind {
	case PieceNop:
		return "nop"
	case PieceALU:
		switch {
		case p.Op == OpMovLo:
			return fmt.Sprintf("movlo %s", p.Src1)
		case p.Op.Unary():
			return fmt.Sprintf("%s %s, %s", p.Op, p.Src1, p.Dst)
		default:
			return fmt.Sprintf("%s %s, %s, %s", p.Op, p.Src1, p.Src2, p.Dst)
		}
	case PieceSetCond:
		return fmt.Sprintf("set%s %s, %s, %s", p.Cmp, p.Src1, p.Src2, p.Dst)
	case PieceLoad, PieceStore:
		mn := "ld"
		if p.Kind == PieceStore {
			mn = "st"
		}
		ea := ""
		switch p.Mode {
		case AModeLongImm:
			return fmt.Sprintf("ldi #%d, %s", p.Disp, p.Data)
		case AModeAbs:
			ea = fmt.Sprintf("@%d", p.Disp)
		case AModeDisp:
			ea = fmt.Sprintf("%d(%s)", p.Disp, p.Base)
		case AModeIndex:
			ea = fmt.Sprintf("(%s+%s)", p.Base, p.Index)
		case AModeShift:
			ea = fmt.Sprintf("(%s+%s>>%d)", p.Base, p.Index, p.Shift)
		}
		if p.Kind == PieceLoad {
			return fmt.Sprintf("%s %s, %s", mn, ea, p.Data)
		}
		return fmt.Sprintf("%s %s, %s", mn, p.Data, ea)
	case PieceBranch:
		return fmt.Sprintf("b%s %s, %s, %s", p.Cmp, p.Src1, p.Src2, p.target())
	case PieceJump:
		return fmt.Sprintf("jmp %s", p.target())
	case PieceCall:
		return fmt.Sprintf("call %s, %s", p.target(), p.Dst)
	case PieceJumpInd:
		return fmt.Sprintf("jmpr %s", p.Src1)
	case PieceTrap:
		return fmt.Sprintf("trap #%d", p.TrapCode)
	case PieceSpecial:
		switch p.SpecOp {
		case SpecRead:
			return fmt.Sprintf("rdspec %s, %s", p.SpecReg, p.Dst)
		case SpecWrite:
			return fmt.Sprintf("wrspec %s, %s", p.Src1, p.SpecReg)
		case SpecRFE:
			return "rfe"
		}
	}
	return "?"
}

func (p *Piece) target() string {
	if p.Label != "" {
		return p.Label
	}
	return fmt.Sprintf("@%d", p.Target)
}

// Validate checks structural invariants of the piece and returns a
// descriptive error for the first violation found.
func (p *Piece) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...))
	}
	checkOp := func(o Operand, max int32) error {
		if o.IsImm {
			if o.Imm < 0 || o.Imm > max {
				return bad("immediate %d out of range 0..%d", o.Imm, max)
			}
		} else if !o.Reg.Valid() {
			return bad("invalid register %d", o.Reg)
		}
		return nil
	}
	switch p.Kind {
	case PieceNop:
		return nil
	case PieceALU:
		if p.Op >= NumALUOps {
			return bad("unknown ALU op")
		}
		max := int32(Imm4Max)
		if p.Op == OpMov {
			max = Imm8Max
		}
		if err := checkOp(p.Src1, max); err != nil {
			return err
		}
		if !p.Op.Unary() {
			if err := checkOp(p.Src2, int32(Imm4Max)); err != nil {
				return err
			}
		}
		if p.Op != OpMovLo && !p.Dst.Valid() {
			return bad("invalid destination")
		}
	case PieceSetCond, PieceBranch:
		if !p.Cmp.Valid() {
			return bad("unknown comparison")
		}
		if err := checkOp(p.Src1, Imm4Max); err != nil {
			return err
		}
		if err := checkOp(p.Src2, Imm4Max); err != nil {
			return err
		}
		if p.Kind == PieceSetCond && !p.Dst.Valid() {
			return bad("invalid destination")
		}
	case PieceLoad, PieceStore:
		if p.Mode >= numAddrModes {
			return bad("unknown addressing mode")
		}
		if !p.Data.Valid() {
			return bad("invalid data register")
		}
		if p.Kind == PieceStore && p.Mode == AModeLongImm {
			return bad("long-immediate mode is load-only")
		}
		switch p.Mode {
		case AModeDisp:
			if !p.Base.Valid() {
				return bad("invalid base register")
			}
		case AModeIndex, AModeShift:
			if !p.Base.Valid() || !p.Index.Valid() {
				return bad("invalid base or index register")
			}
			if p.Mode == AModeShift && p.Shift > 5 {
				return bad("shift %d out of range 0..5", p.Shift)
			}
		}
	case PieceJump, PieceCall:
		if p.Kind == PieceCall && !p.Dst.Valid() {
			return bad("invalid link register")
		}
	case PieceJumpInd:
		if err := checkOp(p.Src1, 0); err != nil {
			return err
		}
		if p.Src1.IsImm {
			return bad("indirect jump needs a register")
		}
	case PieceTrap:
		if p.TrapCode > MaxTrapCode {
			return bad("trap code out of range")
		}
	case PieceSpecial:
		if p.SpecOp != SpecRFE && p.SpecReg >= NumSpecialRegs {
			return bad("unknown special register")
		}
	default:
		return bad("unknown piece kind")
	}
	return nil
}

// FormatPieces renders a sequence of pieces one per line, for golden
// tests and the cmd tools.
func FormatPieces(ps []Piece) string {
	var b strings.Builder
	for i := range ps {
		b.WriteString(ps[i].String())
		b.WriteByte('\n')
	}
	return b.String()
}
