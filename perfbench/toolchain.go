package main

import (
	"fmt"
	"math/rand"
	"time"

	"mips/internal/asm"
	"mips/internal/codegen"
	"mips/internal/corpus"
	"mips/internal/isa"
	"mips/internal/lang"
	"mips/internal/reorg"
	"mips/internal/sim"
)

// maxSteps bounds every run; each corpus program halts far below it.
const maxSteps = 500_000_000

// variant is one compilation of a program: the paper's word or byte
// allocation (Tables 7-10), with or without set-conditional (Tables 5
// and 6).
type variant struct {
	mode      lang.AllocMode
	noSetCond bool
}

// variants are the four compilations the paper_path workload draws.
var variants = []variant{
	{lang.WordAlloc, false}, {lang.WordAlloc, true},
	{lang.ByteAlloc, false}, {lang.ByteAlloc, true},
}

func (v variant) String() string {
	s := "word"
	if v.mode == lang.ByteAlloc {
		s = "byte"
	}
	if v.noSetCond {
		return s + "-nosc"
	}
	return s + "-sc"
}

// stamper times the consecutive calls of one op: each mark ends the
// stage that began at the previous mark and records it as a span under
// the op's root span. With a nil tracer it only measures.
type stamper struct {
	tr    *tracer
	op    int
	root  int
	start time.Time
	last  time.Time
}

// newStamper starts an op named name now.
func newStamper(tr *tracer, op int, name string) *stamper {
	now := time.Now()
	return &stamper{tr: tr, op: op, root: tr.add(name, op, -1, now, now), start: now, last: now}
}

// mark ends the current stage and returns its duration.
func (s *stamper) mark(name string) time.Duration {
	now := time.Now()
	s.tr.add(name, s.op, s.root, s.last, now)
	d := now.Sub(s.last)
	s.last = now
	return d
}

// finish ends the op's root span and returns its whole duration.
func (s *stamper) finish() time.Duration {
	now := time.Now()
	s.tr.end(s.root, now)
	return now.Sub(s.start)
}

// compile runs the tool chain a call at a time, exactly as
// codegen.CompileMIPS composes it, so that each layer's call is timed
// on its own: parse, generate naive pieces, reorganize, assemble.
func compile(src string, mopt codegen.MIPSOptions, st *stamper) (*isa.Image, reorg.Stats, error) {
	prog, err := lang.Parse(src)
	st.mark("lang.Parse")
	if err != nil {
		return nil, reorg.Stats{}, err
	}
	unit, err := codegen.GenMIPS(prog, mopt)
	st.mark("codegen.GenMIPS")
	if err != nil {
		return nil, reorg.Stats{}, err
	}
	ro, rs := reorg.Reorganize(unit, reorg.All())
	st.mark("reorg.Reorganize")
	im, err := asm.Assemble(ro)
	st.mark("asm.Assemble")
	if err != nil {
		return nil, rs, fmt.Errorf("assemble: %w", err)
	}
	return im, rs, nil
}

func mipsOptions(v variant) codegen.MIPSOptions {
	return codegen.MIPSOptions{Mode: v.mode, NoSetCond: v.noSetCond}
}

// want is an op's oracle: the Pasqual interpreter's output and the
// reference engine's simulated cycles and instructions for the same
// program and variant.
type want struct {
	output string
	cycles uint64
	instrs uint64
}

// interpOutput is the compiler's oracle: the program's output under
// lang.Interp.
func interpOutput(p corpus.Program, mode lang.AllocMode) (string, error) {
	prog, err := lang.Parse(p.Source)
	if err != nil {
		return "", fmt.Errorf("%s: %w", p.Name, err)
	}
	ip := &lang.Interp{Mode: mode}
	out, err := ip.Run(prog)
	if err != nil {
		return "", fmt.Errorf("%s: interpreter: %w", p.Name, err)
	}
	return out, nil
}

// runToHalt runs a machine to its halt and returns the cycles and
// instructions it simulated.
func runToHalt(m *sim.Machine) (cycles, instrs uint64, err error) {
	m.Boot()
	c0, i0 := m.Stats().Cycles, m.Stats().Instructions
	if _, err := m.Run(maxSteps); err != nil {
		return 0, 0, err
	}
	if !m.Halted() {
		return 0, 0, fmt.Errorf("no halt within %d steps", maxSteps)
	}
	return m.Stats().Cycles - c0, m.Stats().Instructions - i0, nil
}

// oracle runs the machine build returns on the reference engine and
// checks that it agrees with the interpreter's output, so that every
// later op is compared with two oracles that agree with each other.
func oracle(name string, interp string, build func() (*sim.Machine, error)) (want, error) {
	m, err := build()
	if err != nil {
		return want{}, fmt.Errorf("%s: reference build: %w", name, err)
	}
	cycles, instrs, err := runToHalt(m)
	if err != nil {
		return want{}, fmt.Errorf("%s: reference run: %w", name, err)
	}
	if m.Output() != interp {
		return want{}, fmt.Errorf("%s: reference engine printed %q, interpreter %q", name, m.Output(), interp)
	}
	return want{output: interp, cycles: cycles, instrs: instrs}, nil
}

// rounds deals case indices in seeded rounds, each a fresh permutation
// of all n cases: whatever the seed, a run of whole rounds has the same
// mix, so the seed moves the order and not the work.
type rounds struct {
	rng   *rand.Rand
	perm  []int
	pos   int
	round int
}

func newRounds(seed int64, n int) *rounds {
	return &rounds{rng: rand.New(rand.NewSource(seed)), pos: n, round: -1, perm: make([]int, n)}
}

// next returns the next case index and the round it belongs to.
func (r *rounds) next() (idx, round int) {
	if r.pos == len(r.perm) {
		copy(r.perm, r.rng.Perm(len(r.perm)))
		r.pos = 0
		r.round++
	}
	r.pos++
	return r.perm[r.pos-1], r.round
}
