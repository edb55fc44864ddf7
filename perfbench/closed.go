package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"mips/internal/corpus"
	"mips/internal/cpu"
	"mips/internal/isa"
	"mips/internal/reorg"
	"mips/internal/sim"
)

// The two closed-loop workloads: one goroutine issues the next op as
// soon as the previous one returns.
//
// paper_path runs the whole path every paper table takes, from Pasqual
// source to a halted machine, over every corpus program and variant.
// long_runs runs only the machine, on images compiled at set-up, over
// the five longest programs: the engine's steady state does nearly all
// the work and the tool chain none.

// closedCase is one (program, variant) a closed loop deals.
type closedCase struct {
	prog corpus.Program
	v    variant
	im   *isa.Image // compiled at set-up
	want want
}

func (c *closedCase) String() string { return c.prog.Name + "/" + c.v.String() }

func runPaperPath(cfg config) (*outcome, error) {
	var cases []*closedCase
	for _, p := range corpus.All() {
		for _, v := range variants {
			cases = append(cases, &closedCase{prog: p, v: v})
		}
	}
	return closedLoop(cfg, cases, true)
}

// longRunPrograms are the five longest-running corpus programs, 42K to
// 505K simulated instructions each.
var longRunPrograms = []string{"queens", "sort", "matrix", "netcheck", "fib"}

func runLongRuns(cfg config) (*outcome, error) {
	var cases []*closedCase
	for _, name := range longRunPrograms {
		p, err := corpus.Get(name)
		if err != nil {
			return nil, err
		}
		cases = append(cases, &closedCase{prog: p, v: variants[0]})
	}
	return closedLoop(cfg, cases, false)
}

// closedOp is what one op measured.
type closedOp struct {
	round  int
	traced bool
	dur    time.Duration
	run    time.Duration // inside sim.Machine.Run
	instrs uint64
	cycles uint64
	rs     reorg.Stats
	trans  cpu.TranslationStats
	err    error
}

// closedLoop compiles every case at set-up, computes the oracles, then
// deals ops for the window. With compileInOp each op starts from the
// Pasqual source; otherwise from the set-up image.
func closedLoop(cfg config, cases []*closedCase, compileInOp bool) (*outcome, error) {
	setup, release, err := timeSetup(func() (func(), error) {
		for _, c := range cases {
			im, _, err := compile(c.prog.Source, mipsOptions(c.v), newStamper(nil, -1, ""))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c, err)
			}
			c.im = im
		}
		return func() {}, nil
	})
	if err != nil {
		return nil, err
	}
	defer release()

	// Oracles, outside set-up and outside the window.
	for _, c := range cases {
		out, err := interpOutput(c.prog, c.v.mode)
		if err != nil {
			return nil, err
		}
		im := c.im
		c.want, err = oracle(c.String(), out, func() (*sim.Machine, error) {
			m, err := sim.New(sim.WithEngine(sim.Reference))
			if err != nil {
				return nil, err
			}
			return m, m.Load(im)
		})
		if err != nil {
			return nil, err
		}
	}

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	deal := newRounds(cfg.seed, len(cases))
	var ops []closedOp
	failed := 0
	rss := startWindowRSS()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for id := 0; time.Since(start) < cfg.window; id++ {
		idx, round := deal.next()
		// A traced run traces every other round, so the rounds left
		// untraced measure what tracing costs.
		var opTr *tracer
		if round%2 == 0 {
			opTr = tr
		}
		op := runClosedOp(cases[idx], id, opTr, compileInOp)
		op.round, op.traced = round, opTr != nil
		if op.err != nil {
			if failed++; failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: op %d (%s): %v\n", id, cases[idx], op.err)
			}
		}
		ops = append(ops, op)
		rss.sample()
	}
	runtime.ReadMemStats(&after)

	oc := &outcome{attempted: len(ops), failed: failed, values: map[string]float64{
		"setup_s":     setup,
		"peak_rss_mb": rss.mb(),
	}}
	var run time.Duration
	var instrs, cycles, nops, words, filled, slots, packed, traceInstrs, compiled, exits uint64
	for _, op := range ops {
		run += op.run
		instrs += op.instrs
		cycles += op.cycles
		nops += uint64(op.rs.Nops)
		words += uint64(op.rs.OutputWords)
		filled += uint64(op.rs.DelayFilled)
		slots += uint64(op.rs.DelaySlots)
		packed += uint64(op.rs.PackedWords)
		traceInstrs += op.trans.TierInstrs[cpu.TierTraces]
		compiled += op.trans.TraceCompiled
		exits += op.trans.TraceGuardExits
	}
	n := float64(len(ops))
	v := oc.values
	// Timings are block medians over whole rounds, so that every block
	// holds the same mix; the last round may be partial and is left out.
	key, keys := make([]int, len(ops)), ops[len(ops)-1].round
	for i, op := range ops {
		key[i] = op.round
		if op.round == keys {
			key[i] = -1
		}
	}
	if keys == 0 {
		key, keys = make([]int, len(ops)), 1 // a short run: one block
	}
	v["ops_per_s"] = blockMedian(key, keys, func(idx []int) float64 {
		var d time.Duration
		for _, i := range idx {
			d += ops[i].dur
		}
		return float64(len(idx)) / d.Seconds()
	})
	for name, q := range map[string]float64{"latency_ms_p50": 0.50, "latency_ms_p99": 0.99} {
		v[name] = blockMedian(key, keys, func(idx []int) float64 {
			var l []float64
			for _, i := range idx {
				l = append(l, ms(ops[i].dur))
			}
			return quantile(l, q)
		})
	}
	v["sim_minstr_per_s"] = blockMedian(key, keys, func(idx []int) float64 {
		var in uint64
		var d time.Duration
		for _, i := range idx {
			in, d = in+ops[i].instrs, d+ops[i].run
		}
		return float64(in) / d.Seconds() / 1e6
	})
	v["sim_cycles_per_op"] = float64(cycles) / n
	v["alloc_kb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / n
	if !cfg.traced {
		return oc, nil
	}

	v["reorg.nop_frac"] = ratio(float64(nops), float64(words))
	v["reorg.delay_fill_frac"] = ratio(float64(filled), float64(slots))
	v["reorg.packed_frac"] = ratio(float64(packed), float64(words))
	v["cpu.ns_per_instr"] = ratio(float64(run), float64(instrs))
	v["xlate.trace_residency"] = ratio(float64(traceInstrs), float64(instrs))
	v["xlate.trace.compiled_per_op"] = float64(compiled) / n
	v["xlate.trace.guard_exits_per_kinstr"] = ratio(float64(exits), float64(instrs)/1000)
	v["bench.trace_overhead_frac"] = traceOverhead(ops)
	if err := spanMetrics(tr, v); err != nil {
		return nil, err
	}
	if compileInOp {
		if err := engineMatrix(cases, v); err != nil {
			return nil, err
		}
	}
	return oc, tr.writeChrome(tracePath(cfg), cfg.fp)
}

// runClosedOp runs one op and checks it against the case's oracle.
func runClosedOp(c *closedCase, id int, tr *tracer, compileInOp bool) closedOp {
	var op closedOp
	st := newStamper(tr, id, "op")
	tr.setLabel(st.root, c.String())
	im := c.im
	if compileInOp {
		im, op.rs, op.err = compile(c.prog.Source, mipsOptions(c.v), st)
	}
	var m *sim.Machine
	if op.err == nil {
		m, op.err = sim.New()
	}
	if op.err == nil {
		op.err = m.Load(im)
	}
	st.mark("sim.New+Load")
	if op.err == nil {
		_, op.err = m.Run(maxSteps)
		op.run = st.mark("sim.Run")
	}
	if op.err == nil {
		op.instrs, op.cycles, op.trans = m.Stats().Instructions, m.Stats().Cycles, *m.Trans()
		op.err = check(c.want, m)
	}
	op.dur = st.finish()
	return op
}

// check compares a halted bare machine with its oracle.
func check(w want, m *sim.Machine) error {
	st := m.Stats()
	switch {
	case !m.Halted():
		return fmt.Errorf("no halt within %d steps", maxSteps)
	case m.Output() != w.output:
		return fmt.Errorf("printed %q, oracle %q", m.Output(), w.output)
	case st.Cycles != w.cycles || st.Instructions != w.instrs:
		return fmt.Errorf("simulated %d cycles, %d instructions; reference engine %d, %d",
			st.Cycles, st.Instructions, w.cycles, w.instrs)
	case len(m.Hazards()) != 0:
		return fmt.Errorf("%d load-use hazards", len(m.Hazards()))
	}
	return nil
}

// traceOverhead compares the mean op time of traced and untraced whole
// rounds: each round holds every case once, so the two means weigh the
// same work. The last round may be partial and is left out.
func traceOverhead(ops []closedOp) float64 {
	last := ops[len(ops)-1].round
	var traced, plain []float64
	for _, op := range ops {
		switch {
		case op.round == last:
		case op.traced:
			traced = append(traced, ms(op.dur))
		default:
			plain = append(plain, ms(op.dur))
		}
	}
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	return mean(traced)/mean(plain) - 1
}

// spanMetrics turns the traced ops' spans into per-layer host times:
// each layer's mean self time per op and its share of op time.
func spanMetrics(tr *tracer, v map[string]float64) error {
	if bad := tr.nestingErrors(); bad != 0 {
		return fmt.Errorf("%d spans are not nested in their op", bad)
	}
	l := tr.layers()
	op := l["op"]
	perOp := func(name string) float64 { return ratio(us(l[name].self), float64(op.count)) }
	share := func(name string) float64 { return ratio(float64(l[name].self), float64(op.total)) }
	layers := map[string]string{"sim.new_load": "sim.New+Load", "cpu.run": "sim.Run"}
	for metric, span := range compileLayers {
		layers[metric] = span
	}
	for metric, span := range layers {
		v[metric+"_us"] = perOp(span)
		v[metric+"_share"] = share(span)
	}
	v["bench.op_self_share"] = share("op")
	return nil
}

// matrixReps is how many times the engine matrix runs each program on
// each engine; it reports the median.
const matrixReps = 5

// engineMatrix times the run stage of every corpus program (word
// allocation, set-conditional on) on each of the four engines, in
// interleaved repeats, and records the median ns per simulated
// instruction: the break-even table between the engines.
func engineMatrix(cases []*closedCase, v map[string]float64) error {
	samples := make(map[string][]float64)
	for rep := 0; rep < matrixReps; rep++ {
		for _, c := range cases {
			if c.v != variants[0] {
				continue
			}
			for _, e := range matrixEngines {
				m, err := sim.New(sim.WithEngine(e))
				if err == nil {
					err = m.Load(c.im)
				}
				start := time.Now()
				if err == nil {
					_, err = m.Run(maxSteps)
				}
				d := time.Since(start)
				if err == nil {
					err = check(c.want, m)
				}
				if err != nil {
					return fmt.Errorf("engine matrix %s on %s: %w", c, e, err)
				}
				name := "cpu.ns_per_instr." + e.String() + "." + c.prog.Name
				samples[name] = append(samples[name], float64(d)/float64(m.Stats().Instructions))
			}
		}
	}
	for name, s := range samples {
		v[name] = median(s)
	}
	return nil
}
