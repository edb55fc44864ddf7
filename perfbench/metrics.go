package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"mips/internal/corpus"
	"mips/internal/sim"
)

type metricDef struct{ name, unit string }

// endToEnd is what a user of the simulator sees. Every workload
// measures all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p99", "ms"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"sim_cycles_per_op", "cycles"},
	{"alloc_kb_per_op", "KiB"},
	{"peak_rss_mb", "MiB"},
}

// matrixEngines are the execution engines of the paper_path engine
// matrix.
var matrixEngines = []sim.Engine{sim.Reference, sim.FastPath, sim.Blocks, sim.Traces}

// compileLayers maps each tool-chain layer's metric prefix to the name
// of the span around its call.
var compileLayers = map[string]string{
	"lang.parse":       "lang.Parse",
	"codegen.gen":      "codegen.GenMIPS",
	"reorg.reorganize": "reorg.Reorganize",
	"asm.assemble":     "asm.Assemble",
}

// perLayer is what a traced run reports: host time per layer, the
// layers' own counters, and the benchmark's validity checks. A
// workload that does not exercise a layer reports 0 for it.
func perLayer() []metricDef {
	defs := []metricDef{
		{"lang.parse_us", "us"},
		{"codegen.gen_us", "us"},
		{"reorg.reorganize_us", "us"},
		{"asm.assemble_us", "us"},
		{"lang.parse_share", "frac"},
		{"codegen.gen_share", "frac"},
		{"reorg.reorganize_share", "frac"},
		{"asm.assemble_share", "frac"},
		{"reorg.nop_frac", "frac"},
		{"reorg.delay_fill_frac", "frac"},
		{"reorg.packed_frac", "frac"},
		{"sim.new_load_us", "us"},
		{"cpu.run_us", "us"},
		{"sim.new_load_share", "frac"},
		{"cpu.run_share", "frac"},
		{"cpu.ns_per_instr", "ns"},
		{"xlate.trace_residency", "frac"},
		{"xlate.trace.compiled_per_op", "count"},
		{"xlate.trace.guard_exits_per_kinstr", "count"},
		{"http.submit_ms_p50", "ms"},
		{"http.submit_ms_p99", "ms"},
		{"http.output_ms_p50", "ms"},
		{"sim.admission_us_p50", "us"},
		{"sim.admission_us_p99", "us"},
		{"sim.run_ms_p50", "ms"},
		{"sim.quanta_per_job", "count"},
		{"sim.fork_us", "us"},
		{"codegen.compile_ms_p50", "ms"},
		{"mem.cow_faults_per_job", "count"},
		{"gen.late_ms_p99", "ms"},
		{"bench.trace_overhead_frac", "frac"},
		{"bench.op_self_share", "frac"},
		{"bench.fail_frac", "frac"},
	}
	for _, e := range matrixEngines {
		for _, p := range corpus.All() {
			defs = append(defs, metricDef{"cpu.ns_per_instr." + e.String() + "." + p.Name, "ns"})
		}
	}
	return defs
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nBlocks is how many blocks of consecutive ops a window is split
// into for its timing metrics. Each timing is taken within every block
// and the median across blocks is reported, so a burst of interference
// from other tenants of the host moves one block, not the result. Five
// blocks of a 30 s window hold 1,300 to 2,000 ops each, so a block's
// p99 has at least ten samples beyond it.
const nBlocks = 5

// blockMedian groups ops into nBlocks blocks by key: key[i] in
// [0, keys) puts op i in block key[i]*nBlocks/keys, and a negative key
// leaves it out. It returns the median over non-empty blocks of
// stat(indices of the block's ops).
func blockMedian(key []int, keys int, stat func(idx []int) float64) float64 {
	blocks := make([][]int, nBlocks)
	for i, k := range key {
		if k >= 0 {
			b := k * nBlocks / keys
			blocks[b] = append(blocks[b], i)
		}
	}
	var xs []float64
	for _, b := range blocks {
		if len(b) > 0 {
			xs = append(xs, stat(b))
		}
	}
	return median(xs)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// setupRepeats is how many samples of set-up time a workload takes,
// after one untimed warm-up build; setup_s is their median, so one slow
// sample does not decide it.
const setupRepeats = 9

// setupSample is the least build time one sample covers. A set-up
// quicker than this is built again until the sample's builds add up to
// it, and the sample is their mean: the garbage collections the builds
// trigger then weigh in at their average rate, instead of landing in
// one build and missing the next.
const setupSample = 20 * time.Millisecond

// timeSetup builds the set-up once to warm up and then takes
// setupRepeats samples of its build time, each after a garbage
// collection, and returns their median in seconds. Every build but the
// last is released untimed; the last one is what the workload
// measures, and the caller releases it through the returned function.
func timeSetup(build func() (release func(), err error)) (float64, func(), error) {
	release := func() {}
	once := func() (time.Duration, error) {
		release()
		release = func() {}
		start := time.Now()
		r, err := build()
		d := time.Since(start)
		if err == nil {
			release = r
		}
		return d, err
	}
	if _, err := once(); err != nil {
		return 0, nil, err
	}
	var secs []float64
	for len(secs) < setupRepeats {
		runtime.GC()
		var sum time.Duration
		n := 0
		for sum < setupSample {
			d, err := once()
			if err != nil {
				return 0, nil, err
			}
			sum += d
			n++
		}
		secs = append(secs, sum.Seconds()/float64(n))
	}
	return median(secs), release, nil
}

// windowRSS tracks the peak resident set of the process over a
// measurement window. It is sampled between ops of a closed loop and
// at the end of each epoch of jobs, when the epoch's service still
// holds all its jobs. Memory set-up and the oracles freed is returned
// to the OS before the window starts, so the peak is what the window
// holds, not what set-up once did.
type windowRSS struct {
	statm *os.File
	buf   [128]byte
	pages int
	err   error
}

func startWindowRSS() *windowRSS {
	debug.FreeOSMemory()
	w := &windowRSS{}
	w.statm, w.err = os.Open("/proc/self/statm")
	w.sample()
	return w
}

// sample reads the resident set: the second field of
// /proc/self/statm, in pages. It does not allocate.
func (w *windowRSS) sample() {
	if w.err != nil {
		return
	}
	n, err := w.statm.ReadAt(w.buf[:], 0)
	if err != nil && err != io.EOF {
		w.err = err
		return
	}
	field, pages := 0, 0
	for _, c := range w.buf[:n] {
		switch {
		case c == ' ':
			field++
		case field == 1 && c >= '0' && c <= '9':
			pages = pages*10 + int(c-'0')
		}
	}
	if pages == 0 {
		w.err = fmt.Errorf("no resident set in /proc/self/statm: %q", w.buf[:n])
		return
	}
	w.pages = max(w.pages, pages)
}

// mb closes the statm file and returns the peak in MiB, or NaN if a
// sample failed.
func (w *windowRSS) mb() float64 {
	if w.statm != nil {
		w.statm.Close()
		w.statm = nil
	}
	if w.err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: resident set:", w.err)
		return math.NaN()
	}
	return float64(w.pages) * float64(os.Getpagesize()) / (1 << 20)
}
