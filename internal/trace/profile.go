package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"mips/internal/isa"
)

// LoadUseMax is the largest load-use distance tracked exactly; longer
// distances fall into the final overflow bucket.
const LoadUseMax = 8

// pcSample accumulates cycle attribution for one instruction word.
type pcSample struct {
	cycles uint64 // executed cycles + stall bubbles + exception refills
	instrs uint64 // times the word retired
	nops   uint64 // times the word retired as an explicit no-op
	stalls uint64 // interlock bubbles charged to the word
	excs   uint64 // exceptions whose refill penalty the word carries
}

// pcKey locates one instruction word. Kernel (exception-level) and user
// execution are separate spaces: the dispatch ROM at physical zero and a
// user program's text overlap numerically but are different code.
type pcKey struct {
	pc     uint32
	kernel bool
}

// Profiler attributes every machine cycle to an instruction word: one
// cycle per retired instruction, one per interlock stall, and a
// pipeline refill per exception (charged to the saved restart address).
// With every charge observed, the per-PC totals sum exactly to
// Stats.Cycles, which is what makes the flat profile trustworthy.
//
// It also histograms load-use distances — how many words after a load
// its result is first read — making the reorganizer's scheduling
// quality visible: distance 1 is a hazard on this machine, distance 2
// is a just-in-time schedule.
type Profiler struct {
	samples map[pcKey]*pcSample
	loadUse [LoadUseMax + 1]uint64

	// mu, when non-nil (Share), serializes the attribution hooks
	// against concurrent readers — the live telemetry server's
	// /profile endpoints walk the sample map while the simulation
	// runs, and an unguarded map write under that walk would fault.
	// Nil (the default) keeps the hot path lock-free.
	mu *sync.Mutex

	// pending[r] holds 1+seq of the youngest load into r whose first
	// use has not been seen (0 = none).
	pending [isa.NumRegs]uint64
	seq     uint64

	syms     []Symbol // user-space symbols, sorted by address
	ksyms    []Symbol // kernel-space symbols, sorted by address
	pieceBuf []*isa.Piece
	regBuf   []isa.Reg
}

// Symbol is one symbolization entry: a pc at or above Addr (and below
// the next symbol) attributes to Name.
type Symbol struct {
	Name string
	Addr uint32
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{samples: make(map[pcKey]*pcSample)}
}

// Share makes the profiler safe for concurrent readers: the attribution
// hooks and the aggregate accessors (Flat, TotalCycles,
// LoadUseHistogram, WriteReport) take a mutex. Call it before the run
// starts — typically when a telemetry server is attached — and only
// then: the lock costs one uncontended acquire per retired instruction,
// which the default unshared profiler never pays. Symbol registration
// (AddImage and friends) stays setup-time-only and is not guarded.
func (p *Profiler) Share() {
	if p.mu == nil {
		p.mu = new(sync.Mutex)
	}
}

func (p *Profiler) lock() {
	if p.mu != nil {
		p.mu.Lock()
	}
}

func (p *Profiler) unlock() {
	if p.mu != nil {
		p.mu.Unlock()
	}
}

// AddImage registers an image's symbols for per-function attribution of
// user-space execution. Compiler-internal labels (names starting with
// ".") and symbols outside the text segment are skipped.
func (p *Profiler) AddImage(im *isa.Image) {
	p.syms = addImageSymbols(p.syms, im)
}

// AddKernelImage registers an image's symbols for attribution of
// exception-level (kernel) execution.
func (p *Profiler) AddKernelImage(im *isa.Image) {
	p.ksyms = addImageSymbols(p.ksyms, im)
}

// AddSymbol registers one user-space symbolization entry.
func (p *Profiler) AddSymbol(name string, addr uint32) {
	p.syms = insertSymbol(p.syms, Symbol{Name: name, Addr: addr})
}

func addImageSymbols(syms []Symbol, im *isa.Image) []Symbol {
	lo, hi := im.TextBase, im.TextBase+int32(len(im.Words))
	for name, addr := range im.Symbols {
		if strings.HasPrefix(name, ".") || addr < lo || addr >= hi {
			continue
		}
		syms = insertSymbol(syms, Symbol{Name: name, Addr: uint32(addr)})
	}
	return syms
}

func insertSymbol(syms []Symbol, s Symbol) []Symbol {
	syms = append(syms, s)
	sort.Slice(syms, func(i, j int) bool { return syms[i].Addr < syms[j].Addr })
	return syms
}

// Symbolize maps a pc to the nearest symbol at or below it in the given
// space.
func (p *Profiler) Symbolize(pc uint32, kernel bool) (name string, offset uint32, ok bool) {
	syms := p.syms
	if kernel {
		syms = p.ksyms
	}
	i := sort.Search(len(syms), func(i int) bool { return syms[i].Addr > pc })
	if i == 0 {
		return "", 0, false
	}
	s := syms[i-1]
	return s.Name, pc - s.Addr, true
}

func (p *Profiler) at(pc uint32, kernel bool) *pcSample {
	k := pcKey{pc: pc, kernel: kernel}
	s := p.samples[k]
	if s == nil {
		s = &pcSample{}
		p.samples[k] = s
	}
	return s
}

// step attributes one retired instruction word.
func (p *Profiler) step(pc uint32, in isa.Instr, kernel bool) {
	p.lock()
	defer p.unlock()
	p.seq++
	s := p.at(pc, kernel)
	s.cycles++
	s.instrs++
	if in.IsNop() {
		s.nops++
		return
	}
	// Load-use bookkeeping: reads first (both pieces of a packed word
	// issue together), then definitions.
	p.pieceBuf = in.Pieces(p.pieceBuf[:0])
	for _, piece := range p.pieceBuf {
		p.regBuf = piece.Uses(p.regBuf[:0])
		for _, r := range p.regBuf {
			if issued := p.pending[r]; issued != 0 {
				d := p.seq - (issued - 1)
				if d > LoadUseMax {
					d = LoadUseMax + 1
				}
				p.loadUse[d-1]++
				p.pending[r] = 0
			}
		}
	}
	for _, piece := range p.pieceBuf {
		if r, ok := piece.Defs(); ok {
			if piece.Kind == isa.PieceLoad && piece.Mode != isa.AModeLongImm {
				p.pending[r] = p.seq + 1
			} else {
				p.pending[r] = 0
			}
		}
	}
}

// stall attributes one interlock bubble.
func (p *Profiler) stall(pc uint32, kernel bool) {
	p.lock()
	s := p.at(pc, kernel)
	s.cycles++
	s.stalls++
	p.unlock()
}

// exception attributes a pipeline refill to the restart address in the
// interrupted space.
func (p *Profiler) exception(pc uint32, kernel bool) {
	p.lock()
	s := p.at(pc, kernel)
	s.cycles += isa.PipeStages
	s.excs++
	p.unlock()
}

// TotalCycles sums the attributed cycles over every pc in both spaces.
// With the profiler attached for a whole run it equals the CPU's
// Stats.Cycles.
func (p *Profiler) TotalCycles() uint64 {
	p.lock()
	defer p.unlock()
	var n uint64
	for _, s := range p.samples {
		n += s.cycles
	}
	return n
}

// LoadUseHistogram returns the load-use distance counts: index i holds
// distance i+1, and the final entry counts distances beyond LoadUseMax.
func (p *Profiler) LoadUseHistogram() [LoadUseMax + 1]uint64 {
	p.lock()
	defer p.unlock()
	return p.loadUse
}

// SymbolProfile is one row of the flat profile.
type SymbolProfile struct {
	Name   string
	Kernel bool // exception-level code (dispatch ROM, handlers)
	Cycles uint64
	Instrs uint64
	Nops   uint64
	Stalls uint64
	Excs   uint64
}

// Buckets for addresses below every known symbol of their space.
const (
	unknownSymbol = "<unsymbolized>"
	kernelBucket  = "<kernel>"
)

// Flat aggregates the per-PC samples into a per-symbol profile, sorted
// by descending cycles (ties by name).
func (p *Profiler) Flat() []SymbolProfile {
	type aggKey struct {
		name   string
		kernel bool
	}
	agg := make(map[aggKey]*SymbolProfile)
	p.lock()
	defer p.unlock()
	for k, s := range p.samples {
		name, _, ok := p.Symbolize(k.pc, k.kernel)
		if !ok {
			name = unknownSymbol
			if k.kernel {
				name = kernelBucket
			}
		}
		ak := aggKey{name: name, kernel: k.kernel}
		row := agg[ak]
		if row == nil {
			row = &SymbolProfile{Name: name, Kernel: k.kernel}
			agg[ak] = row
		}
		row.Cycles += s.cycles
		row.Instrs += s.instrs
		row.Nops += s.nops
		row.Stalls += s.stalls
		row.Excs += s.excs
	}
	rows := make([]SymbolProfile, 0, len(agg))
	for _, r := range agg {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Cycles != rows[j].Cycles {
			return rows[i].Cycles > rows[j].Cycles
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// Folded renders the flat profile as folded-stack frames: each row
// becomes a "space;symbol" stack (space is user or kernel) weighted by
// exact cycles. This is the unit the fleet aggregation layer merges —
// identical stacks from many jobs sum into one fleet flamegraph.
func (p *Profiler) Folded() map[string]uint64 {
	out := make(map[string]uint64)
	for _, row := range p.Flat() {
		space := "user"
		if row.Kernel {
			space = "kernel"
		}
		out[space+";"+foldedFrameName(row.Name)] += row.Cycles
	}
	return out
}

// foldedFrameName sanitizes a symbol for the folded format, whose
// frame separator is ';' and whose count separator is ' '.
func foldedFrameName(name string) string {
	name = strings.ReplaceAll(name, ";", "_")
	return strings.ReplaceAll(name, " ", "_")
}

// WriteFolded renders a folded map as flamegraph text, one
// "frame;frame count" line per stack — the format flamegraph.pl and
// compatible viewers (e.g. speedscope) read. The order is
// deterministic: heaviest stack first, ties broken by stack name.
func WriteFolded(w io.Writer, m map[string]uint64) error {
	stacks := make([]string, 0, len(m))
	for s := range m {
		stacks = append(stacks, s)
	}
	sort.Slice(stacks, func(i, j int) bool {
		if m[stacks[i]] != m[stacks[j]] {
			return m[stacks[i]] > m[stacks[j]]
		}
		return stacks[i] < stacks[j]
	})
	for _, s := range stacks {
		if _, err := fmt.Fprintf(w, "%s %d\n", s, m[s]); err != nil {
			return err
		}
	}
	return nil
}

// ParseFolded reads folded-stack text back into stack -> weight, the
// inverse of WriteFolded. Blank lines are skipped and repeated stacks
// sum.
func ParseFolded(r io.Reader) (map[string]uint64, error) {
	out := map[string]uint64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("trace: folded line %q has no count", line)
		}
		n, err := strconv.ParseUint(line[i+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: folded line %q: %w", line, err)
		}
		out[line[:i]] += n
	}
	return out, sc.Err()
}

// MergeFolded sums src into dst: identical stacks from many profiles
// add up, so one flamegraph shows where a whole fleet's cycles went.
func MergeFolded(dst, src map[string]uint64) {
	for stack, n := range src {
		dst[stack] += n
	}
}

// display names a row for the report; kernel-space symbols carry a "k:"
// prefix so they cannot be confused with same-named user code.
func (r SymbolProfile) display() string {
	if r.Kernel && r.Name != kernelBucket {
		return "k:" + r.Name
	}
	return r.Name
}

// WriteReport writes the flat profile, the top hot instruction words,
// and the load-use histogram as aligned text.
func (p *Profiler) WriteReport(w io.Writer, topWords int) error {
	total := p.TotalCycles()
	if total == 0 {
		_, err := fmt.Fprintln(w, "profile: no cycles recorded")
		return err
	}

	fmt.Fprintf(w, "flat profile: %d cycles by symbol\n", total)
	fmt.Fprintf(w, "  %-18s %12s %6s %6s %12s %8s %6s %8s\n",
		"symbol", "cycles", "%", "cum%", "instrs", "nops", "nop%", "stalls")
	var cum uint64
	for _, r := range p.Flat() {
		cum += r.Cycles
		nopPct := 0.0
		if r.Instrs > 0 {
			nopPct = 100 * float64(r.Nops) / float64(r.Instrs)
		}
		fmt.Fprintf(w, "  %-18s %12d %5.1f%% %5.1f%% %12d %8d %5.1f%% %8d\n",
			r.display(), r.Cycles,
			100*float64(r.Cycles)/float64(total), 100*float64(cum)/float64(total),
			r.Instrs, r.Nops, nopPct, r.Stalls)
	}

	type hot struct {
		k pcKey
		s pcSample
	}
	p.lock()
	words := make([]hot, 0, len(p.samples))
	for k, s := range p.samples {
		words = append(words, hot{k, *s})
	}
	p.unlock()
	sort.Slice(words, func(i, j int) bool {
		if words[i].s.cycles != words[j].s.cycles {
			return words[i].s.cycles > words[j].s.cycles
		}
		return words[i].k.pc < words[j].k.pc
	})
	if topWords > len(words) {
		topWords = len(words)
	}
	fmt.Fprintf(w, "hot words: top %d of %d by cycles\n", topWords, len(words))
	fmt.Fprintf(w, "  %-8s %-22s %12s %12s %8s %8s\n", "pc", "symbol", "cycles", "instrs", "nops", "stalls")
	for _, h := range words[:topWords] {
		loc := unknownSymbol
		if h.k.kernel {
			loc = kernelBucket
		}
		if name, off, ok := p.Symbolize(h.k.pc, h.k.kernel); ok {
			if h.k.kernel {
				name = "k:" + name
			}
			loc = fmt.Sprintf("%s+%d", name, off)
		}
		fmt.Fprintf(w, "  %-8d %-22s %12d %12d %8d %8d\n",
			h.k.pc, loc, h.s.cycles, h.s.instrs, h.s.nops, h.s.stalls)
	}

	fmt.Fprintf(w, "load-use distance (words from load to first use; 1 = hazard, 2 = tight schedule)\n ")
	for i, n := range p.loadUse {
		label := fmt.Sprintf("%d", i+1)
		if i == LoadUseMax {
			label = fmt.Sprintf(">%d", LoadUseMax)
		}
		fmt.Fprintf(w, " %s:%d", label, n)
	}
	_, err := fmt.Fprintln(w)
	return err
}
