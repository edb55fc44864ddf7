package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"mips/internal/corpus"
	"mips/internal/sim"
)

// TestCatalogMatchesBenchmarkJSON pins the metric catalog to the
// repository's BENCHMARK.json: same workloads, same metric names and
// units, in the same order.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, catalog %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), catalog %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer())
}

// TestWorkloadsShortPass runs a short window of every workload, plain
// and traced, and checks that every catalog metric is printed with its
// unit and that every op matched its oracle.
func TestWorkloadsShortPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"paper_path", "long_runs", "jobs"} {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: name, seed: 7, window: 300 * time.Millisecond,
				traced: traced, outDir: t.TempDir(),
			}
			res, err := measure(cfg, workloads[name])
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer()
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", name, traced, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s traced=%v: %s in %q, want %q", name, traced, d.name, m.Unit, d.unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			if traced {
				checkChromeTrace(t, tracePath(cfg))
			}
		}
	}
}

func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Errorf("%s holds no spans", path)
	}
}

// TestWrongOracleFailsOp checks that an op whose output or simulated
// time differs from its oracle counts as failed.
func TestWrongOracleFailsOp(t *testing.T) {
	p, err := corpus.Get("fib")
	if err != nil {
		t.Fatal(err)
	}
	c := &closedCase{prog: p, v: variants[1]}
	if c.im, _, err = compile(p.Source, mipsOptions(c.v), newStamper(nil, -1, "")); err != nil {
		t.Fatal(err)
	}
	out, err := interpOutput(p, c.v.mode)
	if err != nil {
		t.Fatal(err)
	}
	c.want, err = oracle(c.String(), out, func() (*sim.Machine, error) {
		m, err := sim.New(sim.WithEngine(sim.Reference))
		if err != nil {
			return nil, err
		}
		return m, m.Load(c.im)
	})
	if err != nil {
		t.Fatal(err)
	}
	if op := runClosedOp(c, 0, nil, true); op.err != nil {
		t.Fatalf("right oracle: %v", op.err)
	}
	right := c.want
	c.want.output = "611\n"
	if op := runClosedOp(c, 1, nil, true); op.err == nil {
		t.Error("a wrong oracle output passed the check")
	}
	c.want = right
	c.want.cycles++
	if op := runClosedOp(c, 2, nil, false); op.err == nil {
		t.Error("a wrong oracle cycle count passed the check")
	}
}

// TestWrongOracleFailsJob checks the same through the /v1 API.
func TestWrongOracleFailsJob(t *testing.T) {
	rec, comp := &jobRecorder{}, &compileLog{}
	env, err := startJobs(rec, comp)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	wants, err := jobOracles(env.pool)
	if err != nil {
		t.Fatal(err)
	}
	ops := []*jobOp{
		{program: "fib", submitted: make(chan struct{})},
		{program: "calc", cold: true, submitted: make(chan struct{})},
	}
	rec.arm(ops)
	for i, op := range ops {
		op.id, op.submitErr = env.submit(i, op)
		close(op.submitted)
		if op.submitErr != nil {
			t.Fatal(op.submitErr)
		}
	}
	for range ops {
		op := ops[<-rec.done]
		right := wants[op.program].of(op)
		env.fetch(op, right)
		if op.err != nil {
			t.Errorf("%s: right oracle: %v", op.program, op.err)
		}
		wrong := right
		wrong.output += "x"
		env.fetch(op, wrong)
		if op.err == nil {
			t.Errorf("%s: a wrong oracle output passed the check", op.program)
		}
	}
}

// TestFailedOpMakesResultIncorrect checks that one failed op turns the
// result's correct flag off.
func TestFailedOpMakesResultIncorrect(t *testing.T) {
	values := map[string]float64{}
	for _, d := range endToEnd {
		values[d.name] = 1
	}
	res, err := measure(config{workload: "stub"}, func(config) (*outcome, error) {
		return &outcome{attempted: 10, failed: 1, values: values}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 10 {
		t.Errorf("got correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
}

// TestSelfTimesAccountForOp checks that an op's self time plus its
// layers' self times add up to its whole span, and that overlapping
// children are reported.
func TestSelfTimesAccountForOp(t *testing.T) {
	tr := newTracer()
	at := func(d time.Duration) time.Time { return tr.epoch.Add(d) }
	root := tr.add("op", 0, -1, at(0), at(10))
	tr.add("lang.Parse", 0, root, at(1), at(3))
	run := tr.add("sim.Run", 0, root, at(3), at(8))
	tr.add("inner", 0, run, at(4), at(5))
	var sum time.Duration
	for _, s := range tr.selfTimes() {
		sum += s
	}
	if sum != 10 {
		t.Errorf("self times sum to %v, want the op's 10ns", sum)
	}
	if l := tr.layers(); l["op"].self != 3 || l["sim.Run"].self != 4 {
		t.Errorf("self times: op %v, sim.Run %v; want 3ns, 4ns", l["op"].self, l["sim.Run"].self)
	}
	if bad := tr.nestingErrors(); bad != 0 {
		t.Errorf("%d nesting errors in a well-nested op", bad)
	}
	tr.add("asm.Assemble", 0, root, at(7), at(9))
	if bad := tr.nestingErrors(); bad != 1 {
		t.Errorf("%d nesting errors, want 1 for overlapping siblings", bad)
	}
}

// TestScheduleIsSeeded checks that the seed alone fixes the jobs
// schedule, and that rounds keep the mix balanced.
func TestScheduleIsSeeded(t *testing.T) {
	a := jobSchedule(11, 200, 2*time.Second)
	b := jobSchedule(11, 200, 2*time.Second)
	c := jobSchedule(12, 200, 2*time.Second)
	key := func(ops []*jobOp) []string {
		var k []string
		for _, op := range ops {
			k = append(k, op.at.String()+op.program)
		}
		return k
	}
	if !reflect.DeepEqual(key(a), key(b)) {
		t.Error("the same seed gave two schedules")
	}
	if reflect.DeepEqual(key(a), key(c)) {
		t.Error("two seeds gave one schedule")
	}
	r := newRounds(3, 5)
	count := make([]int, 5)
	for i := 0; i < 50; i++ {
		idx, round := r.next()
		if round != i/5 {
			t.Fatalf("op %d in round %d", i, round)
		}
		count[idx]++
	}
	for idx, n := range count {
		if n != 10 {
			t.Errorf("case %d dealt %d times in 10 rounds", idx, n)
		}
	}
}
