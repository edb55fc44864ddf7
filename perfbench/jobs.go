package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mips/internal/codegen"
	"mips/internal/corpus"
	"mips/internal/cpu"
	"mips/internal/isa"
	"mips/internal/kernel"
	"mips/internal/lang"
	"mips/internal/sim"
	"mips/internal/telemetry/fleet"
	"mips/internal/trace"
)

// The jobs workload is an open loop over the /v1 HTTP API on loopback:
// jobs arrive on a seeded Poisson schedule whether or not earlier ones
// have finished. The job service is composed as cmd/mipsd composes it.
// Seven of every eight jobs fork a kernel-mode template of a short
// program; the eighth is a cold job that compiles its program and
// boots the kernel.

// jobsRate is the offered load in jobs/s: about a third of the
// throughput at which the service saturated on a 2-core host
// (README.md).
const jobsRate = 230

// jobPrograms are the short programs jobs run, one template each.
var jobPrograms = []string{"calc", "strings", "tokenizer", "formatter", "puzzle0", "puzzle1", "fib"}

// jobClients is how many goroutines and connections drive the load: a
// generator that submits and a fetcher that reads outputs.
const jobClients = 2

// jobsDrain bounds the wait after an epoch's last arrival for jobs still
// in flight. A job not fetched by then counts as failed, and so do the
// jobs of every later epoch, which are not run.
const jobsDrain = 10 * time.Second

// jobOp is one scheduled job and everything measured about it.
type jobOp struct {
	// Fixed by the schedule.
	at      time.Duration // due time, from the window start
	due     time.Time     // set when the op's epoch starts
	program string
	cold    bool

	// Written by the generator before it closes submitted.
	submitted  chan struct{}
	sent       time.Time
	submitDone time.Time
	id         string
	submitErr  error

	// Written by the service's worker before it sends the op's index
	// on the recorder's done channel.
	terminal time.Time
	sample   sim.JobSample

	// Written by the fetcher.
	fetchStart, fetchDone time.Time
	err                   error // the op failed: refused, wrong, or not done
	fetched               bool
}

func (op *jobOp) String() string {
	if op.cold {
		return op.program + "/cold"
	}
	return op.program + "/fork"
}

// jobSchedule deals the window's arrivals from the seed: exponential
// gaps at rate jobs/s, and program draws in rounds of eight, seven
// template forks and one cold job whose program comes from rounds of
// its own.
func jobSchedule(seed int64, rate float64, window time.Duration) []*jobOp {
	rng := rand.New(rand.NewSource(seed))
	deal := newRounds(seed, len(jobPrograms)+1)
	coldDeal := newRounds(seed+1, len(jobPrograms))
	var ops []*jobOp
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= window {
			return ops
		}
		idx, _ := deal.next()
		op := &jobOp{at: at, submitted: make(chan struct{})}
		if idx == len(jobPrograms) {
			c, _ := coldDeal.next()
			op.cold, op.program = true, jobPrograms[c]
		} else {
			op.program = jobPrograms[idx]
		}
		ops = append(ops, op)
	}
}

// jobRecorder receives terminal jobs from the service's OnJobTerminal
// hook. Job names are op indices.
type jobRecorder struct {
	mu   sync.Mutex
	ops  []*jobOp
	done chan int
}

func (r *jobRecorder) arm(ops []*jobOp) {
	r.mu.Lock()
	// One send per op at most, so the hook never blocks a worker.
	r.ops, r.done = ops, make(chan int, len(ops))
	r.mu.Unlock()
}

func (r *jobRecorder) terminal(s sim.JobSample) {
	now := time.Now()
	r.mu.Lock()
	ops, done := r.ops, r.done
	r.mu.Unlock()
	i, err := strconv.Atoi(s.Name)
	if err != nil || i < 0 || i >= len(ops) {
		return
	}
	ops[i].terminal, ops[i].sample = now, s
	done <- i
}

// compileLog wraps the on-demand compiles of cold jobs: while armed it
// times each one, and with a tracer records its layer spans.
type compileLog struct {
	mu   sync.Mutex
	on   bool
	tr   *tracer
	durs []time.Duration
}

// arm turns recording on or off, and tracing on with a non-nil tr; the
// template captures of set-up compile too and are left out.
func (c *compileLog) arm(on bool, tr *tracer) {
	c.mu.Lock()
	c.on, c.tr = on, tr
	c.mu.Unlock()
}

// programs is cmd/mipsd's corpusPrograms with each compile timed from
// outside the tool chain's calls.
func (c *compileLog) programs() map[string]sim.ProgramFunc {
	progs := map[string]sim.ProgramFunc{}
	for _, p := range corpus.All() {
		p := p
		progs[p.Name] = func(kernelTarget bool) (*isa.Image, error) {
			c.mu.Lock()
			on, tr := c.on, c.tr
			c.mu.Unlock()
			st := newStamper(tr, -1, "compile")
			im, _, err := compile(p.Source, kernelOptions(kernelTarget), st)
			d := st.finish()
			if on {
				c.mu.Lock()
				c.durs = append(c.durs, d)
				c.mu.Unlock()
			}
			return im, err
		}
	}
	return progs
}

func kernelOptions(kernelTarget bool) codegen.MIPSOptions {
	if kernelTarget {
		return codegen.MIPSOptions{StackTop: codegen.KernelStackTop}
	}
	return codegen.MIPSOptions{}
}

// jobsEnv is the job service behind its /v1 HTTP API on a loopback
// port. Each epoch of the schedule gets a fresh service; the template
// pool, the fleet rollup, the tracer directory, the JIT event log and
// the HTTP server stay.
type jobsEnv struct {
	rec       *jobRecorder
	programs  map[string]sim.ProgramFunc
	pool      *sim.TemplatePool
	rollup    *fleet.Rollup
	directory *fleet.Directory
	jitLog    *trace.JITLog
	workers   int
	svc       *sim.Service
	api       atomic.Value // http.Handler of svc

	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

// startJobs composes the service as cmd/mipsd does — one worker per
// CPU, a metrics registry, a fleet rollup on OnJobTerminal, a fleet
// tracer directory, a shared JIT event log, a template pool, corpus
// programs compiled on demand — serves its /v1
// API on a loopback port and captures one kernel-mode template per
// job program through PUT /v1/templates.
func startJobs(rec *jobRecorder, comp *compileLog) (*jobsEnv, error) {
	e := &jobsEnv{
		rec:       rec,
		programs:  comp.programs(),
		pool:      sim.NewTemplatePool(),
		rollup:    fleet.NewRollup(fleet.DefaultRollupShards),
		directory: fleet.NewDirectory(),
		jitLog:    trace.NewJITLog(trace.DefaultJITLogSize),
		workers:   runtime.NumCPU(),
		served:    make(chan error, 1),
		client: &http.Client{
			Transport: &http.Transport{
				MaxConnsPerHost:     jobClients,
				MaxIdleConnsPerHost: jobClients,
			},
			Timeout: jobsDrain,
		},
	}
	e.newService()
	mux := http.NewServeMux()
	mux.Handle("/v1/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		e.api.Load().(http.Handler).ServeHTTP(w, r)
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.svc.Close()
		return nil, err
	}
	e.srv = &http.Server{Handler: mux}
	e.base = "http://" + ln.Addr().String()
	go func() { e.served <- e.srv.Serve(ln) }()
	for _, p := range jobPrograms {
		if _, err := e.call(http.MethodPut, "/v1/templates/"+p, map[string]any{"program": p, "kernel": true}, http.StatusCreated); err != nil {
			e.close()
			return nil, fmt.Errorf("template %s: %w", p, err)
		}
	}
	return e, nil
}

// newService closes the current service, whose jobs have all ended,
// and routes the API to a fresh one.
func (e *jobsEnv) newService() {
	if e.svc != nil {
		e.svc.Close()
	}
	e.svc = sim.NewService(sim.ServiceConfig{
		Workers: e.workers,
		Metrics: trace.NewRegistry(),
		Tracers: e.directory,
		JIT:     e.jitLog,
		OnJobTerminal: func(s sim.JobSample) {
			e.rollup.Observe(fleet.JobSample{
				Tenant:           s.Tenant,
				Engine:           s.Engine,
				Outcome:          s.Outcome,
				LatencySeconds:   s.LatencySeconds,
				AdmissionSeconds: s.AdmissionSeconds,
				InstrsPerSec:     s.InstrsPerSec,
				Instructions:     s.Instructions,
				Preempts:         s.Preempts,
				Counters:         s.Counters,
			})
			e.rec.terminal(s)
		},
	})
	e.api.Store(e.svc.Handler(sim.HTTPConfig{Programs: e.programs, Templates: e.pool}))
}

// close stops the HTTP server and the service and waits for both.
func (e *jobsEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		e.srv.Close()
	}
	<-e.served
	e.client.CloseIdleConnections()
	if err := e.svc.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: drain:", err)
	}
	e.svc.Close()
}

// call makes one API request and returns the response body, or an
// error when the status is not the one expected.
func (e *jobsEnv) call(method, path string, body any, wantStatus int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, e.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != wantStatus {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// submit posts one job and returns its ID.
func (e *jobsEnv) submit(i int, op *jobOp) (string, error) {
	req := map[string]any{"name": strconv.Itoa(i)}
	if op.cold {
		req["program"], req["kernel"] = op.program, true
	} else {
		req["template"] = op.program
	}
	body, err := e.call(http.MethodPost, "/v1/jobs", req, http.StatusAccepted)
	if err != nil {
		return "", err
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		return "", fmt.Errorf("submit: bad status body %q", body)
	}
	return st.ID, nil
}

// jobWants are a program's oracles: forked from its template, and
// cold-compiled and kernel-booted.
type jobWants struct{ fork, cold want }

// jobOracles runs every job program on the reference engine both ways
// a job runs it and checks both against the interpreter.
func jobOracles(pool *sim.TemplatePool) (map[string]jobWants, error) {
	wants := make(map[string]jobWants)
	for _, name := range jobPrograms {
		p, err := corpus.Get(name)
		if err != nil {
			return nil, err
		}
		out, err := interpOutput(p, lang.WordAlloc)
		if err != nil {
			return nil, err
		}
		t, err := pool.Get(name)
		if err != nil {
			return nil, err
		}
		var w jobWants
		w.fork, err = oracle(name+"/fork", out, func() (*sim.Machine, error) {
			return t.Fork(sim.WithEngine(sim.Reference))
		})
		if err != nil {
			return nil, err
		}
		w.cold, err = oracle(name+"/cold", out, func() (*sim.Machine, error) {
			im, _, err := compile(p.Source, kernelOptions(true), newStamper(nil, -1, ""))
			if err != nil {
				return nil, err
			}
			m, err := sim.New(sim.WithEngine(sim.Reference), sim.WithKernel(kernel.Config{}))
			if err != nil {
				return nil, err
			}
			return m, m.Load(im)
		})
		if err != nil {
			return nil, err
		}
		wants[name] = w
	}
	return wants, nil
}

func (w jobWants) of(op *jobOp) want {
	if op.cold {
		return w.cold
	}
	return w.fork
}

// fetch reads a terminal job's output and checks the job against its
// oracle.
func (e *jobsEnv) fetch(op *jobOp, w want) {
	<-op.submitted
	op.fetchStart = time.Now()
	defer func() { op.fetchDone, op.fetched = time.Now(), true }()
	if op.id == "" {
		op.err = fmt.Errorf("job finished but its submission failed: %v", op.submitErr)
		return
	}
	out, err := e.call(http.MethodGet, "/v1/jobs/"+op.id+"/output", nil, http.StatusOK)
	switch {
	case err != nil:
		op.err = err
	case op.sample.Outcome != sim.JobDone.String():
		op.err = fmt.Errorf("job %s ended %s", op.id, op.sample.Outcome)
	case string(out) != w.output:
		op.err = fmt.Errorf("job %s printed %q, oracle %q", op.id, out, w.output)
	case op.sample.Instructions != w.instrs:
		op.err = fmt.Errorf("job %s ran %d instructions, reference engine %d", op.id, op.sample.Instructions, w.instrs)
	}
}

// jobsEpoch is how much of the schedule one service instance serves.
// The service keeps every job and its machine until it closes: 0.8 MB
// a forked job and 16 MB a cold one. So the workload hands each epoch
// to a fresh service, between arrivals and untimed, to keep the
// process's memory bounded.
const jobsEpoch = 250 * time.Millisecond

// epoch is the index of the epoch that serves op.
func (op *jobOp) epoch() int { return int(op.at / jobsEpoch) }

// tracedEpoch reports whether a traced run traces the epoch: every
// other one, so the untraced epochs measure what tracing costs.
func tracedEpoch(epoch int) bool { return epoch%2 == 0 }

func runJobs(cfg config) (*outcome, error) {
	rec, comp := &jobRecorder{}, &compileLog{}
	var env *jobsEnv
	setup, release, err := timeSetup(func() (func(), error) {
		e, err := startJobs(rec, comp)
		if err != nil {
			return nil, err
		}
		env = e
		return e.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer release()
	// Oracles, outside set-up and outside the window.
	wants, err := jobOracles(env.pool)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	ops := jobSchedule(cfg.seed, jobsRate, cfg.window)
	if len(ops) == 0 {
		return nil, errors.New("the schedule holds no job")
	}
	rec.arm(ops)

	rss := startWindowRSS()
	var alloc uint64
	for lo := 0; lo < len(ops); {
		epoch := ops[lo].epoch()
		hi := lo
		for hi < len(ops) && ops[hi].epoch() == epoch {
			hi++
		}
		if lo > 0 {
			env.newService()
		}
		epochTr := tr
		if !tracedEpoch(epoch) {
			epochTr = nil
		}
		comp.arm(true, epochTr)
		a, drained := runEpoch(env, rec, ops, lo, hi, time.Duration(epoch)*jobsEpoch, wants)
		// The service still holds every job of the epoch.
		rss.sample()
		alloc += a
		lo = hi
		if !drained {
			for _, op := range ops[lo:] {
				op.submitErr = errors.New("not run: an earlier epoch did not drain")
			}
			break
		}
	}
	comp.arm(false, nil)
	oc, err := jobMetrics(cfg, ops, wants, setup, env.workers, alloc, rss, comp, tr)
	if err == nil && cfg.traced {
		oc.values["sim.fork_us"], err = forkTime(env.pool)
	}
	return oc, err
}

// runEpoch serves ops[lo:hi] from one service: this goroutine submits
// each job at its due time, and one more fetches each job's output as
// it finishes. It returns the bytes allocated and whether every
// accepted job was fetched within jobsDrain.
func runEpoch(env *jobsEnv, rec *jobRecorder, ops []*jobOp, lo, hi int, offset time.Duration, wants map[string]jobWants) (alloc uint64, drained bool) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for _, op := range ops[lo:hi] {
		op.due = start.Add(op.at - offset)
	}
	total := make(chan int, 1)
	stop := make(chan struct{})
	fetcherDone := make(chan struct{})
	go func() {
		defer close(fetcherDone)
		want := -1
		for n := 0; want < 0 || n < want; {
			select {
			case i := <-rec.done:
				env.fetch(ops[i], wants[ops[i].program].of(ops[i]))
				n++
			case want = <-total:
			case <-stop:
				return
			}
		}
	}()
	accepted := 0
	for i := lo; i < hi; i++ {
		op := ops[i]
		time.Sleep(time.Until(op.due))
		op.sent = time.Now()
		op.id, op.submitErr = env.submit(i, op)
		op.submitDone = time.Now()
		close(op.submitted)
		if op.submitErr == nil {
			accepted++
		}
	}
	total <- accepted
	drained = true
	select {
	case <-fetcherDone:
	case <-time.After(jobsDrain):
		drained = false
		close(stop)
		<-fetcherDone
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, drained
}

// jobMetrics reduces the measured jobs to the workload's metrics.
func jobMetrics(cfg config, ops []*jobOp, wants map[string]jobWants, setup float64, workers int, alloc uint64, rss *windowRSS, comp *compileLog, tr *tracer) (*outcome, error) {
	oc := &outcome{attempted: len(ops), values: map[string]float64{
		"setup_s":     setup,
		"peak_rss_mb": rss.mb(),
	}}
	var lat, tracedLat, plainLat, submit, output, late, admission, runMS []float64
	var instrs, traceInstrs, compiled, exits, quanta, cowFaults, forks, cycles uint64
	var runTime, tracedLatTotal float64
	for i, op := range ops {
		late = append(late, ms(op.sent.Sub(op.due)))
		submit = append(submit, ms(op.submitDone.Sub(op.sent)))
		switch {
		case op.submitErr != nil:
			op.err = op.submitErr
		case !op.fetched:
			op.err = fmt.Errorf("job %s not fetched within %v of its epoch's last arrival", op.id, jobsDrain)
		}
		if op.err != nil {
			if oc.failed++; oc.failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: job %d (%s): %v\n", i, op.program, op.err)
			}
			// A failed job misses any latency limit.
			lat = append(lat, ms(jobsDrain))
			continue
		}
		l := ms(op.terminal.Sub(op.due))
		lat = append(lat, l)
		traced := tracedEpoch(op.epoch())
		if traced {
			tracedLat = append(tracedLat, l)
			tracedLatTotal += l * 1e3
		} else {
			plainLat = append(plainLat, l)
		}
		s := op.sample
		output = append(output, ms(op.fetchDone.Sub(op.fetchStart)))
		admission = append(admission, s.AdmissionSeconds*1e6)
		instrs += s.Instructions
		if s.InstrsPerSec > 0 {
			run := float64(s.Instructions) / s.InstrsPerSec
			runTime += run
			runMS = append(runMS, run*1e3)
		}
		quanta += s.Preempts
		traceInstrs += s.Counters["xlate.tier."+cpu.TierTraces.String()]
		compiled += s.Counters["xlate.trace.compiled"]
		exits += s.Counters["xlate.trace.guard_exits"]
		if !op.cold {
			forks++
			cowFaults += s.Counters["jobs.cow_faults"]
		}
		cycles += wants[op.program].of(op).cycles
		if tr != nil && traced {
			root := tr.add("op", i, -1, op.due, op.fetchDone)
			tr.setLabel(root, op.String())
			tr.add("http.submit", i, root, op.sent, op.submitDone)
			tr.add("http.output", i, root, op.fetchStart, op.fetchDone)
		}
	}
	ok := float64(len(ops) - oc.failed)
	if ok == 0 {
		return nil, errors.New("no job succeeded")
	}
	var compileMS []float64
	var compileTime float64
	comp.mu.Lock()
	for _, d := range comp.durs {
		compileMS = append(compileMS, ms(d))
		compileTime += d.Seconds()
	}
	comp.mu.Unlock()

	v := oc.values
	// The service's capacity: jobs done per second of worker time, over
	// the workers. Worker time is what the service's own stamps and the
	// wrapped compiles show: each job's run and each cold job's compile.
	v["ops_per_s"] = ok / ((runTime + compileTime) / float64(workers))
	// Timings are block medians over equal slices of the schedule.
	key := make([]int, len(ops))
	for i, op := range ops {
		key[i] = int(op.at * nBlocks / cfg.window)
	}
	for name, q := range map[string]float64{"latency_ms_p50": 0.50, "latency_ms_p99": 0.99} {
		v[name] = blockMedian(key, nBlocks, func(idx []int) float64 {
			var l []float64
			for _, i := range idx {
				l = append(l, lat[i])
			}
			return quantile(l, q)
		})
	}
	v["sim_minstr_per_s"] = blockMedian(key, nBlocks, func(idx []int) float64 {
		var in uint64
		var run float64
		for _, i := range idx {
			if s := ops[i].sample; ops[i].err == nil && s.InstrsPerSec > 0 {
				in, run = in+s.Instructions, run+float64(s.Instructions)/s.InstrsPerSec
			}
		}
		return float64(in) / run / 1e6
	})
	v["sim_cycles_per_op"] = float64(cycles) / ok
	v["alloc_kb_per_op"] = float64(alloc) / 1024 / float64(len(ops))
	if !cfg.traced {
		return oc, nil
	}

	v["http.submit_ms_p50"] = quantile(submit, 0.50)
	v["http.submit_ms_p99"] = quantile(submit, 0.99)
	v["http.output_ms_p50"] = quantile(output, 0.50)
	v["sim.admission_us_p50"] = quantile(admission, 0.50)
	v["sim.admission_us_p99"] = quantile(admission, 0.99)
	v["sim.run_ms_p50"] = quantile(runMS, 0.50)
	v["sim.quanta_per_job"] = float64(quanta) / ok
	v["mem.cow_faults_per_job"] = ratio(float64(cowFaults), float64(forks))
	v["cpu.ns_per_instr"] = ratio(runTime*1e9, float64(instrs))
	v["xlate.trace_residency"] = ratio(float64(traceInstrs), float64(instrs))
	v["xlate.trace.compiled_per_op"] = float64(compiled) / ok
	v["xlate.trace.guard_exits_per_kinstr"] = ratio(float64(exits), float64(instrs)/1000)
	v["gen.late_ms_p99"] = quantile(late, 0.99)
	// Only the cold compiles of traced epochs record spans inside the
	// window; the op and HTTP spans are built from stamps afterwards.
	v["bench.trace_overhead_frac"] = ratio(median(tracedLat), median(plainLat)) - 1
	v["codegen.compile_ms_p50"] = quantile(compileMS, 0.50)
	if bad := tr.nestingErrors(); bad != 0 {
		return nil, fmt.Errorf("%d spans are not nested in their op", bad)
	}
	l := tr.layers()
	for metric, span := range compileLayers {
		// Per traced cold compile, and as a share of the traced jobs'
		// latency.
		v[metric+"_us"] = ratio(us(l[span].self), float64(l["compile"].count))
		v[metric+"_share"] = ratio(us(l[span].self), tracedLatTotal)
	}
	v["bench.op_self_share"] = ratio(float64(l["op"].self), float64(l["op"].total))
	return oc, tr.writeChrome(tracePath(cfg), cfg.fp)
}

// forkReps is how many forks forkTime makes of each template.
const forkReps = 20

// forkTime times Template.Fork plus the fork's Boot, from outside, for
// every job template, and returns the median in microseconds.
func forkTime(pool *sim.TemplatePool) (float64, error) {
	var samples []float64
	for rep := 0; rep < forkReps; rep++ {
		for _, name := range jobPrograms {
			t, err := pool.Get(name)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			m, err := t.Fork()
			if err != nil {
				return 0, err
			}
			m.Boot()
			samples = append(samples, us(time.Since(start)))
		}
	}
	return median(samples), nil
}
