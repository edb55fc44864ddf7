package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	name   string
	op     int // trace id: the op's index, or -1 outside any op
	parent int // index of the enclosing span, or -1
	start  time.Duration
	end    time.Duration // since the tracer's epoch
	label  string        // what the span worked on, for the Chrome args
}

// maxSpans bounds the tracer's memory; spans past it are dropped and
// counted.
const maxSpans = 1 << 20

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
// Safe for concurrent use: the jobs workload records from its
// generator, its output fetcher and the service's workers.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its index for children to
// name as parent (-1 when nothing was recorded).
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	return len(t.spans) - 1
}

// end sets the end of a span recorded with add before its children;
// until then it ends where it starts.
func (t *tracer) end(i int, end time.Time) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].end = end.Sub(t.epoch)
	t.mu.Unlock()
}

// setLabel names what span i worked on, such as an op's program and
// variant.
func (t *tracer) setLabel(i int, label string) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].label = label
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the
// durations of its children. Children are recorded inside their
// parent and one after another, so an op's self time plus its layers'
// self times add up to the op's whole span.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// layerTotal is the summed self time of every span with one name.
type layerTotal struct {
	self  time.Duration
	total time.Duration
	count int
}

// layers sums self and total time per span name.
func (t *tracer) layers() map[string]layerTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.selfTimes()
	out := make(map[string]layerTotal)
	for i, s := range t.spans {
		l := out[s.name]
		l.self += self[i]
		l.total += s.end - s.start
		l.count++
		out[s.name] = l
	}
	return out
}

// nestingErrors counts spans that are not inside their parent or that
// overlap an earlier sibling: either would make self times wrong.
func (t *tracer) nestingErrors() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	bad := 0
	lastChildEnd := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.end < s.start {
			bad++
		}
		if s.parent < 0 {
			continue
		}
		p := t.spans[s.parent]
		if s.start < p.start || s.end > p.end || s.start < lastChildEnd[s.parent] {
			bad++
		}
		lastChildEnd[s.parent] = s.end
	}
	return bad
}

// chromeEvent is one complete ("X") event of the Chrome trace_event
// format; chrome://tracing and Perfetto load the file directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span as a Chrome trace_event JSON file, one
// thread row per op (row 0 holds spans outside any op), with each
// span's self time in its args.
func (t *tracer) writeChrome(path string, fp fingerprint) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.selfTimes()
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.name, Ph: "X", PID: 1, TID: s.op + 1,
			TS: us(s.start), Dur: us(s.end - s.start),
			Args: map[string]any{"op": s.op, "self_us": us(self[i])},
		}
		if s.label != "" {
			events[i].Args["case"] = s.label
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"fingerprint": fp, "dropped_spans": t.dropped},
	})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}

// tracePath names a traced run's Chrome trace file.
func tracePath(cfg config) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.trace.json", cfg.workload, cfg.seed))
}
