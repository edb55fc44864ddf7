package trace_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mips/internal/trace"
)

// TestFoldedRoundTrip pins the folded flamegraph codec. A fixed map
// renders heaviest stack first, ties broken by name, and parses back
// unchanged. A real run's profile (queens) parses back to exactly the
// stack -> weight map of the older one-line-per-symbol rendering, and
// its weights sum to the run's total cycles.
func TestFoldedRoundTrip(t *testing.T) {
	m := map[string]uint64{
		"user;main":       100,
		"user;helper":     100, // ties break by stack name
		"kernel;<kernel>": 7,
	}
	var buf bytes.Buffer
	if err := trace.WriteFolded(&buf, m); err != nil {
		t.Fatal(err)
	}
	if want := "user;helper 100\nuser;main 100\nkernel;<kernel> 7\n"; buf.String() != want {
		t.Errorf("folded output:\n%s\nwant:\n%s", buf.String(), want)
	}
	back, err := trace.ParseFolded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Errorf("round trip = %v, want %v", back, m)
	}

	obs, _, res := runObserved(t, "queens")
	p := obs.Profiler
	buf.Reset()
	if err := trace.WriteFolded(&buf, p.Folded()); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ParseFolded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var perSymbol bytes.Buffer
	sanitize := strings.NewReplacer(";", "_", " ", "_")
	for _, row := range p.Flat() {
		space := "user"
		if row.Kernel {
			space = "kernel"
		}
		fmt.Fprintf(&perSymbol, "%s;%s %d\n", space, sanitize.Replace(row.Name), row.Cycles)
	}
	want, err := trace.ParseFolded(&perSymbol)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("queens folded stacks = %v, want %v", got, want)
	}
	var sum uint64
	for stack, n := range got {
		if !strings.HasPrefix(stack, "user;") && !strings.HasPrefix(stack, "kernel;") {
			t.Errorf("stack %q not rooted in an address space", stack)
		}
		sum += n
	}
	if sum != res.Stats.Cycles {
		t.Errorf("folded weights sum to %d, Stats.Cycles = %d", sum, res.Stats.Cycles)
	}
}

func TestParseFoldedErrors(t *testing.T) {
	if _, err := trace.ParseFolded(strings.NewReader("nocount\n")); err == nil {
		t.Error("line without a count must error")
	}
	if _, err := trace.ParseFolded(strings.NewReader("a;b notanumber\n")); err == nil {
		t.Error("non-numeric count must error")
	}
	// Blank lines are tolerated; duplicate stacks sum.
	m, err := trace.ParseFolded(strings.NewReader("\nuser;f 1\n\nuser;f 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m["user;f"] != 3 {
		t.Errorf("duplicate stacks = %d, want summed 3", m["user;f"])
	}
}

func TestMergeFolded(t *testing.T) {
	dst := map[string]uint64{"a;b": 1}
	trace.MergeFolded(dst, map[string]uint64{"a;b": 2, "c;d": 3})
	if dst["a;b"] != 3 || dst["c;d"] != 3 {
		t.Errorf("merge = %v", dst)
	}
}
