package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"mips/internal/trace"
)

// TestFoldedRoundTrip pins the /profile/flame body: parsing the folded
// stacks served for a real run recovers every symbol's exact cycle
// weight, and the weights sum to the run's total cycles.
func TestFoldedRoundTrip(t *testing.T) {
	_, _, profiler, res := runCorpus(t, "calc")
	ts := httptest.NewServer(New(Config{Program: "test", Profiler: profiler}).Handler())
	defer ts.Close()
	parsed, err := trace.ParseFolded(strings.NewReader(get(t, ts.URL+"/profile/flame")))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) == 0 {
		t.Fatal("empty folded profile")
	}
	var sum uint64
	for stack, n := range parsed {
		if !strings.HasPrefix(stack, "user;") && !strings.HasPrefix(stack, "kernel;") {
			t.Errorf("stack %q not rooted in an address space", stack)
		}
		sum += n
	}
	if sum != res.Stats.Cycles {
		t.Errorf("folded weights sum to %d, Stats.Cycles = %d", sum, res.Stats.Cycles)
	}
	// Cross-check every symbol against the flat profile.
	sanitize := strings.NewReplacer(";", "_", " ", "_")
	for _, row := range profiler.Flat() {
		space := "user"
		if row.Kernel {
			space = "kernel"
		}
		if got := parsed[space+";"+sanitize.Replace(row.Name)]; got != row.Cycles {
			t.Errorf("symbol %s: folded %d, flat %d", row.Name, got, row.Cycles)
		}
	}
}

// TestParseFoldedRejectsGarbage checks a corrupted /profile/flame
// download is detected rather than silently under-counted: the served
// body parses, and the same body with a garbage line appended does not.
func TestParseFoldedRejectsGarbage(t *testing.T) {
	_, _, profiler, _ := runCorpus(t, "calc")
	ts := httptest.NewServer(New(Config{Program: "test", Profiler: profiler}).Handler())
	defer ts.Close()
	body := get(t, ts.URL+"/profile/flame")
	if _, err := trace.ParseFolded(strings.NewReader(body)); err != nil {
		t.Fatalf("served flame body does not parse: %v", err)
	}
	for _, garbage := range []string{"nocount\n", "a;b notanumber\n"} {
		if _, err := trace.ParseFolded(strings.NewReader(body + garbage)); err == nil {
			t.Errorf("flame body + %q accepted", garbage)
		}
	}
}

func TestProfileTopEndpoint(t *testing.T) {
	_, _, profiler, res := runCorpus(t, "calc")
	srv := New(Config{Program: "test", Profiler: profiler})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var out struct {
		TotalCycles uint64     `json:"total_cycles"`
		Symbols     []TopEntry `json:"symbols"`
	}
	if err := json.Unmarshal([]byte(get(t, ts.URL+"/profile/top?n=3")), &out); err != nil {
		t.Fatal(err)
	}
	if out.TotalCycles != res.Stats.Cycles {
		t.Errorf("total_cycles = %d, want %d", out.TotalCycles, res.Stats.Cycles)
	}
	if len(out.Symbols) == 0 || len(out.Symbols) > 3 {
		t.Fatalf("got %d symbols, want 1..3", len(out.Symbols))
	}
	// Flat order: descending cycles.
	for i := 1; i < len(out.Symbols); i++ {
		if out.Symbols[i].Cycles > out.Symbols[i-1].Cycles {
			t.Error("top symbols not sorted by cycles")
		}
	}
}
