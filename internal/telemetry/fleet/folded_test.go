package fleet

import (
	"bytes"
	"net/http/httptest"
	"reflect"
	"testing"

	"mips/internal/trace"
)

// TestFoldedRoundTrip checks the folded stacks a peer renders with
// trace.WriteFolded come back unchanged through the federation's scrape
// and parse of its fleet flamegraph.
func TestFoldedRoundTrip(t *testing.T) {
	m := map[string]uint64{
		"user;main":       100,
		"user;helper":     100,
		"kernel;<kernel>": 7,
	}
	var buf bytes.Buffer
	if err := trace.WriteFolded(&buf, m); err != nil {
		t.Fatal(err)
	}
	peer := fakeWorker(t, "", buf.String())
	fed := NewFederation(0)
	if _, err := fed.AddPeer(peer.URL); err != nil {
		t.Fatal(err)
	}
	back, failed := fed.MergedFolded(nil)
	if failed != 0 {
		t.Fatalf("failed = %d, want 0", failed)
	}
	if !reflect.DeepEqual(back, m) {
		t.Errorf("round trip = %v, want %v", back, m)
	}
}

// TestParseFoldedErrors checks a peer serving malformed folded text is
// counted as failed and merges nothing, while blank lines are tolerated
// and duplicate stacks sum.
func TestParseFoldedErrors(t *testing.T) {
	noCount := fakeWorker(t, "", "nocount\n")
	badCount := fakeWorker(t, "", "stack notanumber\n")
	dup := fakeWorker(t, "", "\nuser;f 1\n\nuser;f 2\n")
	fed := NewFederation(0)
	for _, ts := range []*httptest.Server{noCount, badCount, dup} {
		if _, err := fed.AddPeer(ts.URL); err != nil {
			t.Fatal(err)
		}
	}
	merged, failed := fed.MergedFolded(nil)
	if failed != 2 {
		t.Errorf("failed = %d, want 2 (line without a count, non-numeric count)", failed)
	}
	if fed.ScrapeErrors() != 2 {
		t.Errorf("scrape errors = %d, want 2", fed.ScrapeErrors())
	}
	want := map[string]uint64{"user;f": 3}
	if !reflect.DeepEqual(merged, want) {
		t.Errorf("merged = %v, want %v (duplicate stacks summed, bad peers skipped)", merged, want)
	}
}
