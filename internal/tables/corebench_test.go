package tables

import (
	"strings"
	"testing"

	"mips/internal/corpus"
	"mips/internal/sim"
)

// TestCoreBenchChecksOutputWithoutGolden plants a wrong expectation for
// formatter, one of the corpus programs without a golden Output: the
// run must fail, so the interpreter-derived check really covers them.
func TestCoreBenchChecksOutputWithoutGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full corpus")
	}
	p, err := corpus.Get("formatter")
	if err != nil {
		t.Fatal(err)
	}
	if p.Output != "" {
		t.Fatal("formatter has a golden Output; plant the expectation on a program without one")
	}
	oracle := expectedOutput
	t.Cleanup(func() { expectedOutput = oracle })
	expectedOutput = func(p corpus.Program) (string, error) {
		want, err := oracle(p)
		if p.Name == "formatter" {
			want += "wrong"
		}
		return want, err
	}
	_, err = CoreBenchRun(0, sim.Default, nil)
	if err == nil || !strings.Contains(err.Error(), "formatter: wrong output") {
		t.Fatalf("CoreBenchRun error = %v, want formatter's wrong output", err)
	}
}
