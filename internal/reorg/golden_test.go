package reorg_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mips/internal/asm"
	"mips/internal/codegen"
	"mips/internal/corpus"
	"mips/internal/lang"
	"mips/internal/reorg"
)

// The golden pin: for every corpus program, compiled in each of the
// four variants the paper's tables use, the reorganizer's output unit
// and Stats under each option set must match the checked-in hashes byte
// for byte. Any change to scheduling, packing or delay filling shows up
// here, so a rewrite that claims identical output is held to it.
//
// Only an intended change of output regenerates the pin: delete the
// file and run the test, which writes it from the current reorganizer
// and fails until the new file is reviewed and committed.
const goldenFile = "testdata/golden.txt"

// goldenOptions are the option sets the pin covers.
var goldenOptions = []struct {
	name string
	opt  reorg.Options
}{
	{"all", reorg.All()},
	{"none", reorg.Options{}},
	{"reorg", reorg.Options{Reorganize: true}},
	{"pack", reorg.Options{Pack: true}},
	{"delay", reorg.Options{FillDelay: true}},
	{"all+interlocks", reorg.Options{Reorganize: true, Pack: true, FillDelay: true, AssumeInterlocks: true}},
}

// corpusVariant is one of the four compilations of a corpus program.
type corpusVariant struct {
	name string
	mopt codegen.MIPSOptions
}

var corpusVariants = []corpusVariant{
	{"word-sc", codegen.MIPSOptions{Mode: lang.WordAlloc}},
	{"word-nosc", codegen.MIPSOptions{Mode: lang.WordAlloc, NoSetCond: true}},
	{"byte-sc", codegen.MIPSOptions{Mode: lang.ByteAlloc}},
	{"byte-nosc", codegen.MIPSOptions{Mode: lang.ByteAlloc, NoSetCond: true}},
}

// genUnit compiles a corpus program to the reorganizer's input.
func genUnit(tb testing.TB, p corpus.Program, v corpusVariant) *asm.Unit {
	tb.Helper()
	prog, err := lang.Parse(p.Source)
	if err != nil {
		tb.Fatalf("%s: parse: %v", p.Name, err)
	}
	u, err := codegen.GenMIPS(prog, v.mopt)
	if err != nil {
		tb.Fatalf("%s/%s: codegen: %v", p.Name, v.name, err)
	}
	return u
}

// render is the full text of a unit: every statement with its labels,
// pieces (all fields), region flag and line, then the data section. The
// code generator emits string data in map order, so the data items are
// rendered sorted by address.
func render(u *asm.Unit) string {
	c := *u
	c.Data = append([]asm.DataItem(nil), u.Data...)
	sort.Slice(c.Data, func(i, j int) bool { return c.Data[i].Addr < c.Data[j].Addr })
	return fmt.Sprintf("%+v", c)
}

func hashOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestReorganizeGolden(t *testing.T) {
	var got []string
	for _, p := range corpus.All() {
		for _, v := range corpusVariants {
			for _, o := range goldenOptions {
				out, st := reorg.Reorganize(genUnit(t, p, v), o.opt)
				if st.DelayFilled > st.DelaySlots {
					t.Errorf("%s/%s/%s: DelayFilled %d > DelaySlots %d", p.Name, v.name, o.name, st.DelayFilled, st.DelaySlots)
				}
				got = append(got, fmt.Sprintf("%s/%s/%s %s %+v", p.Name, v.name, o.name, hashOf(render(out)), st))
			}
		}
	}

	data, err := os.ReadFile(goldenFile)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s from the current reorganizer: review and commit it", goldenFile)
	}
	if err != nil {
		t.Fatalf("read golden file: %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("output differs from golden:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
