package reorg_test

import (
	"testing"

	"mips/internal/asm"
	"mips/internal/corpus"
	"mips/internal/reorg"
)

var sinkStats reorg.Stats

// BenchmarkReorganizeCorpus reorganizes all 44 corpus compilations
// (11 programs × {word, byte} × {set-conditional on, off}) with every
// optimization on, the reorganizer's share of the paper path. One op is
// the whole set.
func BenchmarkReorganizeCorpus(b *testing.B) {
	var units []*asm.Unit
	for _, p := range corpus.All() {
		for _, v := range corpusVariants {
			units = append(units, genUnit(b, p, v))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range units {
			_, sinkStats = reorg.Reorganize(u, reorg.All())
		}
	}
}
