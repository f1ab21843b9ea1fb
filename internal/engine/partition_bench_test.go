package engine

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/storage"
)

// The partition and category-count rungs of the benchmark ladder: the
// CUT kernels on census at n=1M, serial, under a full and a ~10%
// selection, over an eager chunked table and over its lazy view (chunk
// payloads served zero-copy, so the rung times the kernel, not decode).
//
//	go test -run=NONE -bench='PartitionBits|CategoryCounts' -benchtime=10x ./internal/engine

const benchRows = 1_000_000

var (
	benchOnce   sync.Once
	benchTables map[string]*storage.Table
	benchSels   map[string]*bitvec.Vector

	partitionSink []*bitvec.Vector
	countsSink    []int
)

// benchCensus returns census n=1M plus a bool column senior (age ≥ 55),
// as "eager" and "lazy" tables, and the "full" and "10pct" selections.
func benchCensus(b *testing.B) (map[string]*storage.Table, map[string]*bitvec.Vector) {
	b.Helper()
	benchOnce.Do(func() {
		census := datagen.Census(benchRows, 1)
		ages := census.Column(0).(*storage.Int64Column).Values()
		senior := make([]bool, len(ages))
		for i, a := range ages {
			senior[i] = a >= 55
		}
		fields := append(census.Schema().Fields(), storage.Field{Name: "senior", Type: storage.Bool})
		cols := make([]storage.Column, 0, len(fields))
		for i := 0; i < census.NumCols(); i++ {
			cols = append(cols, census.Column(i))
		}
		cols = append(cols, storage.NewBoolColumn(senior, nil))
		eager := chunkedTable(b, storage.MustSchema(fields...), cols, storage.ChunkRows)
		benchTables = map[string]*storage.Table{"eager": eager, "lazy": lazyView(b, eager)}

		r := rand.New(rand.NewSource(7))
		tenth := bitvec.New(benchRows)
		for i := 0; i < benchRows; i++ {
			if r.Intn(10) == 0 {
				tenth.Set(i)
			}
		}
		benchSels = map[string]*bitvec.Vector{"full": bitvec.NewFull(benchRows), "10pct": tenth}
	})
	return benchTables, benchSels
}

// BenchmarkPartitionBits: one CUT partition pass — the numeric binary
// median cut of age, an 8-way equi-width cut of age (WITH SPLITS 8), the
// per-value categorical cut of education and the bool cut of senior.
func BenchmarkPartitionBits(b *testing.B) {
	tables, sels := benchCensus(b)
	cuts := []struct {
		name  string
		preds []query.Predicate
	}{
		{"numeric", []query.Predicate{query.NewRangeHalfOpen("age", 17, 55), query.NewRange("age", 55, 90)}},
		{"numeric8", cutPreds("age", linspace(17, 90, 8)...)},
		{"categorical", []query.Predicate{query.NewIn("education", "BSc"), query.NewIn("education", "HS"), query.NewIn("education", "MSc")}},
		{"bool", []query.Predicate{query.NewBoolEq("senior", false), query.NewBoolEq("senior", true)}},
	}
	for _, tn := range []string{"eager", "lazy"} {
		for _, sn := range []string{"full", "10pct"} {
			for _, c := range cuts {
				b.Run(tn+"/"+sn+"/"+c.name, func(b *testing.B) {
					for b.Loop() {
						out, err := PartitionBitsOpts(tables[tn], c.preds[0].Attr, c.preds, sels[sn], ScanOptions{})
						if err != nil {
							b.Fatal(err)
						}
						partitionSink = out
					}
				})
			}
		}
	}
}

// BenchmarkCategoryCounts: the per-code counts behind a categorical cut.
func BenchmarkCategoryCounts(b *testing.B) {
	tables, sels := benchCensus(b)
	for _, tn := range []string{"eager", "lazy"} {
		for _, sn := range []string{"full", "10pct"} {
			b.Run(tn+"/"+sn, func(b *testing.B) {
				for b.Loop() {
					_, counts, err := CategoryCountsUnderCtx(nil, tables[tn], "education", sels[sn])
					if err != nil {
						b.Fatal(err)
					}
					countsSink = counts
				}
			})
		}
	}
}
