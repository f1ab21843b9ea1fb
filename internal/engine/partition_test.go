package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/query"
	"repro/internal/storage"
)

// chunkedTable builds a table over cols carrying zone maps for chunks of
// chunk rows.
func chunkedTable(tb testing.TB, schema *storage.Schema, cols []storage.Column, chunk int) *storage.Table {
	tb.Helper()
	ck, err := storage.ComputeChunking(storage.MustTable("t", schema, cols), chunk)
	if err != nil {
		tb.Fatal(err)
	}
	t, err := storage.NewChunkedTable("t", schema, cols, ck)
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// lazyView presents a chunked table as a memory-tiered one: every column
// becomes a LazyColumn whose chunk payloads alias the eager columns.
func lazyView(tb testing.TB, t *storage.Table) *storage.Table {
	tb.Helper()
	src, err := storage.TableChunkSource(t)
	if err != nil {
		tb.Fatal(err)
	}
	cols := make([]storage.Column, t.NumCols())
	for ci := range cols {
		c := t.Column(ci)
		cfg := storage.LazyColumnConfig{
			Source: src, Col: ci, Type: c.Type(), Rows: t.NumRows(),
			ChunkSize: t.Chunking().Size, NullCount: c.NullCount(),
		}
		if sc, ok := c.(*storage.StringColumn); ok {
			cfg.Dict = sc.Dict()
		}
		if cols[ci], err = storage.NewLazyColumn(cfg); err != nil {
			tb.Fatal(err)
		}
	}
	lazy, err := storage.NewChunkedTable(t.Name(), t.Schema(), cols, t.Chunking())
	if err != nil {
		tb.Fatal(err)
	}
	return lazy
}

// oracleTable builds n seeded rows over an Int64 column i, a Float64
// column f (with NaN, ±Inf and -0 among its values), a 400-value String
// column s and a Bool column b. Each row of each column is NULL with
// probability nullRate; NULL string rows carry an out-of-dictionary
// placeholder code, which no kernel may read.
func oracleTable(n int, nullRate float64, seed int64) (*storage.Schema, []storage.Column) {
	r := rand.New(rand.NewSource(seed))
	nulls := func() *bitvec.Vector {
		if nullRate == 0 {
			return nil
		}
		v := bitvec.New(n)
		for i := 0; i < n; i++ {
			if r.Float64() < nullRate {
				v.Set(i)
			}
		}
		return v
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, -2, 2}
	ints, floats, bools := make([]int64, n), make([]float64, n), make([]bool, n)
	codes := make([]uint32, n)
	dict := make([]string, 400)
	for i := range dict {
		dict[i] = fmt.Sprintf("v%03d", i)
	}
	for i := 0; i < n; i++ {
		ints[i] = int64(r.Intn(201) - 100)
		if r.Intn(8) == 0 {
			floats[i] = specials[r.Intn(len(specials))]
		} else {
			floats[i] = r.NormFloat64() * 2
		}
		codes[i] = uint32(r.Intn(20) * r.Intn(20))
		bools[i] = r.Intn(3) == 0
	}
	sNulls := nulls()
	for i := 0; i < n; i++ {
		if sNulls != nil && sNulls.Get(i) {
			codes[i] = 1 << 30
		}
	}
	schema := storage.MustSchema(
		storage.Field{Name: "i", Type: storage.Int64},
		storage.Field{Name: "f", Type: storage.Float64},
		storage.Field{Name: "s", Type: storage.String},
		storage.Field{Name: "b", Type: storage.Bool},
	)
	return schema, []storage.Column{
		storage.NewInt64Column(ints, nulls()),
		storage.NewFloat64Column(floats, nulls()),
		storage.NewStringColumnFromDict(dict, codes, sNulls),
		storage.NewBoolColumn(bools, nulls()),
	}
}

// cutPreds is the CUT shape over edges: [e0,e1), …, [ek-1,ek].
func cutPreds(attr string, edges ...float64) []query.Predicate {
	preds := make([]query.Predicate, len(edges)-1)
	for i := range preds {
		preds[i] = query.NewRangeHalfOpen(attr, edges[i], edges[i+1])
	}
	preds[len(preds)-1].HiIncl = true
	return preds
}

func rangeOf(attr string, lo, hi float64, loIncl, hiIncl bool) query.Predicate {
	p := query.NewRange(attr, lo, hi)
	p.LoIncl, p.HiIncl = loIncl, hiIncl
	return p
}

func linspace(lo, hi float64, k int) []float64 {
	edges := make([]float64, k+1)
	for i := range edges {
		edges[i] = lo + (hi-lo)*float64(i)/float64(k)
	}
	return edges
}

// oraclePredLists covers the CUT shape at k = 1, 2, 5 and 300 (with
// infinite edges too), first-match lists of other shapes (overlapping,
// unsorted, gapped, open last and point ranges) and open bounds where a
// step to the next float64 is delicate: at ±Inf, ±MaxFloat64, ±0 and NaN.
func oraclePredLists() map[string][]query.Predicate {
	lists := map[string][]query.Predicate{}
	for _, a := range []string{"i", "f"} {
		lists[a+"/cut1"] = cutPreds(a, -1, 1)
		lists[a+"/cut2"] = cutPreds(a, -100, 0, 100)
		lists[a+"/cut5"] = cutPreds(a, linspace(-3, 3, 5)...)
		lists[a+"/cut300"] = cutPreds(a, linspace(-150, 150, 300)...)
		lists[a+"/cutinf"] = cutPreds(a, math.Inf(-1), 0, math.Inf(1))
		lists[a+"/overlap"] = []query.Predicate{query.NewRange(a, 0, 10), query.NewRangeHalfOpen(a, 5, 20), query.NewRange(a, -5, 5)}
		lists[a+"/unsorted"] = []query.Predicate{query.NewRangeHalfOpen(a, 1, 2), query.NewRangeHalfOpen(a, -10, 0), query.NewRangeHalfOpen(a, 0, 1)}
		lists[a+"/gapped"] = []query.Predicate{query.NewRangeHalfOpen(a, -10, -1), query.NewRangeHalfOpen(a, 0, 1), query.NewRange(a, 2, 50)}
		lists[a+"/openlast"] = []query.Predicate{query.NewRangeHalfOpen(a, -2, 0), query.NewRangeHalfOpen(a, 0, 2)}
		point := query.NewRange(a, 0, 0)
		open := query.NewRange(a, 0, 2)
		open.LoIncl = false
		lists[a+"/points"] = []query.Predicate{point, open, query.NewRange(a, math.Inf(-1), math.Inf(1))}
		inf, maxf, negz, nan := math.Inf(1), math.MaxFloat64, math.Copysign(0, -1), math.NaN()
		lists[a+"/bounds"] = []query.Predicate{
			rangeOf(a, inf, inf, false, true), rangeOf(a, -inf, -inf, true, false),
			rangeOf(a, maxf, inf, false, true), rangeOf(a, -inf, -maxf, true, false),
			rangeOf(a, negz, 0, false, true), rangeOf(a, 0, 1, false, false),
			rangeOf(a, nan, 2, false, true), rangeOf(a, -1, inf, true, false),
		}
	}
	perValue := make([]query.Predicate, 300)
	for i := range perValue {
		perValue[i] = query.NewIn("s", fmt.Sprintf("v%03d", (i*7)%400), fmt.Sprintf("v%03d", i))
	}
	lists["s/k300"] = perValue
	lists["s/groups"] = []query.Predicate{
		query.NewIn("s", "v000", "v001", "v004", "nope"),
		query.NewIn("s", "v001", "v009", "v016"),
		query.NewIn("s", "missing"),
		query.NewIn("s", "v036", "v000"),
	}
	lists["b/both"] = []query.Predicate{query.NewBoolEq("b", false), query.NewBoolEq("b", true)}
	lists["b/true"] = []query.Predicate{query.NewBoolEq("b", true)}
	lists["b/dup"] = []query.Predicate{query.NewBoolEq("b", true), query.NewBoolEq("b", false), query.NewBoolEq("b", true)}
	return lists
}

// oraclePartition is the per-row definition of PartitionBitsOpts: each
// selected non-NULL row joins the first predicate its value satisfies.
func oraclePartition(col storage.Column, preds []query.Predicate, sel *bitvec.Vector) []*bitvec.Vector {
	out := make([]*bitvec.Vector, len(preds))
	for i := range out {
		out[i] = bitvec.New(col.Len())
	}
	for i := 0; i < col.Len(); i++ {
		if !sel.Get(i) || col.IsNull(i) {
			continue
		}
		for ri, p := range preds {
			var ok bool
			switch c := col.(type) {
			case *storage.Int64Column:
				ok = p.MatchFloat(float64(c.At(i)))
			case *storage.Float64Column:
				ok = p.MatchFloat(c.At(i))
			case *storage.StringColumn:
				ok = p.MatchString(c.At(i))
			case *storage.BoolColumn:
				ok = p.MatchBool(c.At(i))
			}
			if ok {
				out[ri].Set(i)
				break
			}
		}
	}
	return out
}

func oracleSelections(n int, seed int64) map[string]*bitvec.Vector {
	r := rand.New(rand.NewSource(seed))
	striped, random := bitvec.New(n), bitvec.New(n)
	for i := 0; i < n; i++ {
		if i%3 != 1 {
			striped.Set(i)
		}
		if r.Intn(4) == 0 {
			random.Set(i)
		}
	}
	return map[string]*bitvec.Vector{"empty": bitvec.New(n), "full": bitvec.NewFull(n), "striped": striped, "random": random}
}

// TestPartitionAndCountsMatchOracle checks the region-code kernels
// against per-row oracles on seeded edge-case data: every column type,
// eager (whole-column and chunked) and lazy, at 1, 2 and 8 workers,
// under empty, full, striped and random selections, with row counts
// that are multiples of neither 64 nor the chunk size.
func TestPartitionAndCountsMatchOracle(t *testing.T) {
	lists := oraclePredLists()
	for _, tc := range []struct {
		n, chunk int
		nullRate float64
	}{{1000, 192, 0}, {4999, 128, 0.1}, {777, 64, 0.8}, {300, 128, 1}} {
		schema, cols := oracleTable(tc.n, tc.nullRate, int64(tc.n))
		whole := storage.MustTable("t", schema, cols)
		chunked := chunkedTable(t, schema, cols, tc.chunk)
		layouts := map[string]*storage.Table{"whole": whole, "chunked": chunked, "lazy": lazyView(t, chunked)}
		for sn, sel := range oracleSelections(tc.n, int64(tc.chunk)) {
			prefix := fmt.Sprintf("n=%d/nulls=%v/%s", tc.n, tc.nullRate, sn)
			for ln, preds := range lists {
				col, _ := whole.ColumnByName(preds[0].Attr)
				want := oraclePartition(col, preds, sel)
				for lay, tbl := range layouts {
					for _, workers := range []int{1, 2, 8} {
						got, err := PartitionBitsOpts(tbl, preds[0].Attr, preds, sel, ScanOptions{Workers: workers})
						if err != nil {
							t.Fatalf("%s/%s/%s/w=%d: %v", prefix, ln, lay, workers, err)
						}
						for ri := range want {
							if !got[ri].Equal(want[ri]) {
								t.Fatalf("%s/%s/%s/w=%d: region %d has %d rows, oracle %d",
									prefix, ln, lay, workers, ri, got[ri].Count(), want[ri].Count())
							}
						}
					}
				}
			}
			sc := cols[2].(*storage.StringColumn)
			bc := cols[3].(*storage.BoolColumn)
			wantCounts := make([]int, sc.Cardinality())
			wantF, wantT := 0, 0
			sel.ForEach(func(i int) bool {
				if !sc.IsNull(i) {
					wantCounts[sc.Codes()[i]]++
				}
				if !bc.IsNull(i) {
					if bc.At(i) {
						wantT++
					} else {
						wantF++
					}
				}
				return true
			})
			for lay, tbl := range layouts {
				dict, counts, err := CategoryCountsUnderCtx(nil, tbl, "s", sel)
				if err != nil {
					t.Fatal(err)
				}
				if len(dict) != sc.Cardinality() || !eqInts(counts, wantCounts) {
					t.Errorf("%s/%s: category counts differ from the oracle", prefix, lay)
				}
				f, tr, err := BoolCountsUnderCtx(nil, tbl, "b", sel)
				if err != nil {
					t.Fatal(err)
				}
				if f != wantF || tr != wantT {
					t.Errorf("%s/%s: bool counts %d/%d, oracle %d/%d", prefix, lay, f, tr, wantF, wantT)
				}
			}
		}
	}
}
