package engine

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/obsv"
	"repro/internal/par"
	"repro/internal/query"
	"repro/internal/storage"
)

// PartitionBitsOpts assigns every selected row to the first of the
// given single-attribute predicates it satisfies, in one pass over the
// column: the fused kernel behind CUT-produced region partitions. It
// returns one disjoint bitmap per predicate; NULL rows and rows matching
// no predicate are left out. All predicates must target attr with the
// kind matching the column type. Compared with evaluating each region
// query independently, this replaces k full scans with one.
//
// On tables with chunk metadata, opts.Workers shards the pass chunk by
// chunk across workers, exactly like a predicate scan. Chunks map to
// disjoint word ranges of every output bitmap, so the partition is
// byte-identical at any worker count. On memory-tiered columns chunks
// with no selected rows are never fetched.
func PartitionBitsOpts(t *storage.Table, attr string, preds []query.Predicate, sel *bitvec.Vector, opts ScanOptions) ([]*bitvec.Vector, error) {
	if len(preds) == 0 {
		return nil, fmt.Errorf("engine: partition with zero predicates")
	}
	if sel.Len() != t.NumRows() {
		return nil, fmt.Errorf("engine: selection length %d != table rows %d", sel.Len(), t.NumRows())
	}
	col, err := t.ColumnByName(attr)
	if err != nil {
		return nil, err
	}
	for _, p := range preds {
		if p.Attr != attr {
			return nil, fmt.Errorf("engine: partition predicate on %q, want %q", p.Attr, attr)
		}
	}
	rm, err := compileRegions(col, preds)
	if err != nil {
		return nil, err
	}
	n := t.NumRows()
	out := make([]*bitvec.Vector, len(preds))
	outWords := make([][]uint64, len(preds))
	for i := range out {
		out[i] = bitvec.New(n)
		outWords[i] = out[i].Words()
	}
	selWords := sel.Words()
	lazyCol, _ := col.(*storage.LazyColumn)
	// Without chunk metadata the whole column is one span.
	size, numChunks := n, 1
	if ck := t.Chunking(); ck != nil {
		size, numChunks = ck.Size, ck.NumChunks(n)
	} else if lazyCol != nil {
		return nil, fmt.Errorf("engine: lazy column partition requires chunk metadata")
	}
	led := obsv.LedgerFrom(opts.Ctx)
	wordsPerChunk := (size + 63) / 64
	partChunk := func(k int) error {
		// Chunk-granular cancellation, before any fetch or row visit.
		if err := obsv.CheckCtx(opts.Ctx, "engine.partition"); err != nil {
			return err
		}
		w0 := k * wordsPerChunk
		w1 := min(w0+wordsPerChunk, len(selWords))
		if !anyWordsRange(selWords, w0, w1) {
			return nil
		}
		var p *storage.ChunkPayload
		var err error
		if lazyCol != nil {
			var hit bool
			if p, hit, err = lazyCol.ChunkCtx(opts.Ctx, k); err != nil {
				return err
			}
			countFetch(opts.Stats, hit)
			led.ChunkFetch(hit)
		} else if p, err = storage.ColumnSpan(col, k*size, min((k+1)*size, n)); err != nil {
			return err
		}
		rm.scatter(p, selWords[w0:w1], outWords, w0)
		return nil
	}
	if err := par.For(opts.Workers, numChunks, partChunk); err != nil {
		return nil, err
	}
	return out, nil
}

// regionMap is a predicate list compiled to a row → region-code map:
// code r < k is the first predicate the row satisfies, code k is none.
// String and Bool columns map through a table; numeric columns through
// a first-match scan of the ranges, each compiled to closed bounds.
type regionMap struct {
	typ    storage.DataType
	k      int
	table  []uint32     // String: dictionary code → code; Bool: false, true → code
	ranges [][2]float64 // Int64, Float64: closedBounds of each range
}

func compileRegions(col storage.Column, preds []query.Predicate) (*regionMap, error) {
	rm := &regionMap{typ: col.Type(), k: len(preds)}
	var want query.PredKind
	switch rm.typ {
	case storage.Int64, storage.Float64:
		want = query.Range
	case storage.String:
		want = query.In
	case storage.Bool:
		want = query.BoolEq
	default:
		return nil, fmt.Errorf("engine: unsupported column type %v", rm.typ)
	}
	for _, p := range preds {
		if p.Kind != want {
			return nil, kindErr(p, col)
		}
	}
	switch rm.typ {
	case storage.String:
		dict, err := dictOf(col)
		if err != nil {
			return nil, err
		}
		index := make(map[string]int, len(dict))
		for code, v := range dict {
			if _, dup := index[v]; !dup {
				index[v] = code
			}
		}
		rm.table = make([]uint32, len(dict))
		for code := range rm.table {
			rm.table[code] = uint32(rm.k)
		}
		// Later predicates never override an earlier admitting one.
		for ri := len(preds) - 1; ri >= 0; ri-- {
			for _, v := range preds[ri].Values {
				if code, ok := index[v]; ok {
					rm.table[code] = uint32(ri)
				}
			}
		}
	case storage.Bool:
		rm.table = []uint32{uint32(rm.k), uint32(rm.k)}
		for ri := len(preds) - 1; ri >= 0; ri-- {
			rm.table[b2i(preds[ri].BoolVal)] = uint32(ri)
		}
	default:
		rm.ranges = make([][2]float64, len(preds))
		for i, p := range preds {
			rm.ranges[i] = closedBounds(p)
		}
	}
	return rm, nil
}

// scatter maps the live rows of one payload span to region codes and
// writes each region's rows into its bitmap. sel holds the span's
// selection words; span word wi is word w0+wi of every output bitmap.
// NULLs are masked out a word at a time, so placeholder codes of NULL
// string rows are never read. Each non-empty output word is written
// once, from a mask built in a register or a per-region accumulator.
func (rm *regionMap) scatter(p *storage.ChunkPayload, sel []uint64, out [][]uint64, w0 int) {
	var acc []uint64
	if rm.typ == storage.String {
		acc = make([]uint64, rm.k+1) // acc[k] collects the rows in no region
	}
	for wi, w := range sel {
		if p.Nulls != nil {
			w &^= p.Nulls[wi]
		}
		if w == 0 {
			continue
		}
		base, wo := wi*64, w0+wi
		switch {
		case rm.typ == storage.String:
			tableRows(out, wo, acc, rm.table, p.Codes[base:], w)
		case rm.typ == storage.Bool:
			boolRows(out, wo, rm.table, p.Bools[base:], w)
		case p.Ints != nil:
			firstMatchRows(out, wo, rm.ranges, p.Ints[base:], w)
		default:
			firstMatchRows(out, wo, rm.ranges, p.Floats[base:], w)
		}
	}
}

// tableRows scatters the rows of w through the code → region table. A
// full word (all 64 rows exist and are live) skips the bit walk.
func tableRows(out [][]uint64, wo int, acc []uint64, table []uint32, codes []uint32, w uint64) {
	if w == ^uint64(0) {
		for b, c := range codes[:64] {
			acc[table[c]] |= 1 << b
		}
		w = 0
	}
	for ; w != 0; w &= w - 1 {
		b := bits.TrailingZeros64(w)
		acc[table[codes[b]]] |= 1 << b
	}
	for r, a := range acc[:len(out)] {
		if a != 0 {
			out[r][wo] = a
			acc[r] = 0
		}
	}
}

// boolRows splits the rows of w into false and true masks.
func boolRows(out [][]uint64, wo int, table []uint32, vals []bool, w uint64) {
	var trues uint64
	for m := w; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		trues |= uint64(b2i(vals[b])) << b
	}
	for i, m := range [2]uint64{w &^ trues, trues} {
		if r := int(table[i]); r < len(out) && m != 0 {
			out[r][wo] = m
		}
	}
}

// firstMatchRows peels the rows of w off predicate by predicate, in
// order, so each row lands in the first range it satisfies.
func firstMatchRows[T int64 | float64](out [][]uint64, wo int, ranges [][2]float64, vals []T, w uint64) {
	for r := 0; r < len(ranges) && w != 0; r++ {
		lo, hi := ranges[r][0], ranges[r][1]
		var miss uint64
		for m := w; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			v := float64(vals[b])
			miss |= uint64(b2i(v < lo)|b2i(v > hi)) << b
		}
		if match := w &^ miss; match != 0 {
			out[r][wo] = match
		}
		w &= miss
	}
}

// closedBounds returns [lo, hi] such that a value v satisfies the Range
// predicate p exactly when neither v < lo nor v > hi: an open bound
// moves one float64 step inwards, since no float64 lies between a bound
// and its neighbour. NaN fails both comparisons, so it satisfies every
// range, as MatchFloat has it. An open bound at the infinity it cannot
// step from admits no number; [+Inf, -Inf] admits none either.
func closedBounds(p query.Predicate) [2]float64 {
	lo, hi := p.Lo, p.Hi
	if (!p.LoIncl && lo == math.Inf(1)) || (!p.HiIncl && hi == math.Inf(-1)) {
		return [2]float64{math.Inf(1), math.Inf(-1)}
	}
	if !p.LoIncl {
		lo = math.Nextafter(lo, math.Inf(1))
	}
	if !p.HiIncl {
		hi = math.Nextafter(hi, math.Inf(-1))
	}
	return [2]float64{lo, hi}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// AssignFromPartition builds an Assignment directly from the disjoint
// per-region bitmaps of PartitionBitsOpts — no re-evaluation of the region
// queries. The caller guarantees disjointness.
func AssignFromPartition(regionBits []*bitvec.Vector, base *bitvec.Vector) *Assignment {
	counts := make([]int, len(regionBits))
	assigned := 0
	for i, rv := range regionBits {
		counts[i] = rv.Count()
		assigned += counts[i]
	}
	return &Assignment{
		Regions:    len(regionBits),
		Counts:     counts,
		Rest:       base.Count() - assigned,
		n:          base.Len(),
		regionBits: regionBits,
	}
}
