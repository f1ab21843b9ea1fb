// Package engine evaluates conjunctive queries against columnar tables and
// provides the physical operators Atlas pushes to the store: filters to
// selection bitmaps, counting aggregates, per-map region assignment,
// contingency (joint group-count) between maps, and FK hash joins.
package engine

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/obsv"
	"repro/internal/query"
	"repro/internal/storage"
)

// EvalPredicate evaluates a single predicate over its column, returning a
// selection bitmap. NULL rows never match.
func EvalPredicate(t *storage.Table, p query.Predicate) (*bitvec.Vector, error) {
	return EvalPredicateOpts(t, p, ScanOptions{})
}

// EvalPredicateOpts is EvalPredicate with scan options (chunk-parallel
// workers, stats).
func EvalPredicateOpts(t *storage.Table, p query.Predicate, opts ScanOptions) (*bitvec.Vector, error) {
	out := bitvec.NewFull(t.NumRows())
	cp, err := compilePred(t, p)
	if err != nil {
		return nil, err
	}
	if err := evalCompiled(t, []compiledPred{cp}, out, opts); err != nil {
		return nil, err
	}
	return out, nil
}

func kindErr(p query.Predicate, col storage.Column) error {
	return fmt.Errorf("engine: predicate kind %v cannot apply to column %q of type %v",
		p.Kind, p.Attr, col.Type())
}

// Eval evaluates a conjunctive query, returning the selection bitmap of
// matching rows. A query with no predicates selects every row.
func Eval(t *storage.Table, q query.Query) (*bitvec.Vector, error) {
	sel := bitvec.NewFull(t.NumRows())
	if err := evalAndInto(t, q, sel); err != nil {
		return nil, err
	}
	return sel, nil
}

// EvalInto evaluates q into sel, overwriting its contents — the
// allocation-free variant of Eval for callers that reuse a scratch
// vector. sel must have the table's length.
func EvalInto(t *storage.Table, q query.Query, sel *bitvec.Vector) error {
	if sel.Len() != t.NumRows() {
		return fmt.Errorf("engine: selection length %d != table rows %d", sel.Len(), t.NumRows())
	}
	sel.Fill()
	return evalAndInto(t, q, sel)
}

// EvalAndInto narrows sel to the rows that also satisfy q — the fused
// equivalent of sel.And(Eval(t, q)). Callers that already hold a base
// selection skip the full-table predicate scans: only still-selected
// rows are tested.
func EvalAndInto(t *storage.Table, q query.Query, sel *bitvec.Vector) error {
	if sel.Len() != t.NumRows() {
		return fmt.Errorf("engine: selection length %d != table rows %d", sel.Len(), t.NumRows())
	}
	return evalAndInto(t, q, sel)
}

// evalAndInto ANDs every predicate of q into sel using the fused
// word-level kernel: each predicate is checked only on still-selected
// rows and cleared bits never allocate an intermediate bitmap. Tables
// with chunk metadata additionally consult zone maps (see scan.go).
func evalAndInto(t *storage.Table, q query.Query, sel *bitvec.Vector) error {
	cps, err := compileQuery(t, q)
	if err != nil {
		return err
	}
	return evalCompiled(t, cps, sel, ScanOptions{})
}

// Count evaluates q and returns the number of matching rows.
func Count(t *storage.Table, q query.Query) (int, error) {
	sel, err := Eval(t, q)
	if err != nil {
		return 0, err
	}
	return sel.Count(), nil
}

// Cover returns C(Q): the fraction of the table's rows matched by q
// (Section 3 of the paper). A table with no rows has cover 0.
func Cover(t *storage.Table, q query.Query) (float64, error) {
	if t.NumRows() == 0 {
		return 0, nil
	}
	c, err := Count(t, q)
	if err != nil {
		return 0, err
	}
	return float64(c) / float64(t.NumRows()), nil
}

// NumericValuesUnder materializes the non-null float values of a numeric
// column restricted to the selection. Int64 columns are widened.
func NumericValuesUnder(t *storage.Table, attr string, sel *bitvec.Vector) ([]float64, error) {
	return AppendNumericValuesUnderCtx(nil, nil, t, attr, sel)
}

// NumericValuesUnderCtx is NumericValuesUnder with a request context:
// lazy chunk fetches ride the caller's trace and resource ledger.
func NumericValuesUnderCtx(ctx context.Context, t *storage.Table, attr string, sel *bitvec.Vector) ([]float64, error) {
	return AppendNumericValuesUnderCtx(ctx, nil, t, attr, sel)
}

// AppendNumericValuesUnder is NumericValuesUnder appending into dst — the
// scratch-buffer variant for callers that recycle value slices across
// cuts.
func AppendNumericValuesUnder(dst []float64, t *storage.Table, attr string, sel *bitvec.Vector) ([]float64, error) {
	return AppendNumericValuesUnderCtx(nil, dst, t, attr, sel)
}

// AppendNumericValuesUnderCtx is AppendNumericValuesUnder with a
// request context for lazy chunk fetches.
func AppendNumericValuesUnderCtx(ctx context.Context, dst []float64, t *storage.Table, attr string, sel *bitvec.Vector) ([]float64, error) {
	if err := obsv.CheckCtx(ctx, "engine.stats"); err != nil {
		return nil, err
	}
	col, err := t.ColumnByName(attr)
	if err != nil {
		return nil, err
	}
	out := dst
	if cap(out)-len(out) < sel.Count() {
		grown := make([]float64, len(out), len(out)+sel.Count())
		copy(grown, out)
		out = grown
	}
	switch c := col.(type) {
	case *storage.Int64Column:
		sel.ForEach(func(i int) bool {
			if !c.IsNull(i) {
				out = append(out, float64(c.At(i)))
			}
			return true
		})
	case *storage.Float64Column:
		sel.ForEach(func(i int) bool {
			if !c.IsNull(i) {
				out = append(out, c.At(i))
			}
			return true
		})
	case *storage.LazyColumn:
		if !c.Type().IsNumeric() {
			return nil, fmt.Errorf("engine: column %q is not numeric (type %v)", attr, col.Type())
		}
		// Chunk-wise: chunks with no selected rows are never fetched, so
		// a selective extraction reads only the touched byte ranges.
		err := c.ForEachSelectedCtx(ctx, sel, func(p *storage.ChunkPayload, lo, i int) bool {
			if l := i - lo; !p.IsNull(l) {
				out = append(out, p.Numeric(l))
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("engine: column %q is not numeric (type %v)", attr, col.Type())
	}
	return out, nil
}

// CategoryCountsUnder returns per-dictionary-code counts of a string
// column restricted to the selection, plus the dictionary.
func CategoryCountsUnder(t *storage.Table, attr string, sel *bitvec.Vector) (dict []string, counts []int, err error) {
	return CategoryCountsUnderCtx(nil, t, attr, sel)
}

// CategoryCountsUnderCtx is CategoryCountsUnder with a request context
// for lazy chunk fetches.
func CategoryCountsUnderCtx(ctx context.Context, t *storage.Table, attr string, sel *bitvec.Vector) (dict []string, counts []int, err error) {
	if err := obsv.CheckCtx(ctx, "engine.stats"); err != nil {
		return nil, nil, err
	}
	col, err := t.ColumnByName(attr)
	if err != nil {
		return nil, nil, err
	}
	if col.Type() != storage.String {
		return nil, nil, fmt.Errorf("engine: column %q is not categorical (type %v)", attr, col.Type())
	}
	if dict, err = dictOf(col); err != nil {
		return nil, nil, err
	}
	counts = make([]int, len(dict))
	err = forEachSelectedSpan(ctx, col, sel, func(p *storage.ChunkPayload, words []uint64) {
		for wi, w := range words {
			if p.Nulls != nil {
				w &^= p.Nulls[wi]
			}
			codes := p.Codes[wi*64:]
			for ; w != 0; w &= w - 1 {
				counts[codes[bits.TrailingZeros64(w)]]++
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return dict, counts, nil
}

// BoolCountsUnder returns the (false, true) counts of a bool column under
// the selection.
func BoolCountsUnder(t *storage.Table, attr string, sel *bitvec.Vector) (falses, trues int, err error) {
	return BoolCountsUnderCtx(nil, t, attr, sel)
}

// BoolCountsUnderCtx is BoolCountsUnder with a request context for lazy
// chunk fetches.
func BoolCountsUnderCtx(ctx context.Context, t *storage.Table, attr string, sel *bitvec.Vector) (falses, trues int, err error) {
	if err := obsv.CheckCtx(ctx, "engine.stats"); err != nil {
		return 0, 0, err
	}
	col, err := t.ColumnByName(attr)
	if err != nil {
		return 0, 0, err
	}
	if col.Type() != storage.Bool {
		return 0, 0, fmt.Errorf("engine: column %q is not boolean (type %v)", attr, col.Type())
	}
	live := 0
	err = forEachSelectedSpan(ctx, col, sel, func(p *storage.ChunkPayload, words []uint64) {
		for wi, w := range words {
			if p.Nulls != nil {
				w &^= p.Nulls[wi]
			}
			vals := p.Bools[wi*64:]
			live += bits.OnesCount64(w)
			for ; w != 0; w &= w - 1 {
				trues += b2i(vals[bits.TrailingZeros64(w)])
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return live - trues, trues, nil
}

// forEachSelectedSpan calls fn with each payload span of col that holds
// a selected row and the span's selection words: chunk by chunk on
// memory-tiered columns (untouched chunks are never fetched), and as one
// zero-copy span of the whole column otherwise.
func forEachSelectedSpan(ctx context.Context, col storage.Column, sel *bitvec.Vector, fn func(p *storage.ChunkPayload, words []uint64)) error {
	if lc, ok := col.(*storage.LazyColumn); ok {
		return lc.ForEachSelectedChunkCtx(ctx, sel, func(p *storage.ChunkPayload, _ int, words []uint64) bool {
			fn(p, words)
			return true
		})
	}
	if sel.Len() != col.Len() {
		return fmt.Errorf("engine: selection length %d != column length %d", sel.Len(), col.Len())
	}
	p, err := storage.ColumnSpan(col, 0, col.Len())
	if err != nil {
		return err
	}
	fn(p, sel.Words())
	return nil
}

// dictOf returns the dictionary of a String column.
func dictOf(col storage.Column) ([]string, error) {
	switch c := col.(type) {
	case *storage.StringColumn:
		return c.Dict(), nil
	case *storage.LazyColumn:
		return c.DictValues()
	}
	return nil, fmt.Errorf("engine: no dictionary on column type %T", col)
}
