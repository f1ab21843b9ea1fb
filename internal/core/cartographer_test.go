package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/query"
)

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Options){
		func(o *Options) { o.MaxRegions = 1 },
		func(o *Options) { o.MaxPredicates = 0 },
		func(o *Options) { o.MaxMaps = 0 },
		func(o *Options) { o.DependencyThreshold = -1 },
		func(o *Options) { o.Cut.Splits = 0 },
		func(o *Options) { o.Distance = "bogus" },
		func(o *Options) { o.Merge = "bogus" },
	}
	for i, mutate := range bad {
		o := DefaultOptions()
		mutate(&o)
		if err := o.validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestNewCartographerValidation(t *testing.T) {
	if _, err := NewCartographer(nil, DefaultOptions()); err == nil {
		t.Fatal("nil table should error")
	}
	tbl := datagen.Census(100, 1)
	o := DefaultOptions()
	o.MaxMaps = 0
	if _, err := NewCartographer(tbl, o); err == nil {
		t.Fatal("bad options should error")
	}
	c, err := NewCartographer(tbl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if c.Table() != tbl || c.Options().MaxMaps != 8 {
		t.Fatal("accessors wrong")
	}
}

func TestExploreWrongTable(t *testing.T) {
	c, _ := NewCartographer(datagen.Census(100, 1), DefaultOptions())
	if _, err := c.Explore(query.New("other")); err == nil {
		t.Fatal("wrong table name should error")
	}
}

func TestExploreEmptySelection(t *testing.T) {
	c, _ := NewCartographer(datagen.Census(100, 1), DefaultOptions())
	res, err := c.Explore(query.New("census", query.NewRange("age", 500, 600)))
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseCount != 0 || len(res.Maps) != 0 {
		t.Fatalf("BaseCount=%d maps=%d", res.BaseCount, len(res.Maps))
	}
}

// TestExploreCensusFigure2 is the paper's introductory scenario: Atlas
// must group {age, sex} into one map and {education, salary} into
// another, leaving the independent eye_color alone (E1).
func TestExploreCensusFigure2(t *testing.T) {
	tbl := datagen.Census(20000, 7)
	c, err := NewCartographer(tbl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Explore(query.New("census"))
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseCount != 20000 {
		t.Fatalf("BaseCount = %d", res.BaseCount)
	}
	if len(res.Candidates) != 5 {
		t.Fatalf("candidates = %d, want 5", len(res.Candidates))
	}
	keys := map[string]bool{}
	for _, m := range res.Maps {
		keys[m.Key()] = true
	}
	if !keys["age,sex"] {
		t.Errorf("missing {age,sex} map; got %v", mapKeys(res.Maps))
	}
	if !keys["education,salary"] {
		t.Errorf("missing {education,salary} map; got %v", mapKeys(res.Maps))
	}
	if !keys["eye_color"] {
		t.Errorf("eye_color should stay a singleton map; got %v", mapKeys(res.Maps))
	}
	// eye_color must not be merged with anything
	for k := range keys {
		if strings.Contains(k, "eye_color") && k != "eye_color" {
			t.Errorf("eye_color wrongly merged: %s", k)
		}
	}
	// budgets hold
	for _, m := range res.Maps {
		if m.NumRegions() > 8 {
			t.Errorf("map %s has %d regions", m.Key(), m.NumRegions())
		}
		if len(m.Attrs) > 3 {
			t.Errorf("map %s cuts %d attrs", m.Key(), len(m.Attrs))
		}
	}
	// ranked by entropy descending
	for i := 1; i < len(res.Maps); i++ {
		if res.Maps[i].Entropy > res.Maps[i-1].Entropy+1e-9 {
			t.Error("maps not ranked by decreasing entropy")
		}
	}
}

// TestExploreBodyMetricsFigure4 checks the Figure 4 clustering: the
// candidate maps of {age, income, education_years} group together, and
// {size, weight} group together, with no cross-contamination (E3).
func TestExploreBodyMetricsFigure4(t *testing.T) {
	tbl, _ := datagen.BodyMetrics(20000, 3)
	c, err := NewCartographer(tbl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Explore(query.New("body"))
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, m := range res.Maps {
		keys[m.Key()] = true
	}
	if !keys["age,education_years,income"] {
		t.Errorf("missing trio map; got %v", mapKeys(res.Maps))
	}
	if !keys["size,weight"] {
		t.Errorf("missing pair map; got %v", mapKeys(res.Maps))
	}
}

func TestExploreDrillDown(t *testing.T) {
	// Picking a region of a result map and exploring it again must work:
	// answering queries with queries (Figure 1 loop).
	tbl := datagen.Census(10000, 5)
	c, _ := NewCartographer(tbl, DefaultOptions())
	res, err := c.Explore(query.New("census"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Maps) == 0 {
		t.Fatal("no maps")
	}
	region := res.Maps[0].Regions[0].Query
	res2, err := c.Explore(region)
	if err != nil {
		t.Fatal(err)
	}
	if res2.BaseCount != res.Maps[0].Regions[0].Count {
		t.Fatalf("drill-down base %d != region count %d", res2.BaseCount, res.Maps[0].Regions[0].Count)
	}
}

func TestExploreAttrsFromQuery(t *testing.T) {
	tbl := datagen.Census(5000, 9)
	o := DefaultOptions()
	o.AttrsFromQuery = true
	c, _ := NewCartographer(tbl, o)
	res, err := c.Explore(query.New("census",
		query.NewRange("age", 17, 90),
		query.NewIn("sex", "Male", "Female"),
	))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 2 {
		t.Fatalf("candidates = %d, want only query attrs", len(res.Candidates))
	}
	for _, m := range res.Maps {
		for _, a := range m.Attrs {
			if a != "age" && a != "sex" {
				t.Errorf("unexpected attr %s", a)
			}
		}
	}
}

func TestExploreScreeningInPipeline(t *testing.T) {
	tbl := datagen.WithJunkColumns(datagen.Census(3000, 2), 4)
	c, _ := NewCartographer(tbl, DefaultOptions())
	res, err := c.Explore(query.New("census_junk"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flagged) < 3 {
		t.Fatalf("flagged = %v, want the 3 junk columns", res.Flagged)
	}
	for _, m := range res.Maps {
		for _, a := range m.Attrs {
			if a == "row_id" || a == "code" || a == "comment" {
				t.Errorf("junk column %s leaked into maps", a)
			}
		}
	}
	// with screening off, junk columns appear as candidates
	o := DefaultOptions()
	o.Screen = false
	o.KeepSingletons = true
	c2, _ := NewCartographer(tbl, o)
	res2, err := c2.Explore(query.New("census_junk"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Candidates) <= len(res.Candidates) {
		t.Error("unscreened run should have more candidates")
	}
}

func TestExploreRespectsMaxMaps(t *testing.T) {
	tbl := datagen.Census(3000, 6)
	o := DefaultOptions()
	o.MaxMaps = 2
	c, _ := NewCartographer(tbl, o)
	res, err := c.Explore(query.New("census"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Maps) > 2 {
		t.Fatalf("maps = %d", len(res.Maps))
	}
}

func TestExploreProductMerge(t *testing.T) {
	tbl := datagen.Census(5000, 8)
	o := DefaultOptions()
	o.Merge = MergeProduct
	c, _ := NewCartographer(tbl, o)
	res, err := c.Explore(query.New("census"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Maps) == 0 {
		t.Fatal("no maps from product pipeline")
	}
	for _, m := range res.Maps {
		if m.NumRegions() > 8 {
			t.Errorf("map %s exceeds region budget", m.Key())
		}
	}
}

func TestExploreWithUserPredicates(t *testing.T) {
	tbl := datagen.Census(10000, 4)
	c, _ := NewCartographer(tbl, DefaultOptions())
	q := query.New("census",
		query.NewRange("age", 17, 54), // young cohort only
		query.NewIn("education", "BSc", "MSc"),
	)
	res, err := c.Explore(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseCount == 0 || res.BaseCount == 10000 {
		t.Fatalf("BaseCount = %d, want a proper subset", res.BaseCount)
	}
	// every region refines the user query
	for _, m := range res.Maps {
		for _, r := range m.Regions {
			if r.Query.PredOn("age") < 0 {
				t.Fatalf("region lost the user's age predicate: %v", r.Query)
			}
			agePred := r.Query.Preds[r.Query.PredOn("age")]
			if agePred.Lo < 17 || agePred.Hi > 54 {
				t.Fatalf("region widened the user's range: %v", agePred)
			}
		}
	}
}

func TestExploreDeterministic(t *testing.T) {
	tbl := datagen.Census(5000, 11)
	c, _ := NewCartographer(tbl, DefaultOptions())
	r1, err := c.Explore(query.New("census"))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Explore(query.New("census"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Maps) != len(r2.Maps) {
		t.Fatal("map counts differ between runs")
	}
	for i := range r1.Maps {
		if r1.Maps[i].Key() != r2.Maps[i].Key() {
			t.Fatal("map order differs between runs")
		}
	}
}

func mapKeys(maps []*Map) []string {
	out := make([]string, len(maps))
	for i, m := range maps {
		out[i] = m.Key()
	}
	return out
}

// TestResultCanonical: the canonical rendering names the input, the
// row counts, every screening flag and every ranked map in order, and
// ignores timing — two runs of one query render identically.
func TestResultCanonical(t *testing.T) {
	c, err := NewCartographer(datagen.WithJunkColumns(datagen.Census(3000, 2), 4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	q := query.New("census_junk", query.NewRange("age", 20, 60))
	a, err := c.Explore(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Explore(q)
	if err != nil {
		t.Fatal(err)
	}
	b.Elapsed = a.Elapsed + time.Hour
	if a.Canonical() != b.Canonical() {
		t.Errorf("canonical text depends on timing:\n%s\nvs\n%s", a.Canonical(), b.Canonical())
	}
	got := a.Canonical()
	if want := fmt.Sprintf("%s | base=%d/%d\n", q.String(), a.BaseCount, a.TotalRows); !strings.HasPrefix(got, want) {
		t.Errorf("canonical text starts %q, want %q", got[:min(len(got), len(want))], want)
	}
	if len(a.Flagged) == 0 || len(a.Maps) == 0 {
		t.Fatalf("fixture lost its teeth: %d flags, %d maps", len(a.Flagged), len(a.Maps))
	}
	at := 0
	for _, f := range a.Flagged {
		line := fmt.Sprintf("flag %s %s\n", f.Attr, f.Reason)
		i := strings.Index(got[at:], line)
		if i < 0 {
			t.Fatalf("flag line %q missing or out of order", line)
		}
		at += i + len(line)
	}
	for i, m := range a.Maps {
		j := strings.Index(got[at:], m.String())
		if j < 0 {
			t.Fatalf("map %d missing or out of order", i)
		}
		at += j + len(m.String())
	}
	if at != len(got) {
		t.Errorf("canonical text has %d unexplained trailing bytes", len(got)-at)
	}
}
