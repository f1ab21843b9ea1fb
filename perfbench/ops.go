package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Op kinds, named as the server's query log names them.
const (
	kindExplore        = "explore"
	kindSessionExplore = "session-explore"
	kindDrill          = "drill"
)

// Op is one client request of a workload's op list. Drills carry a pick
// in [0, 1) instead of a (map, region) pair: the pair is resolved from
// the reference answer of the session's previous op (see referencePass),
// so a drill only ever targets a region that exists.
type Op struct {
	ID      int     `json:"id"`
	Kind    string  `json:"kind"`
	Session int     `json:"session"` // -1 for stateless ops
	CQL     string  `json:"cql,omitempty"`
	Pick    float64 `json:"pick,omitempty"`
	// Class is the catalog class of an explore ("full", "age", "cat",
	// "conj", "ts"); With marks ops carrying a WITH clause.
	Class string `json:"class,omitempty"`
	With  bool   `json:"with,omitempty"`
}

// OpList is a workload's fixed op list. Sessions counts the sessions
// the list creates; stateless lists have none.
type OpList struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Sessions int    `json:"sessions"`
	Ops      []Op   `json:"ops"`
}

// catalogEntry is one query of the explore catalog.
type catalogEntry struct {
	CQL   string
	Class string
	With  bool
}

// slot is one catalog rank's fixed shape; the seed only jitters its
// constants (an age range's start by up to ±2 years, which category
// value), so every seed's catalog costs about the same.
type slot struct {
	class string // "full", "age", "cat" or "conj"
	lo    int    // age range start ("age", "conj")
	width int    // age range width in years ("age", "conj")
	attr  string // categorical attribute ("cat", "conj")
	with  string // WITH clause, or ""
}

// catalogSlots fixes the shape of every catalog rank, so the zipf
// shares give every seed the same class mix. Ranks 3, 7, 12 and 18
// carry WITH clauses: under zipf s=1.1 over 24 ranks they draw about
// one op in six.
var catalogSlots = []slot{
	{class: "full"},
	{class: "age", lo: 20, width: 15},
	{class: "full", with: "WITH CUT sketch"},
	{class: "cat", attr: "sex"},
	{class: "conj", lo: 25, width: 35, attr: "education"},
	{class: "age", lo: 25, width: 5},
	{class: "age", lo: 40, width: 15, with: "WITH CUT variance"},
	{class: "age", lo: 30, width: 35},
	{class: "conj", lo: 50, width: 15, attr: "salary"},
	{class: "cat", attr: "education"},
	{class: "age", lo: 60, width: 5},
	{class: "full", with: "WITH MERGE product"},
	{class: "conj", lo: 30, width: 5, attr: "sex"},
	{class: "cat", attr: "eye_color"},
	{class: "age", lo: 45, width: 35},
	{class: "conj", lo: 40, width: 35, attr: "eye_color"},
	{class: "cat", attr: "salary"},
	{class: "age", lo: 20, width: 35, with: "WITH MAPS 2"},
	{class: "age", lo: 55, width: 15},
	{class: "conj", lo: 60, width: 15, attr: "education"},
	{class: "cat", attr: "sex"},
	{class: "age", lo: 70, width: 5},
	{class: "conj", lo: 65, width: 5, attr: "salary"},
	{class: "cat", attr: "education"},
}

const zipfS = 1.1

// censusCatalog builds the seed's catalog of census queries, one per
// catalogSlots rank: the full table, age ranges of three widths,
// categorical equality and IN lists, conjunctions, and WITH variants.
func censusCatalog(rnd *rand.Rand) []catalogEntry {
	values := map[string][]string{
		"sex":       {"Male", "Female"},
		"education": {"MSc", "BSc", "HS"},
		"eye_color": {"Blue", "Green", "Brown"},
		"salary":    {">50K", "<50K"},
	}
	ageRange := func(lo, w int) string {
		lo += rnd.Intn(5) - 2
		return fmt.Sprintf("age BETWEEN %d AND %d", lo, lo+w)
	}
	catPred := func(attr string) string {
		vs := values[attr]
		if attr == "education" {
			// An IN list of two of the three levels.
			a := rnd.Intn(len(vs))
			return fmt.Sprintf("education IN ('%s', '%s')", vs[a], vs[(a+1)%len(vs)])
		}
		return fmt.Sprintf("%s = '%s'", attr, vs[rnd.Intn(len(vs))])
	}
	out := make([]catalogEntry, 0, len(catalogSlots))
	for _, sl := range catalogSlots {
		var where string
		switch sl.class {
		case "age":
			where = ageRange(sl.lo, sl.width)
		case "cat":
			where = catPred(sl.attr)
		case "conj":
			where = ageRange(sl.lo, sl.width) + " AND " + catPred(sl.attr)
		}
		q := "EXPLORE census"
		if where != "" {
			q += " WHERE " + where
		}
		if sl.with != "" {
			q += " " + sl.with
		}
		out = append(out, catalogEntry{CQL: q, Class: sl.class, With: sl.with != ""})
	}
	return out
}

// exploreOps generates n stateless explores over the seed's census
// catalog, zipf-skewed with exact shares: rank k appears in proportion
// to 1/(k+1)^s (largest remainders round), in a seed-shuffled order. Exact
// shares keep the op mix, and so the work, the same for every seed.
func exploreOps(name string, seed int64, n int) *OpList {
	rnd := rand.New(rand.NewSource(seed))
	cat := censusCatalog(rnd)
	ranks := zipfQuota(n, len(cat), zipfS)
	rnd.Shuffle(len(ranks), func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
	l := &OpList{Workload: name, Seed: seed}
	for i, k := range ranks {
		e := cat[k]
		l.Ops = append(l.Ops, Op{ID: i, Kind: kindExplore, Session: -1, CQL: e.CQL, Class: e.Class, With: e.With})
	}
	return l
}

// zipfQuota returns n ranks in [0, k), rank r appearing in proportion
// to 1/(r+1)^s, rounded by largest remainders (ties to the lower rank),
// in rank order.
func zipfQuota(n, k int, s float64) []int {
	w := make([]float64, k)
	total := 0.0
	for r := range w {
		w[r] = 1 / math.Pow(float64(r+1), s)
		total += w[r]
	}
	counts := make([]int, k)
	frac := make([]int, k)
	left := n
	for r := range w {
		exact := float64(n) * w[r] / total
		counts[r] = int(exact)
		left -= counts[r]
		frac[r] = r
		w[r] = exact - float64(counts[r])
	}
	sort.SliceStable(frac, func(a, b int) bool { return w[frac[a]] > w[frac[b]] })
	for _, r := range frac[:left] {
		counts[r]++
	}
	out := make([]int, 0, n)
	for r, c := range counts {
		for ; c > 0; c-- {
			out = append(out, r)
		}
	}
	return out
}

// eventsWindows are the session-explore ts window widths, as shares of
// the table's ts span.
var eventsWindows = []float64{0.02, 0.10, 0.30}

// chainShape is one session chain's shape.
type chainShape struct {
	width  float64 // ts window width, as a share of the ts span
	narrow bool    // the window is narrowed to one kind
	drills int
}

// sessionShapes are every window width, with and without a kind
// predicate, times 1, 2 or 3 drills: 18 shapes that a list's sessions
// cycle through, so every seed runs the same mix.
func sessionShapes() []chainShape {
	var shapes []chainShape
	for _, w := range eventsWindows {
		for _, narrow := range []bool{false, true} {
			for d := 1; d <= 3; d++ {
				shapes = append(shapes, chainShape{w, narrow, d})
			}
		}
	}
	return shapes
}

// sessionOps generates sessions session chains over the events table:
// a session-explore on a ts window, half of them narrowed to one kind,
// followed by 1–3 drills. Chain shapes cycle through sessionShapes in a
// seed-shuffled order; the seed also picks each window's position and
// kind and each drill's pick. tsSpan bounds the table's ts values.
func sessionOps(name string, seed int64, sessions int, tsSpan int64) *OpList {
	rnd := rand.New(rand.NewSource(seed))
	shapes := sessionShapes()
	order := make([]int, sessions)
	for i := range order {
		order[i] = i % len(shapes)
	}
	rnd.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	l := &OpList{Workload: name, Seed: seed, Sessions: sessions}
	for s, k := range order {
		sh := shapes[k]
		w := int64(sh.width * float64(tsSpan))
		lo := rnd.Int63n(tsSpan - w + 1)
		q := fmt.Sprintf("EXPLORE events WHERE ts BETWEEN %d AND %d", lo, lo+w)
		if sh.narrow {
			q += fmt.Sprintf(" AND kind = '%s'", eventKinds[rnd.Intn(len(eventKinds))])
		}
		l.Ops = append(l.Ops, Op{ID: len(l.Ops), Kind: kindSessionExplore, Session: s, CQL: q, Class: "ts"})
		for d := 0; d < sh.drills; d++ {
			l.Ops = append(l.Ops, Op{ID: len(l.Ops), Kind: kindDrill, Session: s, Pick: rnd.Float64()})
		}
	}
	return l
}
