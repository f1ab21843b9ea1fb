package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestOpListDeterministic(t *testing.T) {
	for _, s := range specs {
		a, _ := json.Marshal(s.opList(7, 10, tableRows))
		b, _ := json.Marshal(s.opList(7, 10, tableRows))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different op lists", s.name)
		}
		c, _ := json.Marshal(s.opList(8, 10, tableRows))
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", s.name)
		}
	}
}

// classShares returns the shares of WITH ops, full-table ops and
// session-explores on 2% windows.
func classShares(l *OpList) (with, full, narrow float64) {
	var explores float64
	for _, op := range l.Ops {
		if op.Kind == kindDrill {
			continue
		}
		explores++
		if op.With {
			with++
		}
		if op.Class == "full" {
			full++
		}
		if strings.Contains(op.CQL, "ts BETWEEN") {
			var lo, hi int64
			if _, err := fmt.Sscanf(op.CQL, "EXPLORE events WHERE ts BETWEEN %d AND %d", &lo, &hi); err == nil && float64(hi-lo) < 0.05*float64(eventsTSpan(tableRows)) {
				narrow++
			}
		}
	}
	return with / explores, full / explores, narrow / explores
}

func TestCatalogSharesHoldAcrossSeeds(t *testing.T) {
	mem, _ := specFor("explore-mem")
	ev, _ := specFor("session-events")
	for _, seed := range []int64{1, 2, 99} {
		with, full, _ := classShares(mem.opList(seed, 1000, tableRows))
		// zipf s=1.1 over 24 ranks: WITH ranks 3, 7, 12, 18 draw 15.7%;
		// full-table ranks 1, 3 and 12 draw 30.1% + 9.0% + 2.0%.
		if math.Abs(with-0.157) > 0.02 {
			t.Errorf("seed %d: WITH share %.3f, want about 0.157", seed, with)
		}
		if math.Abs(full-0.411) > 0.02 {
			t.Errorf("seed %d: full-table share %.3f, want about 0.411", seed, full)
		}
		_, _, narrow := classShares(ev.opList(seed, 200, tableRows))
		if math.Abs(narrow-1.0/3) > 0.05 {
			t.Errorf("seed %d: 2%% window share %.3f, want about 1/3", seed, narrow)
		}
	}
}

func TestPercentileKnownValues(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}, {25, 3.25}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25],
	// statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5].
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{{xs, 2.75, 8.25}, {[]float64{5, 7}, 4.5, 7.5}, {[]float64{3, 1, 2}, 1, 3}} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestAnswerCheckCatchesCorruption(t *testing.T) {
	l := &OpList{Ops: []Op{
		{ID: 0, Kind: kindExplore, Session: -1, CQL: "EXPLORE census"},
		{ID: 1, Kind: kindExplore, Session: -1, CQL: "EXPLORE census"},
		{ID: 2, Kind: kindExplore, Session: -1, CQL: "EXPLORE census"},
		{ID: 3, Kind: kindExplore, Session: -1, CQL: "EXPLORE census"},
	}}
	answer := `{"input":"census","totalRows":10,"baseCount":10,"elapsedMs":1.5,"maps":[{"attrs":["age"],"entropy":1,"regions":[{"query":"age < 50","count":6,"cover":0.6}]}]}`
	ref := &reference{byOp: map[int]string{}}
	for i := range l.Ops {
		ref.byOp[i] = mustCanonical(t, answer)
	}
	res := []opResult{
		{done: true, status: 200, body: []byte(strings.Replace(answer, `"elapsedMs":1.5`, `"elapsedMs":9.25`, 1))},
		{done: true, status: 200, body: []byte(strings.Replace(answer, `"count":6`, `"count":7`, 1))},
		{done: true, status: 503, body: []byte(answer)},
		{done: true, status: 200, body: []byte(answer[:len(answer)-2])},
	}
	attempted, failed, problems := checkAnswers(l, ref, res)
	if attempted != 4 || failed != 3 {
		t.Fatalf("attempted %d failed %d, want 4 and 3 (problems: %q)", attempted, failed, problems)
	}
	for i, p := range problems {
		if !strings.HasPrefix(p, fmt.Sprintf("op %d ", i+1)) {
			t.Errorf("problem %d names the wrong op: %s", i, p)
		}
	}
}

func mustCanonical(t *testing.T, body string) string {
	t.Helper()
	c, err := workload.CanonicalBody([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric and workload name, and that
// BENCHMARK.json declares exactly the workloads and metrics this
// program reports.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("bad or duplicate metric %q (unit %q)", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	for _, c := range []struct {
		json, prog []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("BENCHMARK.json lists %d metrics where the program reports %d", len(c.json), len(c.prog))
			continue
		}
		for i := range c.json {
			if c.json[i] != c.prog[i] {
				t.Errorf("metric %d: BENCHMARK.json %+v, program %+v", i, c.json[i], c.prog[i])
			}
		}
	}
}

// exercised lists, per workload, the per-layer metrics that must be
// non-zero: the layers the workload runs through.
var exercised = map[string][]string{
	"explore-mem": {"server.self_ms", "server.resp_kb", "cql.bind_us", "core.pipeline_ms", "core.screen_ms",
		"core.distance_ms", "core.cluster_ms", "core.merge_ms", "core.rank_ms", "engine.partition_ms",
		"engine.eval_ms", "engine.selectivity", "process.cpu_ms_per_op", "trace.overhead_pct"},
	"session-events": {"server.resp_kb", "cql.bind_us", "session.explore_ms", "session.drill_ms",
		"session.predcache_hit_ratio", "session.retained_mb", "core.pipeline_ms", "engine.partition_ms",
		"engine.eval_ms", "engine.selectivity", "colstore.decodes_per_op", "colstore.read_mb_per_op",
		"colstore.decode_us_per_chunk", "shard.open_ms", "process.cpu_ms_per_op", "drill_p50_ms", "drill_p90_ms"},
	"explore-remote": {"server.resp_kb", "core.pipeline_ms", "engine.partition_ms", "colstore.decodes_per_op",
		"colstore.decode_us_per_chunk", "shard.open_ms", "remote.rpcs_per_op", "remote.wire_kb_per_op",
		"remote.chunk_fetches_per_op", "remote.chunk_rpc_ms", "process.cpu_ms_per_op"},
}

// TestTracedRunReportsLayers runs every workload traced on a small
// table and checks the per-layer metrics it reports.
func TestTracedRunReportsLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			dir := t.TempDir()
			rec, err := run(config{spec: s, seed: 3, seconds: 1, traced: true, rows: 4 * 65536, dir: dir + "/work", tracedir: dir + "/traces"})
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted == 0 {
				t.Fatalf("run not correct: %+v %q", rec.Result, rec.Problems)
			}
			for _, d := range perLayer {
				if _, ok := rec.Result.Metrics[d.Name]; !ok {
					t.Errorf("missing per-layer metric %s", d.Name)
				}
			}
			for _, name := range exercised[s.name] {
				if v := rec.Result.Metrics[name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0 on %s", name, v, s.name)
				}
			}
			if len(rec.Result.Metrics) != len(perLayer) {
				t.Errorf("reported %d metrics, want the %d per-layer ones", len(rec.Result.Metrics), len(perLayer))
			}
		})
	}
}
