package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/workload"
)

// drillTarget is a resolved drill: the (map, region) pair of the
// session's current node to open.
type drillTarget struct{ Map, Region int }

// opResult is one executed op as the client saw it.
type opResult struct {
	done   bool // false: skipped (a drill with nothing to open)
	status int
	body   []byte
	err    error
	lat    time.Duration
	start  time.Time
}

// laneClient is one closed-loop client: a single keep-alive connection.
func laneClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

func post(hc *http.Client, url string, body any) (int, []byte, error) {
	var rd io.Reader = http.NoBody
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	resp, err := hc.Post(url, "application/json", rd)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

func ok2xx(status int) bool { return status >= 200 && status < 300 }

// units splits an op list into the pieces a lane takes at once: single
// ops for stateless lists, whole session chains for session lists, so
// a session's ops stay in order on one lane.
func units(l *OpList) [][]int {
	var out [][]int
	for i, op := range l.Ops {
		if op.Session < 0 || i == 0 || l.Ops[i-1].Session != op.Session {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], i)
	}
	return out
}

// pass executes an op list against base with the given lane count and
// returns per-op results and the wall time of the list. Lanes pull the
// next unit as soon as their previous one completes (a closed loop).
// drills supplies resolved drill targets; a drill without one is
// skipped, as is every later drill of its session. done, when non-nil,
// is called on the lane's goroutine after each executed op.
func pass(base string, l *OpList, lanes int, drills map[int]drillTarget, done func(i int, r *opResult)) ([]opResult, time.Duration) {
	us := units(l)
	res := make([]opResult, len(l.Ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := laneClient()
			defer hc.CloseIdleConnections()
			for {
				u := int(next.Add(1) - 1)
				if u >= len(us) {
					return
				}
				runUnit(hc, base, l, us[u], drills, res, done)
			}
		}()
	}
	wg.Wait()
	return res, time.Since(start)
}

// runUnit executes one unit's ops in order on one lane.
func runUnit(hc *http.Client, base string, l *OpList, idx []int, drills map[int]drillTarget, res []opResult, done func(i int, r *opResult)) {
	sid := -1
	for _, i := range idx {
		op := &l.Ops[i]
		var t drillTarget
		if op.Kind == kindDrill {
			var ok bool
			if t, ok = drills[op.ID]; !ok {
				return
			}
		}
		res[i] = execOp(hc, base, op, &sid, t)
		if done != nil {
			done(i, &res[i])
		}
	}
}

// execOp sends one op and times it as the client sees it. A
// session-explore first creates its session (inside the timed span)
// and stores the id in *sid for the chain's drills.
func execOp(hc *http.Client, base string, op *Op, sid *int, t drillTarget) opResult {
	start := time.Now()
	var (
		status int
		raw    []byte
		err    error
	)
	switch op.Kind {
	case kindSessionExplore:
		status, raw, err = post(hc, base+"/api/sessions", nil)
		if err == nil && !ok2xx(status) {
			err = fmt.Errorf("create session: status %d: %s", status, raw)
		}
		var created struct{ ID int }
		if err == nil {
			err = json.Unmarshal(raw, &created)
		}
		if err == nil {
			*sid = created.ID
			status, raw, err = post(hc, fmt.Sprintf("%s/api/sessions/%d/explore", base, *sid), map[string]string{"cql": op.CQL})
		}
	case kindDrill:
		status, raw, err = post(hc, fmt.Sprintf("%s/api/sessions/%d/drill", base, *sid), map[string]int{"map": t.Map, "region": t.Region})
	default:
		status, raw, err = post(hc, base+"/api/explore", map[string]string{"cql": op.CQL})
	}
	return opResult{done: true, status: status, body: raw, err: err, lat: time.Since(start), start: start}
}

// reference is the answer key of an op list: the canonical body of
// every op's reference answer, and the resolved drill targets.
type reference struct {
	byOp   map[int]string
	drills map[int]drillTarget
	// selectivity is each answered op's baseCount ÷ totalRows.
	selectivity map[int]float64
	// respBytes is each answered op's response size.
	respBytes map[int]int
}

// referencePass runs the op list sequentially on a separate server and
// records every answer. Stateless ops are deterministic in their CQL
// alone, so each distinct statement runs once. Drills resolve against
// the answer of the session's previous op: pick selects among the
// non-empty regions of its maps; a drill with none ends its chain. Any
// failed op fails the pass.
func referencePass(base string, l *OpList) (*reference, error) {
	ref := &reference{byOp: map[int]string{}, drills: map[int]drillTarget{},
		selectivity: map[int]float64{}, respBytes: map[int]int{}}
	hc := laneClient()
	defer hc.CloseIdleConnections()
	byCQL := map[string]int{} // stateless CQL → op id holding its answer
	for _, u := range units(l) {
		sid := -1
		var prev []byte
	chain:
		for _, i := range u {
			op := &l.Ops[i]
			var t drillTarget
			switch op.Kind {
			case kindExplore:
				if j, ok := byCQL[op.CQL]; ok {
					ref.byOp[op.ID], ref.selectivity[op.ID], ref.respBytes[op.ID] = ref.byOp[j], ref.selectivity[j], ref.respBytes[j]
					continue
				}
				byCQL[op.CQL] = op.ID
			case kindDrill:
				var ok bool
				if t, ok = pickRegion(prev, op.Pick); !ok {
					break chain
				}
				ref.drills[op.ID] = t
			}
			r := execOp(hc, base, op, &sid, t)
			if r.err == nil && !ok2xx(r.status) {
				r.err = fmt.Errorf("status %d: %.200s", r.status, r.body)
			}
			if r.err != nil {
				return nil, fmt.Errorf("reference pass: op %d (%s %q): %w", op.ID, op.Kind, op.CQL, r.err)
			}
			canon, err := workload.CanonicalBody(r.body)
			if err != nil {
				return nil, err
			}
			ref.byOp[op.ID] = canon
			ref.selectivity[op.ID] = selectivity(r.body)
			ref.respBytes[op.ID] = len(r.body)
			prev = r.body
		}
	}
	return ref, nil
}

// selectivity reads baseCount ÷ totalRows from an explore answer or a
// session node answer.
func selectivity(body []byte) float64 {
	var v struct {
		TotalRows int
		BaseCount int
		Result    *struct{ TotalRows, BaseCount int }
	}
	if json.Unmarshal(body, &v) != nil {
		return 0
	}
	if v.Result != nil {
		v.TotalRows, v.BaseCount = v.Result.TotalRows, v.Result.BaseCount
	}
	if v.TotalRows == 0 {
		return 0
	}
	return float64(v.BaseCount) / float64(v.TotalRows)
}

// pickRegion resolves a drill pick against a session node answer.
func pickRegion(body []byte, pick float64) (drillTarget, bool) {
	var node struct {
		Result struct {
			Maps []struct {
				Regions []struct{ Count int }
			}
		}
	}
	if json.Unmarshal(body, &node) != nil {
		return drillTarget{}, false
	}
	var cands []drillTarget
	for mi, m := range node.Result.Maps {
		for ri, r := range m.Regions {
			if r.Count > 0 {
				cands = append(cands, drillTarget{mi, ri})
			}
		}
	}
	if len(cands) == 0 {
		return drillTarget{}, false
	}
	return cands[min(int(pick*float64(len(cands))), len(cands)-1)], true
}

// checkAnswers compares every executed op with its reference answer
// after workload.CanonicalBody. A transport error, a non-2xx status or
// a different body fails the op; the first failures are described.
func checkAnswers(l *OpList, ref *reference, res []opResult) (attempted, failed int, problems []string) {
	for i := range res {
		r := &res[i]
		if !r.done {
			continue
		}
		attempted++
		why := ""
		switch {
		case r.err != nil:
			why = r.err.Error()
		case !ok2xx(r.status):
			why = fmt.Sprintf("status %d: %.200s", r.status, r.body)
		default:
			got, err := workload.CanonicalBody(r.body)
			if err != nil {
				why = err.Error()
			} else if want, ok := ref.byOp[l.Ops[i].ID]; !ok {
				why = "no reference answer"
			} else if got != want {
				why = fmt.Sprintf("answer differs from the reference:\n  want %.300s\n  got  %.300s", want, got)
			}
		}
		if why != "" {
			failed++
			if len(problems) < 5 {
				problems = append(problems, fmt.Sprintf("op %d (%s %q): %s", l.Ops[i].ID, l.Ops[i].Kind, l.Ops[i].CQL, why))
			}
		}
	}
	return attempted, failed, problems
}

// drain waits until the process is back to at most baseline goroutines
// (background prefetch finished, connections closed), up to limit.
// closeIdle runs before every check: work that finishes while draining
// can leave new idle connections behind.
func drain(baseline int, limit time.Duration, closeIdle func()) bool {
	deadline := time.Now().Add(limit)
	for {
		closeIdle()
		if runtime.NumGoroutine() <= baseline {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(20 * time.Millisecond)
	}
}
