package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

func newTestServer(t testing.TB) *httptest.Server {
	t.Helper()
	tbl := datagen.Census(5000, 1)
	srv := New(tbl, core.DefaultOptions())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func TestSchemaEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/api/schema")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var dto SchemaDTO
	if err := json.NewDecoder(resp.Body).Decode(&dto); err != nil {
		t.Fatal(err)
	}
	if dto.Table != "census" || dto.Rows != 5000 || len(dto.Fields) != 5 {
		t.Fatalf("schema = %+v", dto)
	}
}

func TestStatelessExplore(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/api/explore", map[string]string{
		"cql": "EXPLORE census WHERE age BETWEEN 17 AND 90",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var maps []MapDTO
	if err := json.Unmarshal(body["maps"], &maps); err != nil {
		t.Fatal(err)
	}
	if len(maps) == 0 {
		t.Fatal("no maps returned")
	}
	for _, m := range maps {
		if len(m.Regions) == 0 || len(m.Regions) > 8 {
			t.Fatalf("map regions = %d", len(m.Regions))
		}
	}
}

func TestExploreWithOptions(t *testing.T) {
	ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/api/explore", map[string]string{
		"cql": "EXPLORE census WITH MAPS 1 MERGE product",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body=%v", resp.StatusCode, body)
	}
	var maps []MapDTO
	if err := json.Unmarshal(body["maps"], &maps); err != nil {
		t.Fatal(err)
	}
	if len(maps) != 1 {
		t.Fatalf("maps = %d, want 1 (MAPS 1)", len(maps))
	}
}

func TestExploreBadCQL(t *testing.T) {
	ts := newTestServer(t)
	cases := []string{
		"SELECT 1",
		"EXPLORE census WHERE ghost = 1",
		"EXPLORE census WITH CUT bogus",
		"EXPLORE wrongtable",
	}
	for _, q := range cases {
		resp, body := postJSON(t, ts.URL+"/api/explore", map[string]string{"cql": q})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q: status = %d body=%v", q, resp.StatusCode, body)
		}
		if _, ok := body["error"]; !ok {
			t.Errorf("%q: missing error field", q)
		}
	}
}

// TestExploreOptionBound: a WITH option past its bound is a 400 naming
// the bound, before any cut allocates for it, and the server keeps
// serving.
func TestExploreOptionBound(t *testing.T) {
	ts := newTestServer(t)
	for _, q := range []string{
		"EXPLORE census WITH SPLITS 1000000000000000000",
		"EXPLORE census WITH SPLITS 100000000",
		"EXPLORE census WITH MAPS 1e300",
		"EXPLORE census WITH REGIONS 100000 PREDICATES 2",
	} {
		resp, body := postJSON(t, ts.URL+"/api/explore", map[string]string{"cql": q})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q: status = %d body=%v", q, resp.StatusCode, body)
		}
		if msg := string(body["error"]); !strings.Contains(msg, "above its bound") {
			t.Errorf("%q: error %s does not name the bound", q, msg)
		}
	}
	resp, body := postJSON(t, ts.URL+"/api/explore", map[string]string{"cql": "EXPLORE census WITH SPLITS 3"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after bounded requests: status = %d body=%v", resp.StatusCode, body)
	}
}

func TestExploreMalformedBody(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/api/explore", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestSessionLifecycle(t *testing.T) {
	ts := newTestServer(t)
	// create
	resp, body := postJSON(t, ts.URL+"/api/sessions", map[string]string{})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	var id int
	if err := json.Unmarshal(body["id"], &id); err != nil {
		t.Fatal(err)
	}
	base := fmt.Sprintf("%s/api/sessions/%d", ts.URL, id)

	// explore
	resp, body = postJSON(t, base+"/explore", map[string]string{"cql": "EXPLORE census"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore status = %d body=%v", resp.StatusCode, body)
	}
	var nodeID int
	if err := json.Unmarshal(body["id"], &nodeID); err != nil {
		t.Fatal(err)
	}
	if nodeID != 0 {
		t.Fatalf("first node id = %d", nodeID)
	}

	// drill
	resp, body = postJSON(t, base+"/drill", map[string]int{"map": 0, "region": 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drill status = %d body=%v", resp.StatusCode, body)
	}
	var parent int
	if err := json.Unmarshal(body["parent"], &parent); err != nil {
		t.Fatal(err)
	}
	if parent != 0 {
		t.Fatalf("drill parent = %d", parent)
	}

	// current
	hresp, err := http.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var cur NodeDTO
	if err := json.NewDecoder(hresp.Body).Decode(&cur); err != nil {
		t.Fatal(err)
	}
	if cur.ID != 1 {
		t.Fatalf("current = %d", cur.ID)
	}

	// back
	resp, body = postJSON(t, base+"/back", map[string]string{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("back status = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body["id"], &nodeID); err != nil {
		t.Fatal(err)
	}
	if nodeID != 0 {
		t.Fatalf("back node = %d", nodeID)
	}

	// back at root fails
	resp, _ = postJSON(t, base+"/back", map[string]string{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("back at root status = %d", resp.StatusCode)
	}

	// history
	hresp2, err := http.Get(base + "/history")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp2.Body.Close()
	var hist []NodeDTO
	if err := json.NewDecoder(hresp2.Body).Decode(&hist); err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("history = %d nodes", len(hist))
	}
}

func TestSessionNotFound(t *testing.T) {
	ts := newTestServer(t)
	resp, _ := postJSON(t, ts.URL+"/api/sessions/99/explore", map[string]string{"cql": "EXPLORE census"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	resp2, _ := postJSON(t, ts.URL+"/api/sessions/abc/explore", map[string]string{"cql": "EXPLORE census"})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp2.StatusCode)
	}
}

func TestDescribeEndpoint(t *testing.T) {
	ts := newTestServer(t)
	_, body := postJSON(t, ts.URL+"/api/sessions", map[string]string{})
	var id int
	if err := json.Unmarshal(body["id"], &id); err != nil {
		t.Fatal(err)
	}
	base := fmt.Sprintf("%s/api/sessions/%d", ts.URL, id)
	resp, _ := postJSON(t, base+"/explore", map[string]string{"cql": "EXPLORE census"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore status = %d", resp.StatusCode)
	}
	dresp, err := http.Post(base+"/describe", "application/json",
		bytes.NewReader([]byte(`{"map":0,"region":0}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("describe status = %d", dresp.StatusCode)
	}
	var profiles []ProfileDTO
	if err := json.NewDecoder(dresp.Body).Decode(&profiles); err != nil {
		t.Fatal(err)
	}
	if len(profiles) == 0 {
		t.Fatal("no profiles")
	}
	for _, p := range profiles {
		if p.Attr == "" || p.Summary == "" {
			t.Fatalf("incomplete profile %+v", p)
		}
	}
	// out-of-range region
	bresp, _ := postJSON(t, base+"/describe", map[string]int{"map": 0, "region": 999})
	if bresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad describe status = %d", bresp.StatusCode)
	}
}

func TestPersonalizedEndpoint(t *testing.T) {
	ts := newTestServer(t)
	_, body := postJSON(t, ts.URL+"/api/sessions", map[string]string{})
	var id int
	if err := json.Unmarshal(body["id"], &id); err != nil {
		t.Fatal(err)
	}
	base := fmt.Sprintf("%s/api/sessions/%d", ts.URL, id)
	if resp, _ := postJSON(t, base+"/explore", map[string]string{"cql": "EXPLORE census"}); resp.StatusCode != http.StatusOK {
		t.Fatal("explore failed")
	}
	// drilling builds interest; then personalized order is served
	if resp, _ := postJSON(t, base+"/drill", map[string]int{"map": 0, "region": 0}); resp.StatusCode != http.StatusOK {
		t.Fatal("drill failed")
	}
	if resp, _ := postJSON(t, base+"/back", map[string]string{}); resp.StatusCode != http.StatusOK {
		t.Fatal("back failed")
	}
	presp, err := http.Get(base + "/personalized")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("personalized status = %d", presp.StatusCode)
	}
	var maps []MapDTO
	if err := json.NewDecoder(presp.Body).Decode(&maps); err != nil {
		t.Fatal(err)
	}
	if len(maps) == 0 {
		t.Fatal("no personalized maps")
	}
}

func TestDrillBeforeExplore(t *testing.T) {
	ts := newTestServer(t)
	_, body := postJSON(t, ts.URL+"/api/sessions", map[string]string{})
	var id int
	if err := json.Unmarshal(body["id"], &id); err != nil {
		t.Fatal(err)
	}
	resp, _ := postJSON(t, fmt.Sprintf("%s/api/sessions/%d/drill", ts.URL, id), map[string]int{"map": 0, "region": 0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// TestRequestBodyTooLarge: a request body over maxRequestBody is
// refused with 413 and the named error before any of it is parsed as
// a query; a body just under the cap is read in full (and rejected
// only for its content).
func TestRequestBodyTooLarge(t *testing.T) {
	ts := newTestServer(t)
	post := func(cqlLen int) (int, string) {
		t.Helper()
		body := `{"cql": "` + strings.Repeat("x", cqlLen) + `"}`
		resp, err := http.Post(ts.URL+"/api/explore", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out["error"]
	}
	if code, msg := post(maxRequestBody); code != http.StatusRequestEntityTooLarge || msg != ErrBodyTooLarge.Error() {
		t.Errorf("oversized body: %d %q, want 413 %q", code, msg, ErrBodyTooLarge)
	}
	if code, msg := post(maxRequestBody - 64); code != http.StatusBadRequest || strings.Contains(msg, "exceeds") {
		t.Errorf("body under the cap: %d %q, want a 400 about the CQL", code, msg)
	}
}
