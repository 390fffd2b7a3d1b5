// HTTP contract tests for the serving API: status-code mapping on every
// error path, idempotent tenant creation, snapshot/restore over the
// wire, SSE event delivery, and graceful shutdown draining in-flight
// batches. FuzzServeDelta hammers the strict JSON delta decoder.
package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ocpmesh/internal/grid"
	"ocpmesh/internal/serve"
)

// newTestServer returns an httptest server over a fresh service plus a
// cleanup-registered Close.
func newTestServer(t testing.TB, opts serve.Options) (*httptest.Server, *serve.Service) {
	t.Helper()
	svc := serve.New(opts)
	srv := serve.NewServer(svc, nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = svc.Close()
	})
	return ts, svc
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if raw, ok := body.([]byte); ok {
		rd = bytes.NewReader(raw)
	} else if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHTTPTenantLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, serve.Options{Shards: 1})

	// Create.
	resp, body := doJSON(t, "POST", ts.URL+"/api/tenants", serve.CreateRequest{
		ID:     "t1",
		Config: serve.TenantConfig{Width: 16, Height: 16},
		Faults: [][2]int{{3, 3}, {4, 3}},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var st serve.TenantStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != "t1" || st.Faults != 2 || st.Blocks != 1 {
		t.Fatalf("create status %+v", st)
	}

	// Idempotent re-create: same config and faults → 200, not 409.
	resp, body = doJSON(t, "POST", ts.URL+"/api/tenants", serve.CreateRequest{
		ID:     "t1",
		Config: serve.TenantConfig{Width: 16, Height: 16},
		Faults: [][2]int{{4, 3}, {3, 3}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idempotent create: %d %s", resp.StatusCode, body)
	}
	// Conflicting re-create → 409.
	resp, _ = doJSON(t, "POST", ts.URL+"/api/tenants", serve.CreateRequest{
		ID:     "t1",
		Config: serve.TenantConfig{Width: 20, Height: 16},
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting create: %d, want 409", resp.StatusCode)
	}

	// Delta, then the labels and regions views reflect it at the same
	// sequence.
	resp, body = doJSON(t, "POST", ts.URL+"/api/tenants/t1/deltas",
		serve.DeltaRequest{Op: "add", Points: [][2]int{{5, 3}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: %d %s", resp.StatusCode, body)
	}
	var dr serve.DeltaResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Seq != 1 || dr.Applied != 1 {
		t.Fatalf("delta response %+v", dr)
	}
	resp, body = doJSON(t, "GET", ts.URL+"/api/tenants/t1/labels", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("labels: %d", resp.StatusCode)
	}
	var lr serve.LabelsResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Seq != 1 || lr.Width != 16 || lr.Unsafe == "" {
		t.Fatalf("labels response %+v", lr)
	}
	resp, body = doJSON(t, "GET", ts.URL+"/api/tenants/t1/regions?nodes=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("regions: %d", resp.StatusCode)
	}
	var rr serve.RegionsResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Seq != 1 || len(rr.Blocks) == 0 || len(rr.Blocks[0].Nodes) == 0 {
		t.Fatalf("regions response %+v", rr)
	}

	// Route.
	resp, body = doJSON(t, "GET", ts.URL+"/api/tenants/t1/route?src=0,0&dst=15,15", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("route: %d", resp.StatusCode)
	}
	var route serve.RouteResponse
	if err := json.Unmarshal(body, &route); err != nil {
		t.Fatal(err)
	}
	if !route.OK || route.Hops != 30 {
		t.Fatalf("route response %+v", route)
	}

	// List, delete, 404 afterwards.
	resp, body = doJSON(t, "GET", ts.URL+"/api/tenants", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "t1") {
		t.Fatalf("list: %d %s", resp.StatusCode, body)
	}
	if resp, _ = doJSON(t, "DELETE", ts.URL+"/api/tenants/t1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if resp, _ = doJSON(t, "GET", ts.URL+"/api/tenants/t1", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status after delete: %d, want 404", resp.StatusCode)
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t, serve.Options{Shards: 1, MaxMeshNodes: 1024})
	if resp, _ := doJSON(t, "POST", ts.URL+"/api/tenants", serve.CreateRequest{
		ID: "ok", Config: serve.TenantConfig{Width: 8, Height: 8},
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("setup create failed: %d", resp.StatusCode)
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"unknown tenant status", "GET", "/api/tenants/nope", nil, 404},
		{"unknown tenant delta", "POST", "/api/tenants/nope/deltas",
			serve.DeltaRequest{Op: "add", Points: [][2]int{{1, 1}}}, 404},
		{"unknown tenant delete", "DELETE", "/api/tenants/nope", nil, 404},
		{"unknown tenant labels", "GET", "/api/tenants/nope/labels", nil, 404},
		{"unknown tenant route", "GET", "/api/tenants/nope/route?src=0,0&dst=1,1", nil, 404},
		{"malformed delta json", "POST", "/api/tenants/ok/deltas", []byte(`{"op":`), 400},
		{"unknown delta field", "POST", "/api/tenants/ok/deltas",
			[]byte(`{"op":"add","points":[[1,1]],"bogus":1}`), 400},
		{"trailing garbage", "POST", "/api/tenants/ok/deltas",
			[]byte(`{"op":"add","points":[[1,1]]} extra`), 400},
		{"bad delta op", "POST", "/api/tenants/ok/deltas",
			serve.DeltaRequest{Op: "frobnicate", Points: [][2]int{{1, 1}}}, 400},
		{"empty delta points", "POST", "/api/tenants/ok/deltas",
			serve.DeltaRequest{Op: "add"}, 400},
		{"out-of-bounds point", "POST", "/api/tenants/ok/deltas",
			serve.DeltaRequest{Op: "add", Points: [][2]int{{100, 100}}}, 400},
		{"oversized mesh", "POST", "/api/tenants",
			serve.CreateRequest{ID: "big", Config: serve.TenantConfig{Width: 64, Height: 64}}, 413},
		{"overflowing mesh", "POST", "/api/tenants",
			serve.CreateRequest{ID: "huge", Config: serve.TenantConfig{Width: 1 << 32, Height: 1 << 32}}, 413},
		{"overflowing restore", "POST", "/api/tenants/huge/restore",
			serve.TenantSnapshot{Version: 1, Config: serve.TenantConfig{Width: 1 << 32, Height: 1 << 32}}, 413},
		{"zero-dim mesh", "POST", "/api/tenants",
			serve.CreateRequest{ID: "flat", Config: serve.TenantConfig{Width: 0, Height: 4}}, 400},
		{"bad engine", "POST", "/api/tenants",
			serve.CreateRequest{ID: "eng", Config: serve.TenantConfig{Width: 4, Height: 4, Engine: "quantum"}}, 400},
		{"workers with sequential engine", "POST", "/api/tenants",
			serve.CreateRequest{ID: "wseq", Config: serve.TenantConfig{Width: 4, Height: 4, Engine: "sequential", Workers: 2}}, 400},
		{"torus below 3x3", "POST", "/api/tenants",
			serve.CreateRequest{ID: "tiny", Config: serve.TenantConfig{Width: 2, Height: 2, Torus: true}}, 400},
		{"fault outside mesh", "POST", "/api/tenants",
			serve.CreateRequest{ID: "out", Config: serve.TenantConfig{Width: 4, Height: 4},
				Faults: [][2]int{{9, 9}}}, 400},
		{"bad route point", "GET", "/api/tenants/ok/route?src=zap&dst=1,1", nil, 400},
		{"bad route router", "GET", "/api/tenants/ok/route?src=0,0&dst=1,1&router=warp", nil, 400},
		{"bad route model", "GET", "/api/tenants/ok/route?src=0,0&dst=1,1&model=psychic", nil, 400},
		{"restore bad body", "POST", "/api/tenants/r1/restore", []byte(`{"version":`), 400},
	}
	for _, tc := range cases {
		resp, body := doJSON(t, tc.method, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: got %d, want %d (body %s)", tc.name, resp.StatusCode, tc.want, body)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s: error content type %q, want JSON", tc.name, ct)
		}
	}
}

// TestHTTPRestoreRejectsWorkersWithoutBands: a snapshot that is intact
// (its checksum covers only planes and faults) but whose config asks for
// Workers with an engine that has no row bands is refused by core, and
// the refusal is a 400 like the same config on create.
func TestHTTPRestoreRejectsWorkersWithoutBands(t *testing.T) {
	ts, _ := newTestServer(t, serve.Options{Shards: 1})
	if resp, _ := doJSON(t, "POST", ts.URL+"/api/tenants", serve.CreateRequest{
		ID: "b", Config: serve.TenantConfig{Width: 8, Height: 8}, Faults: [][2]int{{3, 3}},
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	resp, body := doJSON(t, "GET", ts.URL+"/api/tenants/b/snapshot", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d", resp.StatusCode)
	}
	var snap serve.TenantSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"sequential", "channels"} {
		snap.Config.Engine, snap.Config.Workers = engine, 2
		resp, body := doJSON(t, "POST", ts.URL+"/api/tenants/w-"+engine+"/restore", snap)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "Workers=2") {
			t.Fatalf("%s restore with workers=2: %d %s, want 400 naming Workers=2", engine, resp.StatusCode, body)
		}
	}
}

func TestHTTPSnapshotRestoreRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t, serve.Options{Shards: 1})
	if resp, _ := doJSON(t, "POST", ts.URL+"/api/tenants", serve.CreateRequest{
		ID: "s", Config: serve.TenantConfig{Width: 12, Height: 12},
		Faults: [][2]int{{2, 2}, {3, 2}, {7, 8}},
	}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	if resp, _ := doJSON(t, "POST", ts.URL+"/api/tenants/s/deltas",
		serve.DeltaRequest{Op: "add", Points: [][2]int{{4, 2}}}); resp.StatusCode != 200 {
		t.Fatalf("delta: %d", resp.StatusCode)
	}

	resp, snapBody := doJSON(t, "GET", ts.URL+"/api/tenants/s/snapshot", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d", resp.StatusCode)
	}
	// Restore under a new id; served labels must be byte-identical.
	if resp, body := doJSON(t, "POST", ts.URL+"/api/tenants/s2/restore", snapBody); resp.StatusCode != http.StatusCreated {
		t.Fatalf("restore: %d %s", resp.StatusCode, body)
	}
	_, l1 := doJSON(t, "GET", ts.URL+"/api/tenants/s/labels", nil)
	_, l2 := doJSON(t, "GET", ts.URL+"/api/tenants/s2/labels", nil)
	var a, b serve.LabelsResponse
	if err := json.Unmarshal(l1, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(l2, &b); err != nil {
		t.Fatal(err)
	}
	if a.Unsafe != b.Unsafe || a.Enabled != b.Enabled || a.Seq != b.Seq {
		t.Fatal("restored tenant serves different label planes")
	}
	// Restoring over a live tenant conflicts.
	if resp, _ := doJSON(t, "POST", ts.URL+"/api/tenants/s/restore", snapBody); resp.StatusCode != http.StatusConflict {
		t.Fatalf("restore over live tenant: %d, want 409", resp.StatusCode)
	}
	// A tampered snapshot is refused.
	tampered := bytes.Replace(snapBody, []byte(`"seq": 1`), []byte(`"seq": 7`), 1)
	if bytes.Equal(tampered, snapBody) {
		t.Fatal("tamper target not found in snapshot body")
	}
	if resp, _ := doJSON(t, "POST", ts.URL+"/api/tenants/s3/restore", tampered); resp.StatusCode != http.StatusCreated {
		// Seq is not checksummed (it is bookkeeping, not state) — but a
		// flipped fault must be.
		t.Fatalf("seq-only edit should restore, got %d", resp.StatusCode)
	}
	tampered = bytes.Replace(snapBody, []byte("[\n      2,\n      2\n    ]"), []byte("[\n      5,\n      5\n    ]"), 1)
	if bytes.Equal(tampered, snapBody) {
		t.Fatal("fault tamper target not found in snapshot body")
	}
	if resp, _ := doJSON(t, "POST", ts.URL+"/api/tenants/s4/restore", tampered); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tampered fault list restored: %d, want 400", resp.StatusCode)
	}
}

// TestHTTPEventsSSE subscribes to a tenant's event stream over HTTP and
// checks events arrive for applied deltas.
func TestHTTPEventsSSE(t *testing.T) {
	ts, _ := newTestServer(t, serve.Options{Shards: 1})
	if resp, _ := doJSON(t, "POST", ts.URL+"/api/tenants", serve.CreateRequest{
		ID: "sse", Config: serve.TenantConfig{Width: 8, Height: 8},
	}); resp.StatusCode != http.StatusCreated {
		t.Fatal("create failed")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/api/tenants/sse/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "data: ") {
				lines <- strings.TrimPrefix(line, "data: ")
			}
		}
		close(lines)
	}()

	for i := 1; i <= 3; i++ {
		if resp, _ := doJSON(t, "POST", ts.URL+"/api/tenants/sse/deltas",
			serve.DeltaRequest{Op: "add", Points: [][2]int{{i, i}}}); resp.StatusCode != 200 {
			t.Fatalf("delta %d failed", i)
		}
		select {
		case data := <-lines:
			var e serve.Event
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				t.Fatalf("event %d: %v (%s)", i, err, data)
			}
			if e.Tenant != "sse" || e.Seq != uint64(i) || e.Op != "add" {
				t.Fatalf("event %d: %+v", i, e)
			}
		case <-ctx.Done():
			t.Fatalf("no event for delta %d", i)
		}
	}
	// Deleting the tenant ends the stream.
	if resp, _ := doJSON(t, "DELETE", ts.URL+"/api/tenants/sse", nil); resp.StatusCode != 200 {
		t.Fatal("delete failed")
	}
	select {
	case _, ok := <-lines:
		if ok {
			// A late event is fine; the close must still follow.
			for range lines {
			}
		}
	case <-ctx.Done():
		t.Fatal("stream did not end after tenant delete")
	}
}

// TestHTTPGracefulShutdown pins the drain contract over the wire:
// requests in flight when Shutdown starts complete with their effect
// applied; the service refuses work afterwards.
func TestHTTPGracefulShutdown(t *testing.T) {
	svc := serve.New(serve.Options{Shards: 1, BatchWindow: time.Millisecond})
	srv := serve.NewServer(svc, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, _ := doJSON(t, "POST", ts.URL+"/api/tenants", serve.CreateRequest{
		ID: "g", Config: serve.TenantConfig{Width: 16, Height: 16},
	}); resp.StatusCode != http.StatusCreated {
		t.Fatal("create failed")
	}

	const n = 8
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := doJSON(t, "POST", ts.URL+"/api/tenants/g/deltas",
				serve.DeltaRequest{Op: "add", Points: [][2]int{{i, 0}}})
			codes[i] = resp.StatusCode
		}(i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	applied := 0
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			applied++
		case http.StatusServiceUnavailable:
			// Lost the race with the drain — refused, not stranded.
		default:
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	t.Logf("drain: %d/%d applied, %d refused", applied, n, n-applied)
	// Post-shutdown requests answer 503, and the handler still responds
	// (no hang).
	if resp, _ := doJSON(t, "POST", ts.URL+"/api/tenants/g/deltas",
		serve.DeltaRequest{Op: "add", Points: [][2]int{{1, 1}}}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown delta: %d, want 503", resp.StatusCode)
	}
}

// FuzzServeDelta fuzzes the strict JSON delta decoder: it must never
// panic, and on success must return a well-formed op and point list
// consistent with what a re-encode of the parsed request produces.
func FuzzServeDelta(f *testing.F) {
	f.Add([]byte(`{"op":"add","points":[[1,2],[3,4]]}`))
	f.Add([]byte(`{"op":"remove","points":[[0,0]]}`))
	f.Add([]byte(`{"op":"frob","points":[[1,1]]}`))
	f.Add([]byte(`{"op":"add","points":[]}`))
	f.Add([]byte(`{"op":"add"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"op":"add","points":[[1,2]],"extra":true}`))
	f.Add([]byte(`{"op":"add","points":[[1,2]]} trailing`))
	f.Add([]byte(`{"op":"add","points":[[9223372036854775807,-9223372036854775808]]}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, pts, err := serve.ParseDeltaRequest(data)
		if err != nil {
			return
		}
		if req.Op != "add" && req.Op != "remove" {
			t.Fatalf("accepted op %q", req.Op)
		}
		if len(pts) == 0 {
			t.Fatal("accepted empty point list")
		}
		if len(pts) != len(req.Points) {
			t.Fatalf("%d points decoded from %d pairs", len(pts), len(req.Points))
		}
		for i, p := range pts {
			if p != grid.Pt(req.Points[i][0], req.Points[i][1]) {
				t.Fatalf("point %d mismatch: %v vs %v", i, p, req.Points[i])
			}
		}
		// Accepted inputs survive a re-encode/re-parse round trip.
		re, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		req2, _, err := serve.ParseDeltaRequest(re)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", re, err)
		}
		if req2.Op != req.Op || len(req2.Points) != len(req.Points) {
			t.Fatal("round trip changed the request")
		}
	})
}

// FuzzTenantCreate fuzzes the TenantConfig body of tenant create over
// HTTP against a service with a small node budget: every input must be
// answered 2xx, 400 or 413 — never a 5xx, a 409 or a panic. Accepted
// tenants are deleted again so each input meets an empty registry.
func FuzzTenantCreate(f *testing.F) {
	f.Add([]byte(`{"width":4294967296,"height":4294967296}`))
	f.Add([]byte(`{"width":8,"height":8,"engine":"parallel"}`))
	f.Add([]byte(`{"width":8,"height":8,"engine":"sequential","workers":2}`))
	f.Add([]byte(`{"width":8,"height":8,"engine":"channels","workers":3,"torus":true}`))
	f.Add([]byte(`{"width":2,"height":2,"torus":true}`))
	f.Add([]byte(`{"width":16,"height":16,"safety":"2a","connectivity":4,"workers":-1}`))
	f.Add([]byte(`{"width":64,"height":64}`))
	f.Add([]byte(`{"width":0,"height":5}`))
	f.Add([]byte(`{"width":"8"}`))
	f.Add([]byte(`null`))
	ts, _ := newTestServer(f, serve.Options{Shards: 1, MaxMeshNodes: 1024})
	f.Fuzz(func(t *testing.T, config []byte) {
		body := append(append([]byte(`{"id":"fz","config":`), config...), '}')
		resp, out := doJSON(t, "POST", ts.URL+"/api/tenants", body)
		switch code := resp.StatusCode; {
		case code >= 200 && code < 300:
			if resp, _ := doJSON(t, "DELETE", ts.URL+"/api/tenants/fz", nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("delete after create: %d", resp.StatusCode)
			}
		case code == http.StatusBadRequest, code == http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("config %q: status %d (%s), want 2xx, 400 or 413", config, code, out)
		}
	})
}
