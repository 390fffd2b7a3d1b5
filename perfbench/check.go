package main

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"sort"

	"ocpmesh/internal/core"
	"ocpmesh/internal/grid"
	"ocpmesh/internal/routing"
	"ocpmesh/internal/serve"
)

// check verifies the server's outputs after a run: served labels equal
// a fresh formation, route hop counts equal routing.Detour, and
// lifecycle snapshots round-trip with a correct checksum.
func check(c *client, w *workload, answers []routeRecord) error {
	if w.kind == kindCycle {
		return checkLifecycle(c, w)
	}
	forms := make(map[string]*core.Result)
	rng := rand.New(rand.NewSource(w.seed ^ 0xc4ec))
	for i, sh := range w.tenants {
		id := tenantID(i)
		res, err := checkLabels(c, id, sh)
		if err != nil {
			return err
		}
		forms[id] = res
		// A fresh batch on the final formation: churn workloads have
		// no in-run route answers to check.
		qs := make([][4]int, w.cfg.routeBatch)
		var en []grid.Point
		for k, ok := range res.Enabled {
			if ok {
				en = append(en, res.Topo.PointAt(k))
			}
		}
		for k := range qs {
			s, d := en[rng.Intn(len(en))], en[rng.Intn(len(en))]
			qs[k] = [4]int{s.X, s.Y, d.X, d.Y}
		}
		var resp serve.RoutesResponse
		if _, err := c.expect(http.MethodPost, "/api/tenants/"+id+"/routes", mustJSON(serve.RoutesRequest{Queries: qs}), http.StatusOK, &resp); err != nil {
			return err
		}
		answers = append(answers, routeRecord{tenant: id, queries: qs, answers: resp.Answers})
	}
	for _, a := range answers {
		if err := checkRoutes(forms[a.tenant], a); err != nil {
			return err
		}
	}
	return nil
}

// checkLabels compares a tenant's served label planes with a fresh
// core.FormOn on its served fault set, byte for byte, and checks the
// served faults come from the tenant's candidate pool.
func checkLabels(c *client, id string, sh shape) (*core.Result, error) {
	var snap serve.TenantSnapshot
	if _, err := c.get("/api/tenants/"+id+"/snapshot", &snap); err != nil {
		return nil, err
	}
	var labels serve.LabelsResponse
	if _, err := c.get("/api/tenants/"+id+"/labels", &labels); err != nil {
		return nil, err
	}
	if labels.Seq != snap.Seq {
		return nil, fmt.Errorf("tenant %s: labels at seq %d, snapshot at %d with no writes between", id, labels.Seq, snap.Seq)
	}
	pool := grid.PointSetOf(sh.pool...)
	faults := make([]grid.Point, len(snap.Faults))
	for i, f := range snap.Faults {
		faults[i] = grid.Pt(f[0], f[1])
		if !pool.Has(faults[i]) {
			return nil, fmt.Errorf("tenant %s: served fault %v was never sent", id, faults[i])
		}
	}
	res, err := sh.form(faults)
	if err != nil {
		return nil, err
	}
	if labels.Width != sh.n || labels.Height != sh.n {
		return nil, fmt.Errorf("tenant %s: labels %dx%d, want %dx%d", id, labels.Width, labels.Height, sh.n, sh.n)
	}
	if got, want := labels.Unsafe, pack(sh.n, res.Unsafe); got != want {
		return nil, fmt.Errorf("tenant %s: served unsafe plane differs from a fresh formation", id)
	}
	if got, want := labels.Enabled, pack(sh.n, res.Enabled); got != want {
		return nil, fmt.Errorf("tenant %s: served enabled plane differs from a fresh formation", id)
	}
	return res, nil
}

// checkRoutes compares batch answers with routing.Detour on the
// formation the batch was answered from.
func checkRoutes(res *core.Result, a routeRecord) error {
	if len(a.answers) != len(a.queries) {
		return fmt.Errorf("tenant %s: %d answers to %d queries", a.tenant, len(a.answers), len(a.queries))
	}
	g := routing.NewGraph(res, routing.ModelRegions)
	for i, q := range a.queries {
		p, err := routing.Detour{}.Route(g, grid.Pt(q[0], q[1]), grid.Pt(q[2], q[3]))
		got := a.answers[i]
		switch {
		case err != nil && got.OK:
			return fmt.Errorf("tenant %s: route %v answered %d hops, Detour fails: %v", a.tenant, q, got.Hops, err)
		case err == nil && (!got.OK || got.Hops != p.Len()):
			return fmt.Errorf("tenant %s: route %v answered ok=%v hops=%d, Detour %d hops", a.tenant, q, got.OK, got.Hops, p.Len())
		}
	}
	return nil
}

// checkLifecycle runs a create/snapshot/delete/restore round trip per
// pattern (at most two): the snapshot's checksum must match one computed
// here, the restored tenant must snapshot byte-identically, and its
// labels must equal a fresh formation. Every cycle of the run must have
// left no tenant behind.
func checkLifecycle(c *client, w *workload) error {
	var list map[string][]string
	if _, err := c.get("/api/tenants", &list); err != nil {
		return err
	}
	if n := len(list["tenants"]); n != 0 {
		return fmt.Errorf("%d tenants left after lifecycle cycles", n)
	}
	for k, sh := range w.patterns[:min(2, len(w.patterns))] {
		id := fmt.Sprintf("check%d", k)
		base := "/api/tenants/" + id
		if _, err := c.expect(http.MethodPost, "/api/tenants", sh.createBody(id), http.StatusCreated, nil); err != nil {
			return err
		}
		var snap serve.TenantSnapshot
		first, err := c.get(base+"/snapshot", &snap)
		if err != nil {
			return err
		}
		if got := checksum(&snap); got != snap.Checksum {
			return fmt.Errorf("%s: snapshot checksum %s, computed %s", id, snap.Checksum, got)
		}
		if !grid.PointSetOf(sh.faults...).Equal(pointsOf(snap.Faults)) {
			return fmt.Errorf("%s: snapshot faults differ from the created fault list", id)
		}
		if _, err := c.expect(http.MethodDelete, base, nil, http.StatusOK, nil); err != nil {
			return err
		}
		if _, err := c.expect(http.MethodPost, base+"/restore", first, http.StatusCreated, nil); err != nil {
			return err
		}
		second, err := c.get(base+"/snapshot", nil)
		if err != nil {
			return err
		}
		if !bytes.Equal(first, second) {
			return fmt.Errorf("%s: snapshot after restore differs from the one restored", id)
		}
		if _, err := checkLabels(c, id, sh); err != nil {
			return err
		}
		if _, err := c.expect(http.MethodDelete, base, nil, http.StatusOK, nil); err != nil {
			return err
		}
	}
	return nil
}

func pointsOf(xy [][2]int) *grid.PointSet {
	s := grid.NewPointSetCap(len(xy))
	for _, p := range xy {
		s.Add(grid.Pt(p[0], p[1]))
	}
	return s
}

// pack encodes a row-major label plane the way the API does: BitGrid
// words, little-endian, base64.
func pack(n int, labels []bool) string {
	bg := grid.NewBitGrid(n, n)
	bg.SetBools(labels)
	raw := make([]byte, 0, 8*len(bg.Words()))
	for _, w := range bg.Words() {
		raw = binary.LittleEndian.AppendUint64(raw, w)
	}
	return base64.StdEncoding.EncodeToString(raw)
}

// checksum is the snapshot checksum as documented on TenantSnapshot:
// FNV-64a over the fault count, the faults sorted row-major, and both
// packed planes.
func checksum(ts *serve.TenantSnapshot) string {
	faults := append([][2]int(nil), ts.Faults...)
	sort.Slice(faults, func(i, j int) bool {
		if faults[i][1] != faults[j][1] {
			return faults[i][1] < faults[j][1]
		}
		return faults[i][0] < faults[j][0]
	})
	h := fnv.New64a()
	buf := binary.LittleEndian.AppendUint64(nil, uint64(len(faults)))
	for _, f := range faults {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(f[0])))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(f[1])))
	}
	_, _ = h.Write(buf)
	_, _ = h.Write([]byte(ts.Unsafe))
	_, _ = h.Write([]byte(ts.Enabled))
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}
