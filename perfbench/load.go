package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ocpmesh/internal/serve"
)

// client is the benchmark's single HTTP client: at most senders
// keep-alive connections to one server.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

// get decodes the JSON answer of a GET that must return 200.
func (c *client) get(path string, v any) ([]byte, error) {
	return c.expect(http.MethodGet, path, nil, http.StatusOK, v)
}

func (c *client) expect(method, path string, body []byte, want int, v any) ([]byte, error) {
	code, data, err := c.do(method, path, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, code, want, data)
	}
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			return nil, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return data, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// deltaRecord is one traced delta reply: the client-observed latency
// and the server's stage breakdown.
type deltaRecord struct {
	client  time.Duration
	stages  serve.StageBreakdown
	batched int
}

// residual is the part of the client latency outside the server's
// stages: HTTP, JSON codec, loopback and client time. The stages and
// the residual add up to the client latency exactly.
func (d deltaRecord) residual() time.Duration {
	return d.client - time.Duration(d.stages.TotalNS)
}

// routeRecord is a sampled route batch with the answers it got.
type routeRecord struct {
	tenant  string
	queries [][4]int
	answers []serve.RouteAnswer
}

// runner executes ops against one server. With a tracer it records
// spans and keeps every delta reply's stages.
type runner struct {
	c    *client
	w    *workload
	tr   *tracer
	reqs atomic.Int64

	mu      sync.Mutex
	deltas  []deltaRecord
	answers []routeRecord
}

// exec runs one op, counting each of its HTTP requests in p as attempted
// and, if it fails or is refused, as failed; the requests an op leaves
// unsent after a failure count as failed too. An op whose requests all
// succeed records one latency in p, from due to its last reply: a
// lifecycle cycle sends its five requests back to back, so a client
// sees the cycle; a median over its five unlike requests moved between
// runs with where it fell among the request types.
func (r *runner) exec(o *op, due time.Time, p *phase) {
	x := &call{r: r, req: r.reqs.Add(1), parent: r.tr.id(), p: p}
	start := time.Now()
	switch o.kind {
	case kindDelta:
		r.delta(o, x)
	case kindRoutes:
		r.routes(o, x)
	default:
		r.cycle(o, x)
	}
	if x.err == nil {
		p.lat = append(p.lat, us(x.end.Sub(due)))
	}
	r.tr.record(x.parent, 0, x.req, "op."+o.kind, start, time.Now())
}

// call sends the HTTP requests of one op.
type call struct {
	r           *runner
	req, parent int64
	p           *phase
	// end is when the last reply arrived; err is the op's first failure.
	end time.Time
	err error
}

// fail turns the op's last request, which got a reply, into a failure:
// the reply was not what the op needed.
func (x *call) fail(err error) {
	x.p.failed++
	if x.p.firstErr == nil {
		x.p.firstErr = err
	}
	x.err = err
}

// do sends one request as a span named name, unless an earlier request
// of the op failed.
func (x *call) do(method, path string, body []byte, want int, name string) (data []byte, id int64, start, end time.Time) {
	if x.err != nil {
		x.p.count(x.err)
		return nil, 0, start, end
	}
	id = x.r.tr.id()
	start = time.Now()
	code, data, err := x.r.c.do(method, path, body)
	end = time.Now()
	x.r.tr.record(id, x.parent, x.req, name, start, end)
	if err == nil && code != want {
		err = fmt.Errorf("%s %s: status %d: %.200s", method, path, code, data)
	}
	x.p.count(err)
	x.end, x.err = end, err
	return data, id, start, end
}

func (r *runner) delta(o *op, x *call) {
	data, id, start, end := x.do(http.MethodPost, "/api/tenants/"+o.tenant+"/deltas", o.body, http.StatusOK, "http.deltas")
	if x.err != nil || r.tr == nil {
		return
	}
	var resp serve.DeltaResponse
	if err := json.Unmarshal(data, &resp); err != nil || resp.Stages == nil {
		x.fail(fmt.Errorf("delta reply without a stage breakdown: %v", err))
		return
	}
	st := *resp.Stages
	// The server's stamps give exact durations but no offsets on the
	// client's clock, so the stage spans are laid back to back, ending
	// where the HTTP span ends; the HTTP span's self time is then the
	// residual (client latency minus the server total).
	at := end
	for _, s := range []struct {
		name string
		ns   int64
	}{{"serve.publish", st.PublishNS}, {"serve.compute", st.ComputeNS}, {"serve.batch", st.BatchNS}, {"serve.queue", st.QueueNS}} {
		from := at.Add(-time.Duration(s.ns))
		r.tr.record(r.tr.id(), id, x.req, s.name, from, at)
		at = from
	}
	r.mu.Lock()
	r.deltas = append(r.deltas, deltaRecord{client: end.Sub(start), stages: st, batched: resp.Batched})
	r.mu.Unlock()
}

func (r *runner) routes(o *op, x *call) {
	data, _, _, _ := x.do(http.MethodPost, "/api/tenants/"+o.tenant+"/routes", o.body, http.StatusOK, "http.routes")
	if x.err != nil || o.queries == nil {
		return
	}
	var resp serve.RoutesResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		x.fail(err)
		return
	}
	r.mu.Lock()
	r.answers = append(r.answers, routeRecord{tenant: o.tenant, queries: o.queries, answers: resp.Answers})
	r.mu.Unlock()
}

// cycle is one tenant lifecycle: create from a fault list, snapshot,
// delete, restore from the snapshot, delete.
func (r *runner) cycle(o *op, x *call) {
	base := "/api/tenants/" + o.tenant
	x.do(http.MethodPost, "/api/tenants", r.w.patterns[o.pattern].createBody(o.tenant), http.StatusCreated, "http.create")
	snap, _, _, _ := x.do(http.MethodGet, base+"/snapshot", nil, http.StatusOK, "http.snapshot")
	x.do(http.MethodDelete, base, nil, http.StatusOK, "http.delete")
	x.do(http.MethodPost, base+"/restore", snap, http.StatusCreated, "http.restore")
	x.do(http.MethodDelete, base, nil, http.StatusOK, "http.delete")
}

// phase is what one load phase measured.
type phase struct {
	attempted, failed int
	// lat holds the latency of every op whose requests all succeeded,
	// in µs, from when it was due (its start in the closed loop, its
	// scheduled time in the open loop) to its last reply.
	lat     []float64
	elapsed time.Duration
	// late is how far behind its due time each open-loop send went
	// out, in µs; backlog is how many due ops were unsent at each send.
	late       []float64
	backlog    []float64
	backlogMax int
	firstErr   error
}

func (p *phase) merge(q phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.lat = append(p.lat, q.lat...)
	p.late = append(p.late, q.late...)
	if q.backlogMax > p.backlogMax {
		p.backlogMax = q.backlogMax
	}
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

func (p *phase) ok() int { return p.attempted - p.failed }

func (p *phase) throughput() float64 { return float64(p.ok()) / p.elapsed.Seconds() }

// closedLoop runs senders clients, each sending its next op when the
// previous one completes, until dur has passed (count > 0 instead
// stops after exactly count ops).
func (r *runner) closedLoop(gen *generator, dur time.Duration, count int) phase {
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		total  phase
		issued atomic.Int64
	)
	start := time.Now()
	wg.Add(senders)
	for s := 0; s < senders; s++ {
		go func() {
			defer wg.Done()
			var p phase
			for {
				if count > 0 && issued.Add(1) > int64(count) {
					break
				}
				if count == 0 && time.Since(start) >= dur {
					break
				}
				r.exec(gen.next(), time.Now(), &p)
			}
			mu.Lock()
			total.merge(p)
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	return total
}

// count records one attempted request, failed if err is not nil.
func (p *phase) count(err error) {
	p.attempted++
	if err != nil {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = err
		}
	}
}

// openLoop sends a precomputed schedule, op i due at start + i/rate, from
// senders clients that each take the next op in order, wait for its due
// time and send it. Latency runs from the due time, so a stall is
// charged to every op it delays. Ops still unsent at three times the
// planned length count as failed.
func (r *runner) openLoop(sched []*op, rate float64) phase {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	planned := time.Duration(len(sched)) * interval
	deadline := start.Add(3*planned + 5*time.Second)
	backlog := make([]float64, len(sched))
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total phase
		next  atomic.Int64
	)
	wg.Add(senders)
	for s := 0; s < senders; s++ {
		go func() {
			defer wg.Done()
			var p phase
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					break
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				now := time.Now()
				if now.After(deadline) {
					p.count(fmt.Errorf("op %d never sent: generator backlog", i))
					continue
				}
				// Ops 0..k are due by now; i..k are unsent.
				k := int(now.Sub(start) / interval)
				if k >= len(sched) {
					k = len(sched) - 1
				}
				backlog[i] = float64(k - i + 1)
				p.late = append(p.late, us(now.Sub(due)))
				if k-i+1 > p.backlogMax {
					p.backlogMax = k - i + 1
				}
				r.exec(sched[i], due, &p)
			}
			mu.Lock()
			total.merge(p)
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	total.backlog = backlog
	return total
}

// openLoopFor runs the open loop for dur on a schedule drawn from gen
// at the workload's rate.
func (r *runner) openLoopFor(gen *generator, dur time.Duration) phase {
	rate := r.w.cfg.rate[r.w.name]
	sched := make([]*op, int(rate*dur.Seconds()))
	for i := range sched {
		sched[i] = gen.next()
	}
	return r.openLoop(sched, rate)
}

// backlogGrew reports whether the generator fell further behind over
// the phase: the last quarter's mean backlog is above the senders and
// twice the first quarter's.
func (p *phase) backlogGrew() bool {
	q := len(p.backlog) / 4
	if q == 0 {
		return false
	}
	first, last := mean(p.backlog[:q]), mean(p.backlog[len(p.backlog)-q:])
	return last > senders && last > 2*first
}
