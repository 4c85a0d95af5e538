package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gpues/internal/sim"
	"gpues/internal/simserv"
	"gpues/internal/simserv/queue"
)

const (
	// fabricWindow is the submitter's closed-loop window: jobs kept
	// outstanding at once.
	fabricWindow = 4
	// fabricSlice is the workers' renewal slice in cycles, short enough
	// that most jobs renew their lease several times.
	fabricSlice = 20_000
	// repeatEvery makes every repeatEvery-th job a repeat of an earlier
	// one (a cache hit or a coalesced submission).
	repeatEvery = 5
	// sessionTimeout bounds how long a session may overrun its time; a
	// job that never completes fails the session instead of hanging the
	// benchmark.
	sessionTimeout = 60 * time.Second
)

// fabric is an in-process coordinator behind a loopback listener. The
// coordinator can be swapped for one reopened from the same journal
// while the listener stays up.
type fabric struct {
	b      *bench
	cur    atomic.Pointer[simserv.Coordinator]
	srv    *http.Server
	url    string
	served chan error
}

func (b *bench) startFabric() (*fabric, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fabric{b: b, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	f.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.cur.Load().ServeHTTP(w, r)
	})}
	go func() { f.served <- f.srv.Serve(ln) }()
	return f, nil
}

// close stops the listener and waits for the server to exit.
func (f *fabric) close() {
	f.srv.Close()
	<-f.served
}

func (f *fabric) open(dir string) (*simserv.Coordinator, error) {
	return simserv.NewCoordinator(simserv.Options{
		Queue: queue.Config{
			Lease:      int64(10 * time.Minute),
			MaxRetries: 3,
			Backoff:    int64(10 * time.Millisecond),
			Seed:       f.b.opt.seed,
		},
		JournalDir: dir,
	})
}

// jobStream yields a session's submissions: passes over the pool in
// seeded orders, with every repeatEvery-th job a seeded repeat of an
// earlier submission. Each pass sets its own MaxCycles, far above every
// cell's cycle count, so the simulation is the same but the result
// cache cannot answer a later pass from an earlier one.
type jobStream struct {
	pool  []cell
	rng   *rand.Rand
	order []int
	pass  int
	sent  []cell
	n     int
}

func (s *jobStream) next() cell {
	s.n++
	if s.n%repeatEvery == 0 && len(s.sent) > 0 {
		return s.sent[s.rng.Intn(len(s.sent))]
	}
	if len(s.order) == 0 {
		s.order = s.rng.Perm(len(s.pool))
		s.pass++
	}
	c := s.pool[s.order[0]]
	s.order = s.order[1:]
	c.MaxCycles = sim.DefaultMaxCycles - int64(s.pass)
	s.sent = append(s.sent, c)
	return c
}

// session runs the closed loop against a fresh journal with
// parallelism workers until the time is spent and at least one pass
// over the pool is submitted. Half way it drains the coordinator and
// reopens it from the journal. Throughput counts what completed before
// the submitter stopped; every job is checked.
func (f *fabric) session(i int) unitResult {
	b := f.b
	run := fmt.Sprintf("session-%d", i)
	root := b.tr.begin("fabric.session", run, 0)
	defer b.tr.end(root)
	dir := filepath.Join(b.opt.tmp, run)
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	c, err := f.open(dir)
	if err != nil {
		b.attempted++
		b.fail(fmt.Errorf("%s: open coordinator: %w", run, err))
		return unitResult{}
	}
	f.cur.Store(c)
	rec := newSessionRec(b.tr, root)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wk := &simserv.Worker{
			Client:      &simserv.Client{Base: f.url, HTTP: &http.Client{Transport: rec.transport()}},
			Name:        fmt.Sprintf("w%d", w),
			Spool:       c.SpoolDir(),
			SliceCycles: fabricSlice,
			Poll:        2 * time.Millisecond,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk.Run(ctx) //nolint:errcheck // Run returns nil once ctx is canceled
		}()
	}
	defer func() { cancel(); wg.Wait() }()

	sub := &simserv.Client{Base: f.url, HTTP: &http.Client{Transport: rec.transport()}}
	stream := &jobStream{pool: b.pool, rng: b.rng(i)}
	total := time.Duration(b.opt.seconds * float64(time.Second))
	start := time.Now()
	deadline := start.Add(total + sessionTimeout)
	drained := false
	for k := 0; time.Since(start) < total || k < len(b.pool); k++ {
		if err := rec.waitBelow(fabricWindow, deadline); err != nil {
			break
		}
		if !drained && time.Since(start) >= total/2 && k >= len(b.pool)/2 {
			drained = true
			if c, err = f.restart(c, dir, run, root); err != nil {
				b.fail(fmt.Errorf("%s: %w", run, err))
				break
			}
		}
		job := stream.next()
		t0 := time.Now()
		resp, err := sub.Submit(simserv.SubmitRequest{Spec: job})
		t1 := time.Now()
		b.attempted++
		if err != nil {
			b.fail(fmt.Errorf("%s: submit %s: %w", run, cellKey(job), err))
			continue
		}
		rec.submitted(resp.ID, job, resp.Result, t0, t1)
	}
	stop := time.Now()
	if err := rec.waitBelow(1, deadline); err != nil {
		b.fail(fmt.Errorf("%s: %w", run, err))
	}
	u := unitResult{wall: stop.Sub(start).Seconds()}
	f.verify(sub, rec, &u, stop)
	b.fabricRecs = append(b.fabricRecs, rec)
	return u
}

// restart drains the coordinator, so leased workers checkpoint and hand
// their jobs back, and swaps in a coordinator reopened from the journal.
func (f *fabric) restart(c *simserv.Coordinator, dir, run string, root int) (*simserv.Coordinator, error) {
	id := f.b.tr.begin("simserv.drain", run, root)
	err := c.Drain(sessionTimeout)
	f.b.tr.end(id)
	if err != nil {
		return c, err
	}
	id = f.b.tr.begin("simserv.reopen", run, root)
	c2, err := f.open(dir)
	f.b.tr.end(id)
	if err != nil {
		return c, fmt.Errorf("reopen from journal: %w", err)
	}
	f.cur.Store(c2)
	return c2, nil
}

// verify checks every job the coordinator knows against the table and
// folds the session into u: jobs and simulated work that completed by
// stop, and every job's latency.
func (f *fabric) verify(sub *simserv.Client, rec *sessionRec, u *unitResult, stop time.Time) {
	b := f.b
	list, err := sub.Jobs()
	if err != nil {
		b.fail(fmt.Errorf("list jobs: %w", err))
		return
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, js := range list {
		j, ok := rec.jobs[js.ID]
		if !ok {
			b.fail(fmt.Errorf("job %s was never submitted", js.ID))
			continue
		}
		if js.State != queue.Done.String() || js.Result == nil {
			b.fail(fmt.Errorf("job %s (%s) ended %s: %s", js.ID, cellKey(j.cell), js.State, js.LastError))
			continue
		}
		if err := b.exp.checkCounts(j.cell, js.Result.Cycles, js.Result.Committed); err != nil {
			b.fail(fmt.Errorf("job %s: %w", js.ID, err))
			continue
		}
		if j.done.IsZero() {
			b.fail(fmt.Errorf("job %s (%s) finished unobserved", js.ID, cellKey(j.cell)))
			continue
		}
		u.verified++
		u.latencies = append(u.latencies, j.done.Sub(j.submitStart).Seconds())
		b.tr.add("fabric.job", js.ID, rec.root, j.submitStart, j.done)
		if !j.done.After(stop) {
			u.jobs++
		}
	}
	for _, a := range rec.acks {
		if !a.at.After(stop) {
			u.cycles += a.cycles
			u.insts += a.committed
		}
	}
}

// jobRec is one submission as the submitter and the workers' transport
// saw it.
type jobRec struct {
	cell                   cell
	submitStart, submitEnd time.Time
	done                   time.Time
	cacheHit               bool
}

// ackRec is one acknowledged completion of a simulated job.
type ackRec struct {
	at                time.Time
	cycles, committed int64
}

// sessionRec follows one session's jobs. Completion is observed on the
// workers' transport: a simulated job's result is available when the
// coordinator acknowledges the worker's /v1/complete, and every
// submission coalesced onto that job completes with it. Jobs are
// grouped by their cache identity: the cell and its MaxCycles.
type sessionRec struct {
	tr   *tracer
	root int

	mu       sync.Mutex
	jobs     map[string]*jobRec
	waiting  map[cell][]*jobRec   // accepted, not yet complete
	pending  int                  // total entries in waiting
	acked    map[cell]time.Time   // completion acknowledgement
	early    map[string]time.Time // acks seen before the submit returned
	claims   map[string]time.Time // job -> latest claim
	firstClm map[string]time.Time
	leases   []float64
	ops      map[string][]float64 // call -> round-trip seconds
	acks     []ackRec
	changed  chan struct{}
}

func newSessionRec(tr *tracer, root int) *sessionRec {
	return &sessionRec{
		tr: tr, root: root,
		jobs:     map[string]*jobRec{},
		waiting:  map[cell][]*jobRec{},
		acked:    map[cell]time.Time{},
		early:    map[string]time.Time{},
		claims:   map[string]time.Time{},
		firstClm: map[string]time.Time{},
		ops:      map[string][]float64{},
		changed:  make(chan struct{}, 1),
	}
}

func (r *sessionRec) signal() {
	select {
	case r.changed <- struct{}{}:
	default:
	}
}

// waitBelow blocks until fewer than n accepted jobs are outstanding.
func (r *sessionRec) waitBelow(n int, deadline time.Time) error {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for {
		r.mu.Lock()
		p := r.pending
		r.mu.Unlock()
		if p < n {
			return nil
		}
		select {
		case <-r.changed:
		case <-timer.C:
			return fmt.Errorf("%d jobs still outstanding at the deadline", p)
		}
	}
}

// submitted registers a submit response: a cached result completes the
// job at once; an accepted job waits for its cell's acknowledgement.
func (r *sessionRec) submitted(id string, c cell, res *queue.Result, t0, t1 time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j := &jobRec{cell: c, submitStart: t0, submitEnd: t1}
	r.jobs[id] = j
	switch {
	case res != nil:
		j.cacheHit, j.done = true, t1
	case !r.early[id].IsZero():
		r.add(j)
		r.finishCell(c, r.early[id])
	case !r.acked[c].IsZero():
		// Coalesced onto an in-flight job whose acknowledgement raced
		// ahead of this submit's response.
		j.done = r.acked[c]
	default:
		r.add(j)
	}
}

func (r *sessionRec) add(j *jobRec) {
	r.waiting[j.cell] = append(r.waiting[j.cell], j)
	r.pending++
}

// finishCell completes every accepted job of a cell. Caller holds mu.
func (r *sessionRec) finishCell(c cell, t time.Time) {
	r.acked[c] = t
	for _, j := range r.waiting[c] {
		j.done = t
		r.pending--
	}
	delete(r.waiting, c)
	r.signal()
}

// ack records the coordinator's acknowledgement of a completion.
// Caller holds mu.
func (r *sessionRec) ack(req simserv.CompleteRequest, t time.Time) {
	r.acks = append(r.acks, ackRec{at: t, cycles: req.Cycles, committed: req.Committed})
	r.endLease(req.JobID, t)
	j, ok := r.jobs[req.JobID]
	if !ok {
		r.early[req.JobID] = t
		return
	}
	r.finishCell(j.cell, t)
}

// endLease closes the lease a claim opened. Caller holds mu.
func (r *sessionRec) endLease(job string, t time.Time) {
	if c, ok := r.claims[job]; ok {
		r.leases = append(r.leases, t.Sub(c).Seconds())
		delete(r.claims, job)
	}
}

// transport returns a RoundTripper that times every fabric call and
// feeds claims, completions and hand-backs into the record.
func (r *sessionRec) transport() http.RoundTripper {
	return &observer{rec: r, base: &http.Transport{MaxIdleConnsPerHost: 4}}
}

type observer struct {
	rec  *sessionRec
	base http.RoundTripper
}

func (o *observer) RoundTrip(req *http.Request) (*http.Response, error) {
	op := path.Base(req.URL.Path)
	if op == "jobs" && req.Method == http.MethodPost {
		op = "submit"
	}
	// Worker reports name their job in the request body, claims in the
	// response body; both are read here and passed on as copies.
	var ref struct {
		JobID string `json:"job_id"`
	}
	var body []byte
	if op == "complete" || op == "preempt" || op == "fail" {
		var err error
		body, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		req = req.Clone(req.Context())
		req.Body = io.NopCloser(bytes.NewReader(body))
		if err := json.Unmarshal(body, &ref); err != nil {
			return nil, fmt.Errorf("%s request: %w", op, err)
		}
	}
	start := time.Now()
	resp, err := o.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if op == "claim" && resp.StatusCode == http.StatusOK {
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		resp.Body = io.NopCloser(bytes.NewReader(b))
		if err := json.Unmarshal(b, &ref); err != nil {
			return nil, fmt.Errorf("claim response: %w", err)
		}
	}
	end := time.Now()
	r := o.rec
	r.tr.add("simserv."+op, ref.JobID, r.root, start, end)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops[op] = append(r.ops[op], end.Sub(start).Seconds())
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	switch op {
	case "claim":
		r.claims[ref.JobID] = end
		if _, ok := r.firstClm[ref.JobID]; !ok {
			r.firstClm[ref.JobID] = end
		}
	case "complete":
		var cr simserv.CompleteRequest
		if err := json.Unmarshal(body, &cr); err != nil {
			return nil, fmt.Errorf("complete request: %w", err)
		}
		r.ack(cr, end)
	case "preempt", "fail":
		r.endLease(ref.JobID, end)
	}
	return resp, nil
}

// fabricLayers derives the simserv per-layer metrics from the sessions.
func fabricLayers(recs []*sessionRec) map[string]float64 {
	ops := map[string][]float64{}
	var waits, leases []float64
	var jobs, hits int
	for _, r := range recs {
		r.mu.Lock()
		for op, xs := range r.ops {
			ops[op] = append(ops[op], xs...)
		}
		leases = append(leases, r.leases...)
		for id, j := range r.jobs {
			jobs++
			if j.cacheHit {
				hits++
			}
			if c, ok := r.firstClm[id]; ok {
				waits = append(waits, max(0, c.Sub(j.submitEnd).Seconds()))
			}
		}
		r.mu.Unlock()
	}
	out := map[string]float64{}
	for _, op := range []string{"submit", "claim", "renew", "complete"} {
		out["simserv."+op+"_s.p50"] = median(ops[op])
	}
	out["simserv.queue_wait_s.p50"] = median(waits)
	out["simserv.queue_wait_s.tail"], _ = tail(waits)
	out["simserv.lease_s.p50"] = median(leases)
	if jobs > 0 {
		out["simserv.cache_hit_frac"] = float64(hits) / float64(jobs)
	}
	out["simserv.renews"] = float64(len(ops["renew"]))
	out["simserv.retries"] = float64(len(ops["fail"]))
	out["simserv.preempts"] = float64(len(ops["preempt"]))
	return out
}
