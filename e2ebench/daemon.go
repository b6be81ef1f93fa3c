package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"specsampling/internal/experiments"
	"specsampling/internal/obs"
	"specsampling/internal/sched"
	"specsampling/internal/serve"
	"specsampling/internal/store"
	"specsampling/internal/telemetry"
)

// daemonRuns are the experiments a daemon job runs, one benchmark each.
var daemonRuns = []string{"tableII", "fig6", "fig7", "fig8", "fig10"}

// Read kinds a client issues between two of its jobs, one of each per gap.
const (
	readStatus = iota
	readResult
	readDedup
	readMetrics
	numReadKinds
)

// Store read counters the daemon's jobs advance server-side.
var (
	storeHits   = obs.GetCounter("store.hit")
	storeMisses = obs.GetCounter("store.miss")
)

// daemonJob is one job configuration.
type daemonJob struct {
	Run, Bench string
}

func (j daemonJob) String() string { return j.Run + "/" + j.Bench }

func (j daemonJob) body() []byte {
	// Marshalling a struct of strings cannot fail.
	b, _ := json.Marshal(serve.JobRequest{Run: j.Run, Scale: "small", Benchmarks: []string{j.Bench}})
	return b
}

// digestBook holds the result digest of every job config, recorded the
// first time the config completes and checked every later time.
type digestBook struct {
	mu   sync.Mutex
	want map[string]string
}

// check records digest for key on first sight and otherwise reports
// whether it matches the recorded one.
func (b *digestBook) check(key, digest string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	want, ok := b.want[key]
	if !ok {
		b.want[key] = digest
		return true
	}
	return want == digest
}

// daemonJobs runs an in-process specsimd (serve.New plus Handler on a
// loopback listener) over a warm store, driven closed loop by one client
// per worker. Each client takes the next of the distinct jobs, follows
// each job's event stream to EOF, fetches and checks the result, and
// between jobs issues one read of each kind — a status, a finished job's
// result, a dedup resubmission and a /metrics scrape — in seed-drawn order
// against seed-drawn finished jobs.
type daemonJobs struct {
	env
	jobs []daemonJob
	// gaps[j] are the reads a client issues before job j when it is not the
	// client's first job.
	gaps  [][numReadKinds]readPlan
	store string
	book  *digestBook
}

// readPlan is one seed-drawn read: its kind, and a draw that picks its
// target among the jobs the client has finished.
type readPlan struct {
	kind, draw int
}

func newDaemonJobs(e env) *daemonJobs {
	var jobs []daemonJob
	for _, run := range daemonRuns {
		for _, b := range e.shuffledSuite("daemon_jobs/benchmarks") {
			jobs = append(jobs, daemonJob{Run: run, Bench: b})
		}
	}
	e.rng("daemon_jobs/order").Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	reads := e.rng("daemon_jobs/reads")
	gaps := make([][numReadKinds]readPlan, len(jobs))
	for j := range gaps {
		for i, kind := range reads.Perm(numReadKinds) {
			gaps[j][i] = readPlan{kind: kind, draw: reads.Intn(len(jobs))}
		}
	}
	return &daemonJobs{env: e, jobs: jobs, gaps: gaps, book: &digestBook{want: map[string]string{}}}
}

// setup stores every benchmark's analysis and whole-run mix and cache
// profiles: everything the jobs read.
func (w *daemonJobs) setup(ctx context.Context, dir string) error {
	if err := freshDir(dir); err != nil {
		return err
	}
	w.store = dir
	return w.prewarmStore(ctx, dir, w.shuffledSuite("daemon_jobs/setup"), "fig7", "fig8")
}

// daemon is one running in-process daemon.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
	http *http.Client
}

func (w *daemonJobs) start(ctx context.Context) (*daemon, error) {
	st, err := store.Open(w.store)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(ctx, serve.Config{Store: st, Workers: w.workers, JobWorkers: w.workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	d := &daemon{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
		http: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 4 * w.workers},
		},
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon and waits for its listener goroutine to exit. The
// HTTP shutdown gets its own deadline so it completes even after ctx ends.
func (d *daemon) stop(ctx context.Context) error {
	d.srv.Drain()
	d.http.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// call issues one request and reads the whole body.
func (d *daemon) call(ctx context.Context, method, path, client string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if client != "" {
		req.Header.Set("X-Client-ID", client)
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// clientLog is one closed-loop client: its connection to the daemon and
// what it measured.
type clientLog struct {
	name string
	d    *daemon
	book *digestBook
	tr   *tracer
	root int // parent span of the client's calls

	ops             tally
	jobs, reads     []time.Duration
	queueWait, run  []time.Duration
	shed, dedupHits int
	digests         map[string]string // this iteration's results by job config
	finished        []finishedJob
}

type finishedJob struct {
	id  string
	job daemonJob
}

// op records one HTTP operation's outcome.
func (c *clientLog) op(what string, code int, err error, ok bool, why string) {
	if code == http.StatusServiceUnavailable {
		c.shed++
	}
	switch {
	case err != nil:
		c.ops.check(false, fmt.Sprintf("%s: %v", what, err))
	case !httpOK(code):
		c.ops.check(false, fmt.Sprintf("%s: HTTP %d", what, code))
	default:
		c.ops.check(ok, what+": "+why)
	}
}

// runJob submits one job, follows its events to EOF, fetches and checks
// the result, then reads its status for the queue timestamps.
func (c *clientLog) runJob(ctx context.Context, job daemonJob) {
	js := c.tr.begin(c.root, "daemon.job")
	defer js.end()
	start := time.Now()

	s := c.tr.begin(js.ID(), "serve.submit")
	code, body, err := c.d.call(ctx, "POST", "/v1/jobs", c.name, job.body())
	s.end()
	var st serve.Status
	if err == nil && httpOK(code) {
		err = json.Unmarshal(body, &st)
	}
	c.op("submit "+job.String(), code, err, code == http.StatusAccepted && !st.Dedup && st.ID != "", "want a new job (202)")
	if st.ID == "" {
		return
	}

	s = c.tr.begin(js.ID(), "serve.events")
	code, _, err = c.d.call(ctx, "GET", "/v1/jobs/"+st.ID+"/events", "", nil)
	s.end()
	c.op("events "+job.String(), code, err, true, "")

	s = c.tr.begin(js.ID(), "serve.result")
	code, body, err = c.d.call(ctx, "GET", "/v1/jobs/"+st.ID+"/result", "", nil)
	s.end()
	digest := digestBytes(body)
	c.op("result "+job.String(), code, err, c.book.check(job.String(), digest), "result differs from the first iteration's")
	c.jobs = append(c.jobs, time.Since(start))
	if err != nil || !httpOK(code) {
		return
	}
	c.digests[job.String()] = digest
	c.finished = append(c.finished, finishedJob{id: st.ID, job: job})

	s = c.tr.begin(js.ID(), "serve.status")
	code, body, err = c.d.call(ctx, "GET", "/v1/jobs/"+st.ID, "", nil)
	s.end()
	var fin serve.Status
	if err == nil && httpOK(code) {
		err = json.Unmarshal(body, &fin)
	}
	c.op("status "+job.String(), code, err, fin.State == serve.StateDone, "job not done after its result")
	if created, started, finished, ok := jobTimes(fin); ok {
		c.queueWait = append(c.queueWait, started.Sub(created))
		c.run = append(c.run, finished.Sub(started))
	}
}

func jobTimes(st serve.Status) (created, started, finished time.Time, ok bool) {
	var err1, err2, err3 error
	created, err1 = time.Parse(time.RFC3339Nano, st.Created)
	started, err2 = time.Parse(time.RFC3339Nano, st.Started)
	finished, err3 = time.Parse(time.RFC3339Nano, st.Finished)
	return created, started, finished, err1 == nil && err2 == nil && err3 == nil
}

// readGap issues the reads between two jobs: one of each kind, in the
// planned order.
func (c *clientLog) readGap(ctx context.Context, gap [numReadKinds]readPlan) {
	for _, p := range gap {
		c.read(ctx, p)
	}
}

// read issues one planned read against one of the client's finished jobs.
func (c *clientLog) read(ctx context.Context, p readPlan) {
	if len(c.finished) == 0 {
		return
	}
	target := c.finished[p.draw%len(c.finished)]
	start := time.Now()
	switch p.kind {
	case readStatus:
		s := c.tr.begin(c.root, "serve.status")
		code, body, err := c.d.call(ctx, "GET", "/v1/jobs/"+target.id, "", nil)
		s.end()
		var st serve.Status
		if err == nil && httpOK(code) {
			err = json.Unmarshal(body, &st)
		}
		c.op("read status", code, err, st.ID == target.id && st.State == serve.StateDone, "wrong job or not done")
	case readResult:
		s := c.tr.begin(c.root, "serve.result")
		code, body, err := c.d.call(ctx, "GET", "/v1/jobs/"+target.id+"/result", "", nil)
		s.end()
		c.op("read result", code, err, digestBytes(body) == c.digests[target.job.String()], "result bytes changed")
	case readDedup:
		s := c.tr.begin(c.root, "serve.dedup")
		code, body, err := c.d.call(ctx, "POST", "/v1/jobs", c.name+"-dedup", target.job.body())
		s.end()
		var st serve.Status
		if err == nil && httpOK(code) {
			err = json.Unmarshal(body, &st)
		}
		if st.Dedup {
			c.dedupHits++
		}
		c.op("dedup", code, err, code == http.StatusOK && st.Dedup && st.ID == target.id, "resubmission did not return the original job")
	case readMetrics:
		s := c.tr.begin(c.root, "serve.metrics")
		code, body, err := c.d.call(ctx, "GET", "/metrics", "", nil)
		s.end()
		problems := telemetry.CheckExposition(string(body))
		why := "exposition check failed"
		if len(problems) > 0 {
			why += ": " + problems[0]
		}
		c.op("metrics", code, err, len(problems) == 0, why)
	}
	c.reads = append(c.reads, time.Since(start))
}

func (w *daemonJobs) iterate(ctx context.Context, tr *tracer) (outcome, error) {
	d, err := w.start(ctx)
	if err != nil {
		return outcome{}, err
	}
	clients := make([]*clientLog, w.workers)
	for i := range clients {
		clients[i] = &clientLog{
			name:    fmt.Sprintf("client-%d", i),
			d:       d,
			book:    w.book,
			tr:      tr,
			digests: map[string]string{},
		}
	}
	hits, misses := storeHits.Value(), storeMisses.Value()
	instrs := simInstrs.Value()
	root := tr.begin(0, "iteration")
	start := time.Now()
	// The clients take the jobs in seed order from one shared queue, so
	// none idles while another still has work. Which client runs which
	// job, and so which finished jobs a read can target, depends on timing;
	// the job order, the reads before each job and their draws do not.
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		c.root = root.ID()
		wg.Add(1)
		go func(c *clientLog) {
			defer wg.Done()
			for first := true; ; first = false {
				j := int(next.Add(1) - 1)
				if j >= len(w.jobs) {
					return
				}
				if !first {
					c.readGap(ctx, w.gaps[j])
				}
				c.runJob(ctx, w.jobs[j])
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	root.end()
	out := outcome{Wall: wall, Instrs: simInstrs.Value() - instrs}
	out.StoreGets = storeHits.Value() - hits + storeMisses.Value() - misses
	out.Hits = storeHits.Value() - hits
	if err := d.stop(ctx); err != nil {
		return out, err
	}
	results := map[string]string{}
	for _, c := range clients {
		out.Ops.add(c.ops)
		out.Jobs = append(out.Jobs, c.jobs...)
		out.Reads = append(out.Reads, c.reads...)
		out.QueueWait = append(out.QueueWait, c.queueWait...)
		out.Run = append(out.Run, c.run...)
		out.Shed += c.shed
		out.DedupHits += c.dedupHits
		for k, v := range c.digests {
			results[k] = v
		}
	}
	out.Stats, err = digestJSON(results)
	return out, err
}

// verify checks every recorded daemon result against an in-process Runner
// run of the same config over the same store: the daemon must return
// exactly the bytes cmd/experiments -json would write.
func (w *daemonJobs) verify(ctx context.Context) tally {
	st, err := store.Open(w.store)
	if err != nil {
		return tally{Attempted: 1, Failed: 1, Reasons: []string{err.Error()}}
	}
	got := make([]string, len(w.jobs))
	errs := make([]error, len(w.jobs))
	err = sched.ForEach(ctx, w.workers, len(w.jobs), func(i int) error {
		job := w.jobs[i]
		r, err := w.runner([]string{job.Bench}, st)
		if err != nil {
			errs[i] = err
			return nil
		}
		rep := experiments.NewReport()
		if err := r.RunRecorded(ctx, job.Run, rep); err != nil {
			errs[i] = err
			return nil
		}
		b, err := reportBytes(rep, r)
		errs[i] = err
		got[i] = digestBytes(b)
		return nil
	})
	if err != nil {
		return tally{Attempted: 1, Failed: 1, Reasons: []string{err.Error()}}
	}
	var t tally
	w.book.mu.Lock()
	defer w.book.mu.Unlock()
	for i, job := range w.jobs {
		switch want, ok := w.book.want[job.String()]; {
		case errs[i] != nil:
			t.check(false, fmt.Sprintf("in-process %s: %v", job, errs[i]))
		case !ok:
			t.check(false, fmt.Sprintf("no daemon result for %s", job))
		default:
			t.check(got[i] == want, fmt.Sprintf("daemon result for %s differs from the in-process run", job))
		}
	}
	return t
}

func (w *daemonJobs) inputs() string {
	names := make([]string, len(w.jobs))
	for i, j := range w.jobs {
		names[i] = j.String()
	}
	return fmt.Sprintf("clients=%d reads_per_gap=%d jobs=%s", w.workers, numReadKinds, strings.Join(names, ","))
}
