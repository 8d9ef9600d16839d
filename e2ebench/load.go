package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tiptop"
	"tiptop/internal/core"
	"tiptop/internal/query"
	"tiptop/internal/remote"
)

// published is what the sampling loop knows about one published refresh:
// what every check of its outputs compares against.
type published struct {
	due    time.Time
	pubEnd time.Time
	rows   int
	recv   time.Time // last byte at the subscriber, once received
}

// phase is one timed run of a pipeline under the workload's load. The
// load runs for warmup before the measured window of length begins at
// from: every operation is checked, but only those due in the window
// are measured.
type phase struct {
	p      *pipeline
	spec   Spec
	in     *Inputs
	warmup time.Duration
	length time.Duration
	start  time.Time
	from   time.Time

	mu       sync.Mutex
	pubs     []*published // by refresh version; 0 is the attach refresh
	received uint64       // newest version the subscriber has seen
	frames   int          // distinct frames the subscriber received
	failures []string

	attempted atomic.Int64
	failed    atomic.Int64
	checkCPU  atomic.Int64 // benchmark-side CPU, excluded from tiptop's

	// results, written by one goroutine each
	deliverMS  []float64 // due → last byte at the subscriber
	frameBytes []float64
	scrapeMS   []float64
	queryMS    map[string][]float64
	// how late the generator issued each refresh, scrape and query
	lateRefresh, lateScrape, lateQuery []float64
	scrapeSeen                         []scrapeSeen
	refreshes                          int
	tasks                              float64 // monitored rows summed over refreshes
	coverage                           []float64
	simCPU                             time.Duration
	procCPU                            time.Duration
	checkCPUTotal                      time.Duration
	advanceMS                          []float64
	lockstep                           int // refreshes on which the twin disagreed with the facade
	twinStats                          twinStats
	queryStats                         queryStats
	quietAlloc                         []float64

	// The request client's checks: a body byte-equal to one that
	// already passed passes without being parsed again.
	served      [][]byte // per pool query, the first body that passed
	scraped     []byte   // the last /metrics body parsed
	scrapedTask float64  // its tiptop_tasks gauge
}

type scrapeSeen struct {
	version uint64
	tasks   float64
}

type twinStats struct {
	innerAttach, innerReads int64
	outerReadUS             []float64 // per refresh, per task
	storeBytes              []float64 // store growth per refresh
	usage                   int64
	sealed                  int
}

func newPhase(p *pipeline, warmup, length time.Duration) *phase {
	ph := &phase{p: p, spec: p.spec, in: p.in, warmup: warmup, length: length,
		queryMS: map[string][]float64{},
		pubs:    []*published{{rows: len(p.first.Rows)}},
		served:  make([][]byte, len(p.in.Queries))}
	if p.tw != nil {
		ph.twinStats.usage = p.tw.st.DiskUsage()
	}
	return ph
}

func (ph *phase) fail(format string, args ...any) {
	ph.failed.Add(1)
	ph.mu.Lock()
	if len(ph.failures) < 20 {
		ph.failures = append(ph.failures, fmt.Sprintf(format, args...))
	}
	ph.mu.Unlock()
}

// benchCPU runs f locked to the calling thread and books its CPU as
// the benchmark's own, not tiptop's.
func (ph *phase) benchCPU(f func()) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	f()
	ph.checkCPU.Add(int64(threadCPU() - c0))
}

// spinMargin is how long before a due time the generator stops
// sleeping and spins. Waking the sleeping sampling loop, which is locked
// to its thread, took about 0.6 ms at the median on the 2-vCPU VM the
// benchmark was tuned on, a fifth of a history-query delivery.
const spinMargin = time.Millisecond

// waitUntil returns at t: it sleeps until spinMargin before t and spins
// the rest, booking the spin as the benchmark's CPU.
func (ph *phase) waitUntil(t time.Time) {
	if d := time.Until(t) - spinMargin; d > 0 {
		time.Sleep(d)
	}
	ph.benchCPU(func() {
		for time.Now().Before(t) {
		}
	})
}

// measured reports whether an operation due at due is in the measured
// window rather than the warm-up.
func (ph *phase) measured(due time.Time) bool { return !due.Before(ph.from) }

func (ph *phase) pub(v uint64) *published {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if v < uint64(len(ph.pubs)) {
		return ph.pubs[v]
	}
	return nil
}

func (ph *phase) latest() uint64 {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	return uint64(len(ph.pubs) - 1)
}

// run drives the pipeline for the phase length: the sampling loop
// (this goroutine) refreshes on an open-loop schedule while a stream
// subscriber and a request client (scrapes and queries) each hold one
// connection.
func (ph *phase) run() error {
	p := ph.p
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	subDone := make(chan struct{})
	subReady := make(chan error, 1)
	go ph.subscribe(ctx, subReady, subDone)
	if err := <-subReady; err != nil {
		cancel()
		<-subDone
		return err
	}
	for p.srv.Hub().Subscribers() == 0 {
		time.Sleep(time.Millisecond)
	}

	if err := ph.prepare(0); err != nil {
		cancel()
		<-subDone
		return err
	}
	// Collect the set-up's garbage now, so the phase does not pay for
	// it: a long-running daemon paid for it long ago.
	runtime.GC()
	ph.start = time.Now()
	warm := int(ph.warmup / ph.spec.Period)
	ph.from = ph.start.Add(time.Duration(warm) * ph.spec.Period)
	if p.tr != nil {
		p.tr.t0 = ph.start
	}
	clientDone := make(chan struct{})
	go ph.client(ctx, clientDone)

	n := warm + int(ph.length/ph.spec.Period)
	var cpu0 time.Duration
	var check0 int64
	var runErr error
	for k := 0; k < n; k++ {
		due := ph.start.Add(time.Duration(k) * ph.spec.Period)
		if k == warm {
			// The measured window starts: CPU is counted from here.
			// Refresh k's advance ran in the warm-up and is in neither.
			cpu0, check0 = processCPU(), ph.checkCPU.Load()
			ph.simCPU = 0
		}
		ph.waitUntil(due)
		if err := ph.refresh(due); err != nil {
			runErr = err
			break
		}
		if k+1 < n {
			if err := ph.prepare(k + 1); err != nil {
				runErr = err
				break
			}
		}
	}
	<-clientDone
	// Wait for the last frame, then stop the stream.
	last := ph.latest()
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		ph.mu.Lock()
		got := ph.received
		ph.mu.Unlock()
		if got >= last {
			break
		}
	}
	cancel()
	<-subDone
	ph.procCPU = processCPU() - cpu0
	ph.checkCPUTotal = time.Duration(ph.checkCPU.Load() - check0)

	// Every published refresh is one attempted delivery.
	ph.attempted.Add(int64(last))
	ph.mu.Lock()
	frames := ph.frames
	ph.mu.Unlock()
	for i := frames; i < int(last); i++ {
		ph.fail("refresh frame never delivered (%d of %d arrived)", frames, last)
	}
	ph.checkScrapes()
	if p.tw != nil && runErr == nil {
		runErr = ph.quietTail()
	}
	return runErr
}

// prepare runs what precedes refresh k and is not tiptop's cost: the
// seeded task churn and the simulated machine's advance, whose thread
// CPU is subtracted from the process CPU.
func (ph *phase) prepare(k int) error {
	p := ph.p
	c0 := threadCPU()
	t0 := time.Now()
	err := p.churn(k)
	if err == nil {
		p.sc.Advance(ph.spec.Period)
	}
	t1 := time.Now()
	ph.advanceMS = append(ph.advanceMS, ms(t1.Sub(t0)))
	p.tr.add("sim.advance", t0, t1, -1, uint64(k+1))
	if p.tw != nil && err == nil {
		if err = p.tw.churn(ph.in, k); err == nil {
			p.tw.k.Advance(ph.spec.Period)
		}
		p.tr.add("twin.sim.advance", t1, time.Now(), -1, uint64(k+1))
	}
	ph.simCPU += threadCPU() - c0
	return err
}

// refresh is one refresh, due at due: SampleNow, WireSample and
// Publish. In a traced run the twin samples the same simulated interval
// just before.
func (ph *phase) refresh(due time.Time) error {
	p := ph.p
	var cs *core.Sample
	tw0 := time.Now()
	if p.tw != nil {
		// The twin samples first, back to back with the facade, so
		// both see the same machine state and load.
		var err error
		if cs, err = p.tw.sess.Update(); err != nil {
			return err
		}
	}
	t0 := time.Now()
	s, err := p.mon.SampleNow()
	if err != nil {
		return err
	}
	t1 := time.Now()
	ws := p.mon.WireSample(s)
	t2 := time.Now()

	pb := &published{due: due, rows: len(s.Rows)}
	ph.mu.Lock()
	ph.pubs = append(ph.pubs, pb)
	v := uint64(len(ph.pubs) - 1)
	ph.mu.Unlock()
	if err := p.srv.Publish(ws); err != nil {
		return err
	}
	t3 := time.Now()
	ph.lateRefresh = append(ph.lateRefresh, ms(t0.Sub(due)))
	// Bookkeeping for the checks runs after Publish, off the measured
	// sample-to-subscriber path.
	ph.benchCPU(func() {
		if ph.measured(due) {
			var cov float64
			for _, r := range s.Rows {
				cov += r.Coverage
			}
			ph.coverage = append(ph.coverage, ratio(cov, float64(len(s.Rows))))
			ph.tasks += float64(len(s.Rows))
			ph.refreshes++
		}
		ph.mu.Lock()
		pb.pubEnd = t3
		ph.mu.Unlock()
	})

	if tr := p.tr; tr != nil {
		tr.add("sched.wait", due, tw0, -1, v)
		root := tr.add("twin.update", tw0, t0, -1, v)
		h := tr.add("twin.history.observe", p.tw.histObs.start, p.tw.histObs.end, root, v)
		tr.add("twin.store.append", p.tw.storeObs.start, p.tw.storeObs.end, h, v)
		tr.add("facade.sample", t0, t1, -1, v)
		tr.add("remote.wire_translate", t1, t2, -1, v)
		tr.add("remote.publish", t2, t3, -1, v)
		ph.twinStats.note(ph, s, cs)
	}
	return nil
}

// note records the twin's counters for one refresh and checks that the
// twin agrees with the facade.
func (st *twinStats) note(ph *phase, s *tiptop.Sample, cs *core.Sample) {
	tw := ph.p.tw
	ph.benchCPU(func() {
		ia, ir, _ := tw.inner.snapshot()
		_, _, ot := tw.outer.snapshot()
		st.innerAttach += ia
		st.innerReads += ir
		if len(cs.Rows) > 0 {
			st.outerReadUS = append(st.outerReadUS, float64(ot)/1e3/float64(len(cs.Rows)))
		}
		usage := tw.st.DiskUsage()
		st.storeBytes = append(st.storeBytes, float64(usage-st.usage))
		st.usage = usage
		st.sealed += tw.countSegments()
		// Lockstep: the twin must see the facade's tasks and counts.
		var a, b uint64
		for _, r := range s.Rows {
			a += r.Events["CYCLES"]
		}
		for _, r := range cs.Rows {
			b += r.Events["CYCLES"]
		}
		if len(cs.Rows) != len(s.Rows) || a != b {
			ph.lockstep++
		}
	})
}

// quietTail counts the engine's heap allocations per refresh on the
// twin alone, after the load has stopped, so no other goroutine's
// allocations are counted.
func (ph *phase) quietTail() error {
	tw := ph.p.tw
	tw.histObs.counting = true
	defer func() { tw.histObs.counting = false }()
	for i := 0; i < 5; i++ {
		tw.k.Advance(ph.spec.Period)
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		if _, err := tw.sess.Update(); err != nil {
			return err
		}
		runtime.ReadMemStats(&b)
		ph.quietAlloc = append(ph.quietAlloc, float64(b.Mallocs-a.Mallocs-tw.histObs.mallocs))
	}
	return nil
}

// subscribe holds the stream connection: every frame must decode, carry
// the next refresh id, the refresh's row count and the screen's
// columns. A gap in ids is a hub drop and counts as failed delivery.
func (ph *phase) subscribe(ctx context.Context, ready chan<- error, done chan<- struct{}) {
	defer close(done)
	u := ph.p.url + "/api/v1/stream"
	if ph.spec.Wire == "binary" {
		u += "?wire=binary"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		ready <- err
		return
	}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	resp, err := client.Do(req)
	if err != nil {
		ready <- err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ready <- fmt.Errorf("stream: %s", resp.Status)
		return
	}
	ready <- nil
	fr := &frameReader{br: bufio.NewReaderSize(resp.Body, 1<<16), wire: ph.spec.Wire}
	next := uint64(1)
	for {
		payload, err := fr.next()
		recv := time.Now()
		if err != nil {
			return // the stream ends when the phase cancels it
		}
		var v uint64
		ph.benchCPU(func() { v = ph.checkFrame(payload, recv, &next) })
		ph.mu.Lock()
		if v > ph.received {
			ph.received = v
		}
		ph.mu.Unlock()
	}
}

// frameReader reads stream frames into one buffer it reuses, as a
// long-lived client would, so the subscriber adds no per-frame garbage
// for the collector to chase while tiptop is being timed.
type frameReader struct {
	br   *bufio.Reader
	wire string
	buf  []byte
}

// next reads one stream frame: an SSE event whose data line is the
// JSON sample, or a length-prefixed binary sample. The frame is valid
// until the following call.
func (f *frameReader) next() ([]byte, error) {
	if f.wire == "binary" {
		var hdr [4]byte
		if _, err := io.ReadFull(f.br, hdr[:]); err != nil {
			return nil, err
		}
		f.buf = grow(f.buf[:0], int(binary.LittleEndian.Uint32(hdr[:])))
		_, err := io.ReadFull(f.br, f.buf)
		return f.buf, err
	}
	f.buf = f.buf[:0]
	data := -1 // offset of the data line's payload in buf
	for {
		start := len(f.buf)
		if err := f.line(); err != nil {
			return nil, err
		}
		line := f.buf[start:]
		switch {
		case len(line) == 1: // blank line ends the event
			if data < 0 {
				return nil, fmt.Errorf("sse event without data")
			}
			return f.buf[data : start-1], nil
		case data < 0 && bytes.HasPrefix(line, []byte("data: ")):
			data = start + 6
		default:
			f.buf = f.buf[:start] // other fields are not kept
		}
	}
}

// line appends the next line, newline included, to buf.
func (f *frameReader) line() error {
	for {
		chunk, err := f.br.ReadSlice('\n')
		f.buf = append(f.buf, chunk...)
		if err != bufio.ErrBufferFull {
			return err
		}
	}
}

func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

func (ph *phase) checkFrame(payload []byte, recv time.Time, next *uint64) uint64 {
	var ws *remote.Sample
	var err error
	if ph.spec.Wire == "binary" {
		ws, err = remote.DecodeBinary(payload)
	} else {
		ws, err = remote.Decode(payload)
	}
	if err != nil {
		ph.mu.Lock()
		ph.frames++
		ph.mu.Unlock()
		ph.fail("frame decode: %v", err)
		return 0
	}
	v := ws.Refresh
	if v < *next {
		return v // a replay of a frame already seen
	}
	*next = v + 1
	ph.mu.Lock()
	ph.frames++
	ph.mu.Unlock()
	pb := ph.pub(v)
	if pb == nil {
		ph.fail("frame %d was never published", v)
		return v
	}
	if len(ws.Rows) != pb.rows {
		ph.fail("frame %d: %d rows, published %d", v, len(ws.Rows), pb.rows)
		return v
	}
	if names := ws.ColumnNames(); strings.Join(names, ",") != strings.Join(ph.p.cols, ",") {
		ph.fail("frame %d: columns %v, want %v", v, names, ph.p.cols)
		return v
	}
	ph.mu.Lock()
	pb.recv = recv
	if ph.measured(pb.due) {
		ph.deliverMS = append(ph.deliverMS, ms(recv.Sub(pb.due)))
		ph.frameBytes = append(ph.frameBytes, float64(len(payload)))
	}
	ph.mu.Unlock()
	return v
}

// client issues the scrape and query schedule over one connection. A
// request is timed from when it was due, so a stall also counts
// against the requests queued behind it. Every response body is read
// into one reused buffer, as a long-lived scraper does.
func (ph *phase) client(ctx context.Context, done chan<- struct{}) {
	defer close(done)
	client := &reqClient{Client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: 10 * time.Second}}
	defer client.CloseIdleConnections()
	for _, d := range ph.in.Requests {
		due := ph.start.Add(d.At)
		ph.waitUntil(due)
		if ctx.Err() != nil {
			return
		}
		began := time.Now()
		ph.attempted.Add(1)
		if d.Query < 0 {
			ph.lateScrape = append(ph.lateScrape, ms(began.Sub(due)))
			ph.scrape(ctx, client, due)
		} else {
			ph.lateQuery = append(ph.lateQuery, ms(began.Sub(due)))
			ph.query(ctx, client, due, d.Query)
		}
	}
}

// reqClient is the request client's connection and its body buffer.
type reqClient struct {
	*http.Client
	body bytes.Buffer
}

// get GETs u and reads the body into the client's buffer. The body is
// valid until the next get.
func (c *reqClient) get(ctx context.Context, u string) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	return resp, c.body.Bytes(), err
}

// scrape GETs /metrics as a polling scraper does, without
// revalidation: a repeat within one refresh is served from the encode
// cache. Every body must parse as OpenMetrics text.
func (ph *phase) scrape(ctx context.Context, client *reqClient, due time.Time) {
	start := time.Now()
	resp, body, err := client.get(ctx, ph.p.url+"/metrics")
	end := time.Now()
	if ph.measured(due) {
		ph.scrapeMS = append(ph.scrapeMS, ms(end.Sub(due)))
	}
	ph.p.tr.add("client.scrape", start, end, -1, 0)
	if err != nil {
		ph.fail("scrape: %v", err)
		return
	}
	ph.benchCPU(func() {
		if resp.StatusCode != http.StatusOK {
			ph.fail("scrape: %s", resp.Status)
			return
		}
		etag := resp.Header.Get("ETag")
		v, err := strconv.ParseUint(strings.Trim(etag, `"`), 10, 64)
		if err != nil {
			ph.fail("scrape: bad ETag %q", etag)
			return
		}
		// Repeats within a refresh serve the cached body: one that
		// equals the body parsed last carries the same gauge.
		tasks := ph.scrapedTask
		if !bytes.Equal(body, ph.scraped) {
			if tasks, err = parseOpenMetrics(body); err != nil {
				ph.fail("scrape %d: %v", v, err)
				ph.scraped = ph.scraped[:0]
				return
			}
			ph.scraped = append(ph.scraped[:0], body...)
			ph.scrapedTask = tasks
		}
		ph.mu.Lock()
		ph.scrapeSeen = append(ph.scrapeSeen, scrapeSeen{version: v, tasks: tasks})
		ph.mu.Unlock()
	})
}

// parseOpenMetrics checks that every line is a comment or a sample with
// a numeric value, and returns the tiptop_tasks gauge. It works on the
// body in place: a copy of a 4 MB body per scrape would be most of the
// benchmark's own garbage.
func parseOpenMetrics(body []byte) (float64, error) {
	tasks := math.NaN()
	for rest := body; len(rest) > 0; {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte("\n"))
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		i := bytes.LastIndexByte(line, ' ')
		if i <= 0 {
			return 0, fmt.Errorf("malformed line %q", line)
		}
		v, err := strconv.ParseFloat(string(line[i+1:]), 64)
		if err != nil {
			return 0, fmt.Errorf("malformed value in %q", line)
		}
		if string(line[:i]) == "tiptop_tasks" {
			tasks = v
		}
	}
	if math.IsNaN(tasks) {
		return 0, fmt.Errorf("no tiptop_tasks gauge")
	}
	return tasks, nil
}

// checkScrapes compares each scraped task count with the refresh its
// ETag names. The body comes from the recorder, which SampleNow
// updates before Publish bumps the version, so a body may already
// carry the next refresh: both are accepted.
func (ph *phase) checkScrapes() {
	for _, s := range ph.scrapeSeen {
		ok := false
		for _, v := range []uint64{s.version, s.version + 1} {
			if pb := ph.pub(v); pb != nil && float64(pb.rows) == s.tasks {
				ok = true
			}
		}
		if !ok {
			ph.fail("scrape of refresh %d: tiptop_tasks %v matches neither it nor the next", s.version, s.tasks)
		}
	}
}

// query issues one query of the pool and checks the answer against the
// reference computed in setup.
func (ph *phase) query(ctx context.Context, client *reqClient, due time.Time, idx int) {
	q := ph.in.Queries[idx]
	p := ph.p
	v := url.Values{}
	if q.Tier == TierRaw {
		v.Set("pid", strconv.Itoa(p.qpid[idx]))
	} else {
		v.Set("expr", q.Expr)
		v.Set("step", fmt.Sprint(q.Step))
	}
	v.Set("from", fmt.Sprint(q.From))
	v.Set("to", fmt.Sprint(q.To))
	start := time.Now()
	resp, body, err := client.get(ctx, p.url+"/api/v1/query?"+v.Encode())
	end := time.Now()
	if ph.measured(due) {
		ph.queryMS[q.Tier] = append(ph.queryMS[q.Tier], ms(end.Sub(due)))
	}
	if tr := p.tr; tr != nil {
		root := tr.add("client.query."+q.Tier, due, end, -1, 0)
		tr.add("client.wait", due, start, root, 0)
	}
	if err != nil {
		ph.fail("query %d: %v", idx, err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		ph.fail("query %d: %s: %s", idx, resp.Status, firstLine(body))
		return
	}
	ph.benchCPU(func() {
		if ph.served[idx] != nil && bytes.Equal(body, ph.served[idx]) {
			return
		}
		var ok bool
		if q.Tier == TierRaw {
			var res tiptop.StoreResult
			ok = ph.checkRef(idx, body, &res)
		} else {
			var res query.Result
			ok = ph.checkRef(idx, body, &res)
		}
		if ok && ph.served[idx] == nil {
			ph.served[idx] = bytes.Clone(body)
		}
	})
	if p.tw != nil {
		ph.twinQuery(q, v)
	}
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(string(b), "\n")
	return s
}

// checkRef reports whether body, after a JSON round trip through res,
// equals the query's reference answer.
func (ph *phase) checkRef(idx int, body []byte, res any) bool {
	if err := json.Unmarshal(body, res); err != nil {
		ph.fail("query %d: decode: %v", idx, err)
		return false
	}
	got, err := json.Marshal(res)
	if err != nil {
		ph.fail("query %d: %v", idx, err)
		return false
	}
	if string(got) != string(ph.p.refs[idx]) {
		ph.fail("query %d: answer differs from the reference (%d vs %d bytes)", idx, len(got), len(ph.p.refs[idx]))
		return false
	}
	return true
}
