package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sigmund/internal/catalog"
	"sigmund/internal/serving"
)

// httpEnv serves a servingEnv's Handler on a loopback port, inside this
// process, and holds the generator's connections to it.
type httpEnv struct {
	*servingEnv
	srv   *http.Server
	done  chan struct{}
	conns []*clientConn
}

func newHTTPEnv(tr *traffic) (*httpEnv, error) {
	se, err := newServingEnv(tr)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		se.close()
		return nil, err
	}
	e := &httpEnv{servingEnv: se, srv: &http.Server{Handler: se.svc.Handler()}, done: make(chan struct{})}
	go func() {
		defer close(e.done)
		e.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	for i := 0; i < callers; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			e.close()
			return nil, err
		}
		e.conns = append(e.conns, &clientConn{c: c, br: bufio.NewReaderSize(c, 16<<10)})
	}
	return e, nil
}

// dropFleets releases the map-backed fleet contents once published: the
// HTTP workload is read-only, and the benchmark's own pointer-heavy copies
// would lengthen every GC mark the server's requests wait on.
func (e *httpEnv) dropFleets() {
	e.tr.fleets = [variants]map[catalog.RetailerID]*serving.RetailerRecs{}
}

func (e *httpEnv) close() {
	for _, c := range e.conns {
		c.c.Close()
	}
	e.srv.Close()
	<-e.done
	e.servingEnv.close()
}

// clientConn is one keep-alive HTTP/1.1 connection driven by hand: the
// request bytes are precomputed, so the generator only writes them and
// reads the response.
type clientConn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func (c *clientConn) do(raw []byte) (int, []byte, error) {
	if _, err := c.c.Write(raw); err != nil {
		return 0, nil, err
	}
	return c.readResponse()
}

// readResponse reads one HTTP/1.1 response with a Content-Length body,
// which is what the handler writes for every /recommend answer. It
// allocates nothing once the body buffer has grown, so the generator adds
// little garbage to the heap it shares with the server.
func (c *clientConn) readResponse() (int, []byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length := -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		if len(line) > 16 && bytes.EqualFold(line[:15], []byte("Content-Length:")) {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(line[15:]))); err != nil {
				return 0, nil, fmt.Errorf("malformed Content-Length %q", line)
			}
		}
	}
	if length < 0 {
		return 0, nil, errors.New("response without Content-Length")
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	_, err = io.ReadFull(c.br, c.body)
	return status, c.body, err
}

// openResult is what one open-loop step measured.
type openResult struct {
	rate     float64
	lat      *hist // from each request's due time to its full response
	sent     int64
	failures []error
	lag      samples // generator lateness, ms
	behind   int     // requests already due when their sender got free
	// backlogMS is how far behind schedule the furthest sender finished.
	backlogMS float64
}

// openLoop offers rate requests per second for dur in codec c. Requests
// are due on a fixed schedule regardless of how the server keeps up;
// sender w of the callers connections owns every callers-th due time.
// offset picks where in the request stream the step starts.
func (e *httpEnv) openLoop(rate float64, dur time.Duration, offset int, c codec) openResult {
	res := openResult{rate: rate, lat: newHist()}
	total := int(rate * dur.Seconds())
	period := time.Duration(float64(time.Second) / rate)
	want := e.gen.Load()
	start := time.Now().Add(2 * time.Millisecond)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for w := range e.conns {
		wg.Add(1)
		go func(w int, conn *clientConn) {
			defer wg.Done()
			p, err := newPacer()
			if err != nil {
				mu.Lock()
				res.failures = append(res.failures, err)
				mu.Unlock()
				return
			}
			defer p.close()
			lat := newHist()
			var (
				fails  []error
				sent   int64
				behind time.Duration
			)
			for i := w; i < total; i += len(e.conns) {
				due := start.Add(time.Duration(i) * period)
				if _, err := p.waitUntil(due); err != nil {
					fails = append(fails, err)
					break
				}
				req := &e.tr.reqs[(offset+i)%streamLen]
				status, body, err := conn.do(req.raw[c])
				done := time.Now()
				lat.add(done.Sub(due))
				sent++
				if err == nil {
					err = e.tr.checkHTTP(req, c, status, body, want)
				}
				if err != nil {
					fails = append(fails, err)
					if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) {
						break
					}
				}
				behind = done.Sub(due)
			}
			mu.Lock()
			res.lat.merge(lat)
			res.sent += sent
			res.failures = append(res.failures, fails...)
			res.lag.merge(&p.lag)
			res.behind += p.behind
			if ms := durMS(behind); ms > res.backlogMS {
				res.backlogMS = ms
			}
			mu.Unlock()
		}(w, e.conns[w])
	}
	wg.Wait()
	return res
}

// closedLoopHTTP sends back to back in codec c on every connection for
// dur, from request offset of the stream on, and returns the round trips
// it timed; it also warms the server up. With t non-nil one round trip in
// traceEvery is also recorded as a span.
func (e *httpEnv) closedLoopHTTP(dur time.Duration, offset int, c codec, t *tracer) (*hist, []error) {
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		lat   = newHist()
		fails []error
	)
	want := e.gen.Load()
	deadline := time.Now().Add(dur)
	for w := range e.conns {
		wg.Add(1)
		go func(w int, conn *clientConn) {
			defer wg.Done()
			local := newHist()
			var errs []error
			for i, t0 := w, time.Now(); t0.Before(deadline); i += len(e.conns) {
				req := &e.tr.reqs[(offset+i)%streamLen]
				var id int64
				traced := t != nil && (i/len(e.conns))%traceEvery == 0
				if traced {
					t0, id = t.begin()
				}
				status, body, err := conn.do(req.raw[c])
				t1 := time.Now()
				if traced {
					t.end(id, 0, id, "http.roundtrip", t0)
				}
				local.add(t1.Sub(t0))
				t0 = t1
				if err == nil {
					err = e.tr.checkHTTP(req, c, status, body, want)
				}
				if err != nil {
					errs = append(errs, err)
				}
			}
			mu.Lock()
			lat.merge(local)
			fails = append(fails, errs...)
			mu.Unlock()
		}(w, e.conns[w])
	}
	wg.Wait()
	return lat, fails
}

// The ladder of offered rates and the latency limit that grades them.
var (
	ladderRates = []float64{5000, 10000, 15000, 20000, 25000, 30000, 35000, 40000, 45000, 50000}
	// nominalRate is the open-loop rate the due-time latencies are
	// reported at, about a third of capacity. Lower rates read worse on a
	// VM: between requests both vCPUs go idle and waking one costs 1-5 ms.
	nominalRate = 10000.0
	// p99LimitMS is the latency limit: a rate passes when its p99 from
	// due time stays within it and the senders end no further behind.
	p99LimitMS = 2.0
)

// runHTTP: GET /recommend over loopback, in four phases of the run: open
// loop at the nominal rate, closed loop on every connection in each codec,
// and the rate ladder. The gated end-to-end metrics come from the JSON
// closed loop: JSON is the handler's default codec, and the closed loop is
// the one phase that repeats between runs on a shared VM. The binary
// codec's closed loop and the open-loop figures are printed beside them.
func runHTTP(r *run) error {
	tr := genTraffic(r.seed)
	env, setupS, err := timedSetups(func() (*httpEnv, error) { return newHTTPEnv(tr) }, (*httpEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	r.e2e("setup_s", setupS, "setup_s", "median set-up: service, store, first publish, listener; "+setupNote)
	env.dropFleets()
	for _, c := range []codec{codecJSON, codecBinary} {
		warm, fails := env.closedLoopHTTP(250*time.Millisecond, 0, c, nil)
		r.accountClosed(int64(warm.n), fails)
	}

	mw := startMemWatch()
	sent := 0 // requests in the measured phase; also the stream offset
	nom := env.nominal(r, r.seconds*15/100, sent)
	sent += int(nom.n)

	// The closed loop runs in one-second windows that alternate the
	// codecs, so both see the same host; each figure is the median over
	// its codec's windows, which a few-second stall of the shared host
	// does not move.
	var closed [2]closedStats
	for w := 0; time.Duration(w)*time.Second < r.seconds*55/100; w++ {
		c := codec(w % 2)
		cpu0, wall0 := cpuSeconds(), time.Now()
		lat, fails := env.closedLoopHTTP(time.Second, sent, c, nil)
		cpu, wall := cpuSeconds()-cpu0, time.Since(wall0)
		r.accountClosed(int64(lat.n), fails)
		closed[c].add(lat, cpu, wall)
		sent += int(lat.n)
	}

	maxRate, stepDur := env.ladder(r, r.seconds*3/10, &sent)
	mem := mw.finish()

	js, bin := &closed[codecJSON], &closed[codecBinary]
	r.e2e("latency_p50_ms", median(js.p50), "http_rtt_p50_ms", fmt.Sprintf("JSON, closed loop on %d connections, median of %d 1-s windows, n=%d", callers, len(js.p50), js.n))
	r.e2e("latency_tail_ms", median(js.p95), "http_rtt_p95_ms", fmt.Sprintf("JSON, closed loop, median of window p95s; pooled p99 %.4f ms swings ±40%% between runs", js.all.q(0.99)))
	r.e2e("work_per_cpu_s", median(js.perCPU), "http_req_per_cpu_s", fmt.Sprintf("JSON, closed loop, median of windows; server and generator share the CPU, %.2f cores busy", js.cpu/js.wall.Seconds()))
	r.reportMem(mem, float64(sent)/1e4, "10k requests")
	r.say("http_capacity_qps", float64(js.n)/js.wall.Seconds(), "1/s", "JSON, closed loop, wall clock")
	r.say("http_bin_rtt_p50_ms", median(bin.p50), "ms", fmt.Sprintf("binary codec, closed loop, median of %d windows, n=%d", len(bin.p50), bin.n))
	r.say("http_bin_rtt_p95_ms", median(bin.p95), "ms", "binary codec, closed loop")
	r.say("http_bin_req_per_cpu_s", median(bin.perCPU), "1/cpu-s", "binary codec, closed loop")
	r.say("recommend_p50_ms", median(nom.p50), "ms", fmt.Sprintf("JSON, open loop from due time at %.0f/s, median of %d 1-s windows, n=%d", nominalRate, len(nom.p50), nom.n))
	r.say("recommend_p99_ms", median(nom.p99), "ms", fmt.Sprintf("JSON, open loop from due time at %.0f/s, median of %d 1-s windows", nominalRate, len(nom.p99)))
	r.say("http_max_qps", maxRate, "1/s", fmt.Sprintf("JSON, highest ladder rate with p99 <= %.1f ms and no backlog (%v steps, 2 tries)", p99LimitMS, stepDur))
	r.say("http.gen_lag_ms_p99", median(nom.lag), "ms", fmt.Sprintf("generator lateness at %.0f/s, median of window p99s, n=%d; %d sends already behind", nominalRate, nom.lagN, nom.behind))
	r.reportFails("requests")
	return nil
}

// closedStats is one codec's closed-loop windows.
type closedStats struct {
	p50, p95, perCPU []float64
	all              *hist
	n                uint64
	cpu              float64
	wall             time.Duration
}

func (s *closedStats) add(lat *hist, cpu float64, wall time.Duration) {
	if s.all == nil {
		s.all = newHist()
	}
	s.p50 = append(s.p50, lat.q(0.5))
	s.p95 = append(s.p95, lat.q(0.95))
	s.perCPU = append(s.perCPU, float64(lat.n)/cpu)
	s.all.merge(lat)
	s.n += lat.n
	s.cpu += cpu
	s.wall += wall
}

// nominalStats is the open loop at the nominal rate, one entry per
// one-second window.
type nominalStats struct {
	p50, p99, lag []float64
	n, lagN       int64
	behind        int
}

// nominal offers nominalRate for dur in one-second windows. Each window's
// figures are kept apart: a multi-ms stall of the host lands in some
// windows and not others, and one such window moved a pooled p99
// several-fold between runs.
func (e *httpEnv) nominal(r *run, dur time.Duration, offset int) nominalStats {
	var st nominalStats
	for w := time.Duration(0); w < dur; w += time.Second {
		res := e.openLoop(nominalRate, time.Second, offset+int(st.n), codecJSON)
		r.accountOpen(res)
		st.p50 = append(st.p50, res.lat.q(0.5))
		st.p99 = append(st.p99, res.lat.q(0.99))
		st.lag = append(st.lag, res.lag.q(0.99))
		st.n += res.sent
		st.lagN += int64(res.lag.n())
		st.behind += res.behind
	}
	return st
}

// ladder climbs ladderRates within dur and returns the highest rate that
// met the limit. A step gets two tries: one GC cycle or host stall inside
// a short step can push its p99 past the limit at any rate, while a rate
// past capacity fails both.
func (e *httpEnv) ladder(r *run, dur time.Duration, sent *int) (float64, time.Duration) {
	stepDur := dur / time.Duration(2*len(ladderRates))
	var maxRate float64
steps:
	for _, rate := range ladderRates {
		for try := 0; try < 2; try++ {
			res := e.openLoop(rate, stepDur, *sent, codecJSON)
			*sent += int(res.sent)
			r.accountOpen(res)
			p99 := res.lat.q(0.99)
			ok := p99 <= p99LimitMS && res.backlogMS <= p99LimitMS && len(res.failures) == 0
			fmt.Printf("  ladder %6.0f/s: p50 %.3f ms p99 %.3f ms backlog %.3f ms lag p99 %.3f ms n=%d pass=%v\n",
				rate, res.lat.q(0.5), p99, res.backlogMS, res.lag.q(0.99), res.sent, ok)
			if ok {
				maxRate = rate
				continue steps
			}
		}
		break
	}
	return maxRate, stepDur
}

func (r *run) accountClosed(n int64, fails []error) {
	r.attempted.Add(n)
	for _, err := range fails {
		r.fail(err)
	}
}

func (r *run) accountOpen(res openResult) {
	r.attempted.Add(res.sent)
	for _, err := range res.failures {
		r.fail(err)
	}
}
