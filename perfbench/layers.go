package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"sigmund"
	"sigmund/internal/catalog"
	"sigmund/internal/cooccur"
	"sigmund/internal/core/bpr"
	"sigmund/internal/core/candidates"
	"sigmund/internal/core/eval"
	"sigmund/internal/core/hybrid"
	"sigmund/internal/core/inference"
	"sigmund/internal/core/modelselect"
	"sigmund/internal/dfs"
	"sigmund/internal/guard"
	"sigmund/internal/interactions"
	"sigmund/internal/mapreduce"
	"sigmund/internal/obs"
	"sigmund/internal/pipeline"
	"sigmund/internal/sched"
	"sigmund/internal/sched/estimate"
	"sigmund/internal/segment"
	"sigmund/internal/serving"
	"sigmund/internal/store"
)

// What each layer's metrics should move, printed beside them.
const (
	movesHTTP     = "http_rtt_p50_ms and http_req_per_cpu_s on recommend-http; nothing on daily-batch"
	movesStore    = "embedded_calls_per_cpu_s and recommend_p99_ms on recommend-embedded"
	movesBlend    = "embedded_calls_per_cpu_s on recommend-embedded"
	movesPublish  = "publish_ms on recommend-embedded; day_*_ms only slightly"
	movesPipeline = "day_full_ms and day_incr_ms on daily-batch; staleness on rolling-fleet"
	movesSched    = "drain_s and staleness on rolling-fleet; nothing on daily-batch"
	movesRuntime  = "recommend_p99_ms on both recommend workloads"
)

// tracedWorkload runs a workload's traced pass: the same pass untraced,
// traced, and untraced again, so the tracing overhead shows against the
// mean of the untraced passes around it (the first pass after set-up runs
// cold and read 10-18% slower than the second), then every layer probe.
// The end-to-end metrics never come from here.
func tracedWorkload(r *run, pass func(t *tracer) (float64, error)) (*layerInputs, error) {
	in := &layerInputs{}
	before, err := pass(nil)
	if err != nil {
		return nil, err
	}
	mw := startMemWatch()
	traced, err := pass(r.spans)
	if err != nil {
		return nil, err
	}
	in.mem = mw.finish()
	after, err := pass(nil)
	if err != nil {
		return nil, err
	}
	untraced := (before + after) / 2
	r.layer("trace.overhead_share", 1-traced/untraced, "ratio", "nothing",
		fmt.Sprintf("traced pass %.4g/s against untraced %.4g/s and %.4g/s", traced, before, after))
	return in, nil
}

// layerInputs carries what a workload's own traced pass already measured
// into the layer suite, so the suite does not redo it.
type layerInputs struct {
	mem   memStats
	days  []dayResult          // a traced daily-batch week
	dfsW  int64                // its storage traffic written, bytes
	dfsR  int64                // and read
	drain *sigmund.SchedReport // a traced rolling-fleet drain
	wall  time.Duration        // that drain's wall
}

// layerSuite times calls into every layer's public functions and records
// the per-layer metrics. Every workload's traced run prints all of them;
// inputs come from the run's seed.
func layerSuite(r *run, in *layerInputs) error {
	r.layer("runtime.gc_pause_ms", in.mem.gcPauseMS, "ms", movesRuntime, fmt.Sprintf("mean of %d GCs in the traced pass", in.mem.gcs))
	r.layer("runtime.gc_cpu_fraction", in.mem.gcCPUShare, "ratio", movesRuntime, "")

	hEnv, err := newHTTPEnv(genTraffic(r.seed))
	if err != nil {
		return err
	}
	defer hEnv.close()
	if err := servingLayers(r, hEnv); err != nil {
		return err
	}
	storeLayers(r, hEnv.servingEnv)
	if err := publishLayers(r, hEnv.servingEnv); err != nil {
		return err
	}

	bEnv, err := newBatchEnv(r.seed)
	if err != nil {
		return err
	}
	if in.days == nil {
		days, svc, err := bEnv.week(r, r.spans)
		if err != nil {
			return err
		}
		in.dfsW, in.dfsR = svc.StorageStats()
		svc.Close()
		in.days = days
	}
	pipelineLayers(r, in)
	if err := coreLayers(r, bEnv); err != nil {
		return err
	}

	rEnv, err := newRollingEnv(r.seed)
	if err != nil {
		return err
	}
	if in.drain == nil {
		rep, wall, err := rEnv.drain(r, r.spans)
		if err != nil {
			return err
		}
		in.drain, in.wall = &rep, wall
	}
	if err := schedLayers(r, rEnv, in); err != nil {
		return err
	}
	r.layer("trace.spans", float64(r.spans.len()), "count", "nothing", "spans kept in memory by this run")
	printSelfTimes(r.spans)
	return nil
}

// printSelfTimes prints the span names with the most self time: each
// span's duration minus what its child spans cover.
func printSelfTimes(t *tracer) {
	self := t.selfTime()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Println("  self time by span:")
	for _, name := range names {
		fmt.Printf("    %-28s %10.1f ms\n", name, durMS(self[name]))
	}
}

// perCall times fn over n calls and returns the mean in nanoseconds.
func perCall(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// discardWriter is a ResponseWriter that keeps only the status and body,
// so timing the handler in process does not time a recorder.
type discardWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *discardWriter) Header() http.Header  { return w.h }
func (w *discardWriter) WriteHeader(code int) { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) {
	w.body = append(w.body, b...)
	return len(b), nil
}
func (w *discardWriter) reset() {
	clear(w.h)
	w.code = 200
	w.body = w.body[:0]
}

func servingLayers(r *run, e *httpEnv) error {
	const n = 20000
	reqs := make([]*http.Request, n)
	for i := range reqs {
		hr, err := http.NewRequest("GET", e.tr.reqs[i].url, nil)
		if err != nil {
			return err
		}
		reqs[i] = hr
	}
	h := e.svc.Handler()
	w := &discardWriter{h: http.Header{}}
	handler := newHist()
	want := e.gen.Load()
	for i, hr := range reqs {
		w.reset()
		t0, id := r.spans.begin()
		h.ServeHTTP(w, hr)
		handler.add(r.spans.end(id, 0, id, "serving.handler", t0))
		r.check(e.tr.checkHTTP(&e.tr.reqs[i], codecJSON, w.code, w.body, want))
	}
	rtt := newHist()
	for i := 0; i < n; i++ {
		t0, id := r.spans.begin()
		status, body, err := e.conns[0].do(e.tr.reqs[i].raw[codecJSON])
		rtt.add(r.spans.end(id, 0, id, "http.roundtrip", t0))
		if err == nil {
			err = e.tr.checkHTTP(&e.tr.reqs[i], codecJSON, status, body, want)
		}
		r.check(err)
	}
	r.layer("serving.handler_us_p50", handler.q(0.5)*1e3, "us", movesHTTP, "JSON requests")
	r.layer("serving.handler_us_p99", handler.q(0.99)*1e3, "us", movesHTTP, "")
	r.layer("http.net_share", 1-handler.q(0.5)/rtt.q(0.5), "ratio",
		movesHTTP, fmt.Sprintf("round trip p50 %.1f us, one connection", rtt.q(0.5)*1e3))

	open := e.openLoop(nominalRate, time.Second, n, codecJSON)
	r.accountOpen(open)
	r.layer("http.gen_lag_ms_p99", open.lag.q(0.99), "ms", "nothing", fmt.Sprintf("generator lateness at %.0f/s, n=%d, %d sends behind", nominalRate, open.lag.n(), open.behind))

	var (
		recs [][]serving.Recommendation
		ctxs []string
	)
	for i := range e.tr.reqs[:n] {
		req := &e.tr.reqs[i]
		if req.ref >= 0 {
			recs = append(recs, e.tr.refs[e.gen.Load()%variants][req.ref])
		}
		q := req.url[strings.Index(req.url, "&context=")+len("&context="):]
		ctxs = append(ctxs, q[:strings.Index(q, "&")])
	}
	var buf []byte
	r.layer("serving.encode_binary_ns", perCall(200000, func(i int) {
		buf = serving.AppendRecsResponse(buf[:0], "shop-000", 1, recs[i%len(recs)])
	}), "ns", "http_bin_rtt_p50_ms and http_bin_req_per_cpu_s on recommend-http", "")
	enc := json.NewEncoder(io.Discard)
	r.layer("serving.encode_json_ns", perCall(100000, func(i int) {
		enc.Encode(struct {
			Retailer catalog.RetailerID       `json:"retailer"`
			Version  int64                    `json:"version"`
			Recs     []serving.Recommendation `json:"recommendations"`
		}{"shop-000", 1, recs[i%len(recs)]})
	}), "ns", movesHTTP, "")
	r.layer("serving.parse_context_ns", perCall(200000, func(i int) {
		serving.ParseContext(ctxs[i%len(ctxs)])
	}), "ns", movesHTTP, "")
	return nil
}

// storeLayers drives Store.Serve directly, two callers over the request
// stream with full-fleet publishes beside them as in the embedded
// workload, and the store's own blend, ring and segment paths.
func storeLayers(r *run, e *servingEnv) {
	st := e.svc.Store()
	reg := st.Observer().Reg()
	hits0 := reg.Counter("sigmund_store_cache_hits_total", "").Value()
	req0, _, _ := st.Stats()
	lr := e.closedLoop(2500*time.Millisecond, true, func(req *request) ([]serving.Recommendation, int64) {
		recs, _, gen, err := st.Serve(req.tenant, req.ctx, servK)
		if err != nil {
			return nil, gen
		}
		return recs, gen
	}, r.spans, "store.serve")
	r.account(lr)
	serve := lr.lat
	hits := reg.Counter("sigmund_store_cache_hits_total", "").Value() - hits0
	reqs, _, _ := st.Stats()
	reqs -= req0
	hitRatio := float64(hits) / float64(reqs)

	// The blend as replicas run it: a single-node server over flat
	// segments decoded from what the store writes.
	flatSnap := &serving.Snapshot{Version: 1, Retailers: map[catalog.RetailerID]*serving.RetailerRecs{}}
	var flats []*segment.Flat
	for _, id := range e.tr.tenants {
		f, err := segment.Parse(store.EncodeSegment(e.tr.fleets[1][id]))
		if err != nil {
			r.check(err)
			return
		}
		flats = append(flats, f)
		flatSnap.Retailers[id] = &serving.RetailerRecs{Flat: f}
	}
	srv := serving.NewServer()
	srv.Publish(flatSnap)
	blend := newHist()
	for i := 0; i < 50000; i++ {
		req := &e.tr.reqs[i%streamLen]
		t0, id := r.spans.begin()
		recs, _ := srv.RecommendWithSource(req.tenant, req.ctx, servK)
		blend.add(r.spans.end(id, 0, id, "serving.blend", t0))
		if req.ref >= 0 {
			r.check(e.tr.checkAnswer(req, recs, 1, 1))
		}
	}
	var meanServe, meanBlend float64
	meanServe = histMean(serve)
	meanBlend = histMean(blend)

	r.layer("store.serve_us_p50", serve.q(0.5)*1e3, "us", movesStore, "")
	r.layer("store.serve_us_p99", serve.q(0.99)*1e3, "us", movesStore, "")
	r.layer("store.router_share", 1-(1-hitRatio)*meanBlend/meanServe, "ratio",
		movesStore, "serve minus the blend the cache misses pay, over serve; means")
	r.layer("store.cache_hit_ratio", hitRatio, "ratio", movesStore, fmt.Sprintf("%d hits of %d requests", hits, reqs))
	r.layer("store.cache_requests", float64(reqs), "count", "nothing", "the cache hit ratio's base")
	r.layer("store.ring_lookup_ns", perCall(500000, func(i int) { st.ShardFor(e.tr.reqs[i%streamLen].tenant) }), "ns", movesStore, "")
	shed, adm, repFail := st.Rejects()
	cache, stale := st.BrownoutServes()
	r.layer("store.hedges", float64(st.Hedges()), "count", movesStore, "")
	r.layer("store.failovers", float64(st.Failovers()), "count", movesStore, "")
	r.layer("store.sheds", float64(shed), "count", movesStore, "")
	r.layer("store.rejects", float64(adm+repFail), "count", movesStore, "")
	r.layer("store.brownout_serves", float64(cache+stale), "count", movesStore, "")
	r.layer("store.serves_gen_n", float64(lr.genN), "count", movesStore, fmt.Sprintf("%d publishes beside the reads", lr.publish.n()))
	r.layer("store.serves_gen_n1", float64(lr.genN1), "count", movesStore, "")
	r.layer("store.mislabeled_serves", float64(lr.mislabeled), "count", "nothing",
		"sampled answers whose content is not the generation Serve named; Replica.get reads the version after serving, so a commit in between mislabels the answer and its cache entry")

	r.layer("serving.blend_us", blend.q(0.5)*1e3, "us", movesBlend, "p50, flat-backed recs")
	var found int
	r.layer("segment.lookup_ns", perCall(500000, func(i int) {
		if _, ok := flats[i%len(flats)].Lookup(catalog.ItemID(i % servItems)); ok {
			found++
		}
	}), "ns", movesBlend, fmt.Sprintf("%d of 500000 items found", found))
}

// histMean is the mean of a histogram's samples in milliseconds, read
// from bucket midpoints.
func histMean(h *hist) float64 {
	if h.n == 0 {
		return 0
	}
	var sum float64
	for b, c := range h.counts {
		if c > 0 {
			sum += float64(c) * bucketMS(b)
		}
	}
	return sum / float64(h.n)
}

// publishLayers times the three steps a full-fleet publish is made of, on
// the fleet the recommend workloads publish.
func publishLayers(r *run, e *servingEnv) error {
	fleet := e.tr.fleets[1]
	ids := make([]catalog.RetailerID, 0, len(fleet))
	for id := range fleet {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	const reps = 5
	var enc, parse, wv samples
	fs := dfs.New()
	for k := 0; k < reps; k++ {
		segs := make([][]byte, len(ids))
		r.spans.do("segment.encode_fleet", 0, int64(k), func(int64) {
			start := time.Now()
			for i, id := range ids {
				segs[i] = store.EncodeSegment(fleet[id])
			}
			enc.addDur(time.Since(start))
		})
		var perr error
		r.spans.do("segment.parse_fleet", 0, int64(k), func(int64) {
			start := time.Now()
			for _, b := range segs {
				if _, err := segment.Parse(b); err != nil {
					perr = err
				}
			}
			parse.addDur(time.Since(start))
		})
		if perr != nil {
			return perr
		}
		var werr error
		r.spans.do("dfs.write_verify_fleet", 0, int64(k), func(int64) {
			start := time.Now()
			for i, b := range segs {
				path := "bench/gen-" + strconv.Itoa(k) + "/" + string(ids[i])
				if err := fs.Write(path, b); err != nil {
					werr = err
					return
				}
				got, err := fs.Read(path)
				if err != nil || len(got) != len(b) {
					werr = fmt.Errorf("read back %s: %d bytes, %v", path, len(got), err)
					return
				}
			}
			wv.addDur(time.Since(start))
		})
		if werr != nil {
			return werr
		}
	}
	r.layer("segment.encode_ms", enc.q(0.5), "ms", movesPublish, fmt.Sprintf("%d tenants, median of %d", len(ids), reps))
	r.layer("segment.parse_ms", parse.q(0.5), "ms", movesPublish, "")
	r.layer("dfs.write_verify_ms", wv.q(0.5), "ms", movesPublish, "")
	var pub samples
	for k := 0; k < reps; k++ {
		d, err := e.publish()
		r.check(err)
		pub.addDur(d)
	}
	r.layer("publish.wall_ms", pub.q(0.5), "ms", movesPublish, "Store.PublishGeneration, idle store")
	return nil
}

// pipelineLayers reads the phase walls RunDay already records, per day
// kind, and the storage and MapReduce counters of the traced week.
func pipelineLayers(r *run, in *layerInputs) {
	for _, kind := range []string{"full", "incr"} {
		var stage, train, sel, infer, pub samples
		for _, d := range in.days {
			if d.full != (kind == "full") {
				continue
			}
			stage.addDur(d.report.StagingWall)
			train.addDur(d.report.TrainWall)
			sel.addDur(d.report.SelectWall)
			infer.addDur(d.report.InferWall)
			pub.addDur(d.report.PublishWall)
		}
		p := "pipeline." + kind + "."
		moves := "day_" + kind + "_ms on daily-batch"
		r.layer(p+"stage_s", stage.q(0.5)/1e3, "s", moves, "")
		r.layer(p+"train_s", train.q(0.5)/1e3, "s", moves, "")
		r.layer(p+"select_s", sel.q(0.5)/1e3, "s", moves, "")
		r.layer(p+"infer_s", infer.q(0.5)/1e3, "s", moves, "")
		r.layer(p+"publish_s", pub.q(0.5)/1e3, "s", moves, "")
	}
	var c mapreduce.Counters
	for _, d := range in.days {
		c.Add(d.report.TrainCounters)
		c.Add(d.report.InferCounters)
	}
	attempts := c.MapAttempts + c.ReduceAttempts
	wasted := c.MapFailures + c.ReduceFailures + c.Preemptions + c.SpeculativeLaunches - c.SpeculativeWins
	r.layer("dfs.bytes_written_mb", float64(in.dfsW)/(1<<20), "MB", movesPipeline, "one week")
	r.layer("dfs.bytes_read_mb", float64(in.dfsR)/(1<<20), "MB", movesPipeline, "one week")
	r.layer("mapreduce.attempts_per_task", float64(attempts)/float64(attempts-wasted), "ratio", movesPipeline, fmt.Sprintf("%d attempts", attempts))
}

// pipelineOptions mirrors the pipeline options sigmund.NewService builds
// for cfg (service.go), for the probes that call the per-tenant stage API
// directly. The benchmark's configs run no chaos, so the fault and
// substrate options stay off as they do in the service.
func pipelineOptions(cfg sigmund.Config) pipeline.Options {
	grid := modelselect.DefaultGrid()
	if cfg.GridSize == "small" {
		grid = modelselect.SmallGrid()
	}
	opts := pipeline.Options{
		Grid:                 grid,
		BaseHyper:            bpr.DefaultHyperparams(),
		FullEpochs:           cfg.FullEpochs,
		IncrementalEpochs:    cfg.IncrementalEpochs,
		TopKIncremental:      cfg.TopKIncremental,
		FullRestartEvery:     cfg.FullRestartEvery,
		TrainWorkers:         cfg.TrainWorkers,
		TrainThreads:         cfg.TrainThreads,
		Cells:                cfg.Cells,
		CheckpointEvery:      cfg.CheckpointEvery,
		InferTopK:            cfg.InferTopK,
		KeepDays:             cfg.KeepDays,
		LateFunnelFacets:     cfg.LateFunnelFacets,
		QuarantineAfter:      cfg.QuarantineAfter,
		QuarantineProbeEvery: cfg.QuarantineProbeEvery,
		Journal:              cfg.Journal,
		Seed:                 cfg.Seed,
		Obs:                  obs.NewObserver(),
	}
	if cfg.Guard {
		opts.Guard = guard.Options{Enabled: true, MinMAPRatio: cfg.GuardMinMAPRatio}
		if cfg.Shards > 0 {
			opts.Guard.CanaryFraction = cfg.CanaryFraction
			if opts.Guard.CanaryFraction == 0 {
				opts.Guard.CanaryFraction = 0.05
			}
		}
	}
	return opts
}

// storeOptions mirrors the store options sigmund.NewService builds for a
// sharded cfg.
func storeOptions(cfg sigmund.Config, o *obs.Observer) store.Options {
	return store.Options{
		Shards:        cfg.Shards,
		Replicas:      cfg.Replicas,
		HedgeAfter:    cfg.HedgeAfter,
		AdmitQPS:      cfg.AdmitQPS,
		AdmitBurst:    cfg.AdmitBurst,
		Autoscale:     cfg.Autoscale,
		MaxReplicas:   cfg.MaxReplicas,
		ScrubInterval: cfg.ScrubInterval,
		Obs:           o,
		Seed:          cfg.Seed,
	}
}

// coreLayers calls the model layers directly on the fleet's largest tenant
// with the config its own full sweep selects.
func coreLayers(r *run, e *batchEnv) error {
	big := e.fleet[0] // sizes are sorted, largest first
	log := big.Log.Window(0, batchHistory*sigmund.TicksPerDay)
	p := pipeline.New(dfs.New(), serving.NewServer(), pipelineOptions(batchConfig()))
	if err := p.AddRetailer(big.Catalog, log); err != nil {
		return err
	}
	ctx := context.Background()
	id := big.Spec.ID
	stage, err := p.StageTenant(ctx, 0, id)
	if err != nil {
		return err
	}
	tr, err := p.TrainTenant(ctx, 0, id, stage.Configs)
	if err != nil || !tr.BestOK {
		return fmt.Errorf("training %s for the core probes: ok=%v %v", id, tr.BestOK, err)
	}
	cat := big.Catalog
	split := interactions.HoldoutSplit(log, interactions.DefaultContextLength)
	ds := bpr.NewDataset(split.Train, cat)
	cooc := cooccur.FromLog(split.Train, cat.NumItems(), cooccur.DefaultWindow)
	m, err := bpr.NewModel(tr.Best.Hyper, cat)
	if err != nil {
		return err
	}
	const epochs = 3
	var trainErr error
	epochWall := r.spans.do("bpr.train", 0, 0, func(int64) {
		_, trainErr = bpr.Train(ctx, m, ds, bpr.TrainOptions{Epochs: epochs, Threads: 1, Cooc: cooc})
	})
	if trainErr != nil {
		return trainErr
	}
	r.layer("bpr.epoch_ms", durMS(epochWall)/epochs, "ms", "day_full_ms on daily-batch", fmt.Sprintf("%s, %d items, %d factors", id, cat.NumItems(), tr.Best.Hyper.Factors))

	fullCooc := cooccur.FromLog(log, cat.NumItems(), cooccur.DefaultWindow)
	stats := interactions.ComputeItemStats(log, cat.NumItems())
	sel := candidates.NewSelector(cat, fullCooc)
	sel.Repurchase = candidates.ComputeRepurchase(log, cat, 0.3)
	rec := hybrid.NewRecommender(fullCooc, m, sel, stats)
	rec.TopK = batchConfig().InferTopK
	var items []inference.ItemRecs
	var inferErr error
	inferWall := r.spans.do("inference.materialize", 0, 0, func(int64) {
		items, inferErr = inference.Materialize(ctx, rec, cat, inference.Options{TopK: rec.TopK, Workers: 1, SkipOutOfStock: true})
	})
	if inferErr != nil {
		return inferErr
	}
	r.check(func() error {
		if len(items) == 0 {
			return fmt.Errorf("%s: materialized no items", id)
		}
		return nil
	}())
	r.layer("inference.materialize_ms", durMS(inferWall), "ms", "day_incr_ms on daily-batch", "one worker")

	var res eval.Result
	mapWall := r.spans.do("eval.map", 0, 0, func(int64) {
		res = eval.Evaluate(m, split.Holdout, cat.NumItems(), eval.DefaultOptions())
	})
	r.layer("eval.map_ms", durMS(mapWall), "ms", movesPipeline, fmt.Sprintf("MAP@10 %.4f", res.MAP))

	inf, err := p.InferTenant(ctx, 0, id, tr.Best)
	if err != nil {
		return err
	}
	rr := recsOf(inf)
	var gerr error
	guardNS := perCall(20, func(int) {
		_, gerr = p.EvaluateGuardTenant(0, id, tr.Best.MAP(), rr)
	})
	if gerr != nil {
		return gerr
	}
	r.layer("guard.evaluate_us", guardNS/1e3, "us", movesPipeline, "")
	return nil
}

// recsOf builds the map-backed serving form of one tenant's materialized
// recommendations, as the scheduler's executor does before guard and
// publish.
func recsOf(inf pipeline.InferResult) *serving.RetailerRecs {
	rr := &serving.RetailerRecs{Recs: make(map[catalog.ItemID]inference.ItemRecs, len(inf.Items)), TopSellers: inf.Sellers}
	for _, ir := range inf.Items {
		rr.Recs[ir.Item] = ir
	}
	return rr
}

// noopExecutor completes every job at once, so a scheduler run over it is
// the control plane alone.
type noopExecutor struct{}

var noopResult = sched.JobResult{
	Wall:    time.Millisecond,
	Configs: []modelselect.ConfigRecord{{}},
	BestOK:  true, BestMAP: 0.5, ConfigsOK: 1,
	ItemsServed: 1,
	Verdict:     "pass",
}

func (noopExecutor) Execute(context.Context, *sched.Job) (sched.JobResult, error) {
	return noopResult, nil
}
func (noopExecutor) Committed(*sched.Job, sched.JobResult) {}

func schedLayers(r *run, e *rollingEnv, in *layerInputs) error {
	ids := make([]catalog.RetailerID, len(e.fleet))
	tiers := map[catalog.RetailerID]sched.Tier{}
	for i, ft := range e.fleet {
		ids[i] = ft.Spec.ID
		tiers[ft.Spec.ID] = sched.Tier(ft.Tier)
	}
	fs := dfs.New()
	s := sched.New(nil, sched.Options{
		Workers: 2, Tiers: tiers, MaxCycles: rollingCycles, Tenants: ids,
		Executor: noopExecutor{}, FS: fs,
		VirtualCost: func(*sched.Job) time.Duration { return 10 * time.Minute },
	})
	var (
		rep sched.Report
		err error
	)
	wall := r.spans.do("sched.run_noop", 0, 0, func(int64) { rep, err = s.Run(context.Background()) })
	if err != nil {
		return err
	}
	_, records, err := dfs.OpenJournal(fs, sched.QueuePath)
	if err != nil {
		return err
	}
	r.layer("sched.dispatch_us_per_job", durMS(wall)*1e3/float64(rep.JobsRun), "us", movesSched, fmt.Sprintf("%d jobs, no-op executor", rep.JobsRun))

	payload := records[len(records)/2]
	j, _, err := dfs.OpenJournal(dfs.New(), "bench/queue")
	if err != nil {
		return err
	}
	appendLat := newHist()
	for range records {
		t0 := time.Now()
		_, err := j.Append(payload)
		appendLat.add(time.Since(t0))
		if err != nil {
			return err
		}
	}
	r.layer("sched.queue_append_us_p50", appendLat.q(0.5)*1e3, "us", movesSched, fmt.Sprintf("%d appends of %d bytes", len(records), len(payload)))
	r.layer("sched.queue_append_us_p99", appendLat.q(0.99)*1e3, "us", movesSched, "")

	est := estimate.New(estimate.Options{})
	kinds := []string{"stage", "train", "infer", "guard", "publish"}
	for i, id := range ids {
		for k, kind := range kinds {
			est.Observe(id, kind, time.Duration(i+k+1)*time.Millisecond)
		}
	}
	r.layer("estimate.predict_ns", perCall(200000, func(i int) {
		est.Predict(ids[i%len(ids)], kinds[i%len(kinds)])
	}), "ns", movesSched, "")

	exec, err := stageAPIWall(r, e)
	if err != nil {
		return err
	}
	drain := in.wall
	r.layer("sched.overhead_share", 1-exec.Seconds()/drain.Seconds(), "ratio",
		movesSched, fmt.Sprintf("drain %.2f s, stage API for the same jobs %.2f s", drain.Seconds(), exec.Seconds()))
	d := in.drain
	r.layer("sched.jobs_run", float64(d.JobsRun), "count", movesSched, "")
	r.layer("sched.jobs_failed", float64(d.JobsFailed), "count", movesSched, "")
	r.layer("sched.records", float64(len(records)), "count", movesSched, "queue-log records of the no-op run")
	r.layer("sched.publishes", float64(d.Publishes), "count", movesSched, "")
	r.layer("sched.vetoes", float64(d.Vetoed), "count", movesSched, "")
	return nil
}

// stageAPIWall runs every tenant's cycles through the per-tenant stage API
// outside any scheduler, on a pipeline and store configured as the
// rolling-fleet service configures its own, and returns the summed wall:
// the drain's job-execution time. Each cycle does what the scheduler's
// executor does: stage, train, infer, guard with the baseline folded on
// the verdict, and a one-tenant rolling publish unless the guard vetoed.
func stageAPIWall(r *run, e *rollingEnv) (time.Duration, error) {
	cfg := rollingConfig()
	opts := pipelineOptions(cfg)
	fs := dfs.New()
	st := store.New(fs, storeOptions(cfg, opts.Obs))
	defer st.Close()
	p := pipeline.New(fs, st, opts)
	for _, ft := range e.fleet {
		if err := p.AddRetailer(ft.Catalog, ft.Log); err != nil {
			return 0, err
		}
	}
	ctx := context.Background()
	var total time.Duration
	var gen int64
	for cycle := 0; cycle < rollingCycles; cycle++ {
		for i, ft := range e.fleet {
			id := ft.Spec.ID
			var err error
			req := int64(cycle*len(e.fleet) + i)
			total += r.spans.do("stage_api.cycle", 0, req, func(parent int64) {
				step := func(name string, fn func() error) bool {
					r.spans.do(name, parent, req, func(int64) { err = fn() })
					return err == nil
				}
				var (
					stage pipeline.StageResult
					tr    pipeline.TrainResult
					inf   pipeline.InferResult
					gr    pipeline.GuardResult
				)
				_ = step("pipeline.stage_tenant", func() (err error) { stage, err = p.StageTenant(ctx, cycle, id); return }) &&
					step("pipeline.train_tenant", func() (err error) {
						tr, err = p.TrainTenant(ctx, cycle, id, stage.Configs)
						st.AddJobCounters(tr.Counters)
						if err == nil && !tr.BestOK {
							err = fmt.Errorf("%s: no trained config", id)
						}
						return
					}) &&
					step("pipeline.infer_tenant", func() (err error) {
						inf, err = p.InferTenant(ctx, cycle, id, tr.Best)
						st.AddJobCounters(inf.Counters)
						return
					}) &&
					step("pipeline.guard_tenant", func() (err error) {
						if gr, err = p.EvaluateGuardTenant(cycle, id, tr.Best.Metrics.MAP, recsOf(inf)); err == nil {
							p.FoldGuardBaseline(cycle, id, string(gr.Report.Verdict), gr)
						}
						return
					}) &&
					step("store.publish_tenant", func() error {
						if gr.Report.Verdict == guard.VerdictVeto {
							return nil
						}
						gen++
						snap := serving.BuildSnapshot(gen,
							map[catalog.RetailerID][]inference.ItemRecs{id: inf.Items},
							map[catalog.RetailerID][]catalog.ItemID{id: inf.Sellers})
						snap.Rolling = true
						if gr.Report.Verdict == guard.VerdictCanary {
							snap.Status[id].Canary = true
							snap.Status[id].CanaryFraction = gr.CanaryFraction
						}
						return st.PublishGeneration(snap)
					})
			})
			r.check(err)
		}
	}
	return total, nil
}
