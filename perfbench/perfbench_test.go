package main

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"sigmund"
	"sigmund/internal/sched"
	"sigmund/internal/serving"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.95, 10}, {0.99, 10}, {0.1, 1}, {0.01, 1}, {1, 10},
	} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples is not 0")
	}
	var s samples
	for _, x := range []float64{5, 1, 4, 2, 3} {
		s.add(x)
	}
	if s.q(0.5) != 3 || s.q(1) != 5 {
		t.Errorf("samples.q: median %g max %g, want 3 and 5", s.q(0.5), s.q(1))
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		p    float64
	}{
		{100000, 0.99, 0.99}, {1000, 0.99, 0.99}, {999, 0.95, 0.99}, {200, 0.95, 0.99},
		{199, 0.9, 0.99}, {100, 0.9, 0.99}, {99, 0.75, 0.99}, {40, 0.75, 0.99},
		{39, 0.5, 0.99}, {5, 0.5, 0.99}, {100000, 0.95, 0.95}, {150, 0.9, 0.95},
	} {
		got := tailPercentile(c.n, c.p)
		if got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.p, got, c.want)
		}
		if got > 0.5 && float64(c.n)*(1-got) < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %g leaves fewer than 10 samples beyond it", c.n, got)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestHistQuantilesWithinHalfPercent(t *testing.T) {
	h := newHist()
	var exact samples
	for i := 1; i <= 10000; i++ {
		d := time.Duration(i*i) * time.Nanosecond // 1 ns .. 100 ms, skewed
		h.add(d)
		exact.addDur(d)
	}
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		got, want := h.q(p), exact.q(p)
		if math.Abs(got-want)/want > 0.006 {
			t.Errorf("hist p%g = %g ms, exact %g ms", p*100, got, want)
		}
	}
	other := newHist()
	other.add(time.Hour) // past the last bucket: clamps, still counted
	h.merge(other)
	if h.n != 10001 {
		t.Errorf("merged count %d, want 10001", h.n)
	}
	if newHist().q(0.5) != 0 {
		t.Error("empty hist quantile is not 0")
	}
}

// fakeClock drives a pacer: sleeps overshoot by oversleep.
type fakeClock struct {
	now       time.Time
	oversleep time.Duration
	slept     time.Duration
}

func (c *fakeClock) pacer() *pacer {
	return &pacer{
		now: func() time.Time { return c.now },
		sleep: func(d time.Duration) error {
			c.slept += d
			c.now = c.now.Add(d + c.oversleep)
			return nil
		},
	}
}

func TestPacerLatenessAccounting(t *testing.T) {
	t0 := time.Unix(1000, 0)
	c := &fakeClock{now: t0, oversleep: 150 * time.Microsecond}
	p := c.pacer()

	// Early: the pacer sleeps the whole gap and records the overshoot.
	sent, err := p.waitUntil(t0.Add(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if want := t0.Add(1150 * time.Microsecond); !sent.Equal(want) || c.slept != time.Millisecond {
		t.Fatalf("sent at %v after sleeping %v, want %v after 1ms", sent.Sub(t0), c.slept, want.Sub(t0))
	}
	if p.lag.n() != 1 || math.Abs(p.lag.q(1)-0.15) > 1e-9 {
		t.Fatalf("lag %v, want one sample of 0.15 ms", p.lag.xs)
	}

	// Already due: sent at once, counted as behind, not as lag.
	if sent, _ := p.waitUntil(t0.Add(time.Millisecond)); !sent.Equal(c.now) || c.slept != time.Millisecond {
		t.Fatal("a past-due send waited")
	}
	if p.behind != 1 || p.lag.n() != 1 {
		t.Fatalf("behind %d lag samples %d, want 1 and 1", p.behind, p.lag.n())
	}

	// A failed sleep is returned, with no lag recorded.
	p.sleep = func(time.Duration) error { return errors.New("timerfd closed") }
	if _, err := p.waitUntil(c.now.Add(time.Millisecond)); err == nil || p.lag.n() != 1 {
		t.Fatalf("failed sleep: err %v, lag samples %d", err, p.lag.n())
	}
}

// TestTimerFDSleepsAtLeastItsDuration checks the real pacer never wakes
// before the due time.
func TestTimerFDSleepsAtLeastItsDuration(t *testing.T) {
	p, err := newPacer()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	for i := 0; i < 20; i++ {
		due := time.Now().Add(200 * time.Microsecond)
		sent, err := p.waitUntil(due)
		if err != nil {
			t.Fatal(err)
		}
		if sent.Before(due) {
			t.Fatalf("woke %v early", due.Sub(sent))
		}
	}
}

var (
	trafficOnce sync.Once
	testTraffic *traffic
)

// sharedTraffic generates the seed-1 traffic once for every checker test.
func sharedTraffic() *traffic {
	trafficOnce.Do(func() { testTraffic = genTraffic(1) })
	return testTraffic
}

// sampled returns the first request checked against a reference.
func sampled(t *testing.T, tr *traffic) *request {
	t.Helper()
	for i := range tr.reqs {
		if tr.reqs[i].ref >= 0 {
			return &tr.reqs[i]
		}
	}
	t.Fatal("no sampled requests")
	return nil
}

// unsampled returns the first request checked without a reference.
func unsampled(t *testing.T, tr *traffic) *request {
	t.Helper()
	for i := range tr.reqs {
		if tr.reqs[i].ref < 0 {
			return &tr.reqs[i]
		}
	}
	t.Fatal("no unsampled requests")
	return nil
}

// jsonBody encodes a response as the handler does, with json.Encoder.
func jsonBody(t *testing.T, r sigmund.RetailerID, version int64, recs []serving.Recommendation) []byte {
	t.Helper()
	var b strings.Builder
	if err := json.NewEncoder(&b).Encode(struct {
		Retailer sigmund.RetailerID       `json:"retailer"`
		Version  int64                    `json:"version"`
		Recs     []serving.Recommendation `json:"recommendations"`
	}{r, version, recs}); err != nil {
		t.Fatal(err)
	}
	return []byte(b.String())
}

// body encodes a response in codec c.
func body(t *testing.T, c codec, r sigmund.RetailerID, version int64, recs []serving.Recommendation) []byte {
	if c == codecBinary {
		return serving.AppendRecsResponse(nil, r, version, recs)
	}
	return jsonBody(t, r, version, recs)
}

func TestCheckHTTPAcceptsRightAnswers(t *testing.T) {
	tr := sharedTraffic()
	req, plain := sampled(t, tr), unsampled(t, tr)
	const gen = 4
	for _, c := range []codec{codecJSON, codecBinary} {
		for _, g := range []int64{gen, gen - 1} {
			ref := tr.refs[g%variants]
			if err := tr.checkHTTP(req, c, 200, body(t, c, req.tenant, g, ref[req.ref]), gen); err != nil {
				t.Errorf("%v: right answer of generation %d rejected: %v", c, g, err)
			}
		}
		if err := tr.checkHTTP(plain, c, 200, body(t, c, plain.tenant, gen, tr.refs[0][0]), gen); err != nil {
			t.Errorf("%v: well-formed unsampled answer rejected: %v", c, err)
		}
	}
}

func TestCheckHTTPCatchesWrongAnswers(t *testing.T) {
	tr := sharedTraffic()
	req, plain := sampled(t, tr), unsampled(t, tr)
	const gen = 4
	ref := tr.refs[gen%variants][req.ref]
	swapped := append([]serving.Recommendation(nil), ref...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	scoreBit := append([]serving.Recommendation(nil), ref...)
	scoreBit[0].Score = math.Float64frombits(math.Float64bits(scoreBit[0].Score) ^ 1)
	long := make([]serving.Recommendation, servK+1)

	for _, c := range []codec{codecJSON, codecBinary} {
		good := body(t, c, req.tenant, gen, ref)
		corrupt := append([]byte(nil), good...)
		corrupt[0] ^= 0xff // binary magic, JSON opening brace
		for name, k := range map[string]struct {
			req    *request
			status int
			body   []byte
		}{
			"corrupted first byte":      {req, 200, corrupt},
			"truncated body":            {req, 200, good[:len(good)-5]},
			"status 503":                {req, 503, good},
			"generation N-2":            {req, 200, body(t, c, req.tenant, gen-2, tr.refs[(gen-2)%variants][req.ref])},
			"generation N+1":            {req, 200, body(t, c, req.tenant, gen+1, ref)},
			"other retailer":            {req, 200, body(t, c, "shop-999", gen, ref)},
			"swapped items":             {req, 200, body(t, c, req.tenant, gen, swapped)},
			"one score bit":             {req, 200, body(t, c, req.tenant, gen, scoreBit)},
			"content of N-2":            {req, 200, body(t, c, req.tenant, gen, tr.refs[(gen-2)%variants][req.ref])},
			"empty answer":              {req, 200, body(t, c, req.tenant, gen, nil)},
			"unsampled, other retailer": {plain, 200, body(t, c, "shop-999", gen, ref)},
			"unsampled, generation N-2": {plain, 200, body(t, c, plain.tenant, gen-2, ref)},
			"unsampled, empty answer":   {plain, 200, body(t, c, plain.tenant, gen, nil)},
			"unsampled, more than k":    {plain, 200, body(t, c, plain.tenant, gen, long)},
			"unsampled, truncated":      {plain, 200, good[:len(good)-5]},
		} {
			if err := tr.checkHTTP(k.req, c, k.status, k.body, gen); err == nil {
				t.Errorf("%v, %s: accepted", c, name)
			}
		}
	}
	// A body in the other codec than the one asked for fails too.
	if err := tr.checkHTTP(req, codecBinary, 200, jsonBody(t, req.tenant, gen, ref), gen); err == nil {
		t.Error("JSON body accepted for a binary request")
	}
	if err := tr.checkHTTP(req, codecJSON, 200, serving.AppendRecsResponse(nil, req.tenant, gen, ref), gen); err == nil {
		t.Error("binary body accepted for a JSON request")
	}
}

// TestCheckHTTPAllocatesOnlyForSampled checks the per-response check
// allocates nothing on an unsampled response, in either codec.
func TestCheckHTTPAllocatesOnlyForSampled(t *testing.T) {
	tr := sharedTraffic()
	plain := unsampled(t, tr)
	for _, c := range []codec{codecJSON, codecBinary} {
		b := body(t, c, plain.tenant, 4, tr.refs[0][0])
		var err error
		if n := testing.AllocsPerRun(100, func() { err = tr.checkHTTP(plain, c, 200, b, 4) }); n != 0 || err != nil {
			t.Errorf("%v: %v allocations per check, err %v", c, n, err)
		}
	}
}

// TestRequestStreamIsSeeded checks contexts hold 1-3 actions and that the
// stream is the same for the same seed.
func TestRequestStreamIsSeeded(t *testing.T) {
	tr := sharedTraffic()
	for i := range tr.reqs[:1000] {
		if n := len(tr.reqs[i].ctx); n < 1 || n > maxCtx {
			t.Fatalf("request %d: %d actions", i, n)
		}
	}
	again := genTraffic(1)
	for i := range tr.reqs[:1000] {
		if string(tr.reqs[i].raw[codecBinary]) != string(again.reqs[i].raw[codecBinary]) {
			t.Fatalf("request %d differs between two streams of seed 1", i)
		}
	}
}

func TestCheckAnswerGenerationWindow(t *testing.T) {
	tr := sharedTraffic()
	bin := sampled(t, tr)
	// Embedded calls: the answer must match a generation in the window the
	// call could have been served from.
	for g := int64(5); g <= 6; g++ {
		if err := tr.checkAnswer(bin, tr.refs[g%variants][bin.ref], 5, 6); err != nil {
			t.Errorf("generation %d in window 5..6 rejected: %v", g, err)
		}
	}
	if err := tr.checkAnswer(bin, tr.refs[4%variants][bin.ref], 5, 6); err == nil {
		t.Error("answer from generation 4 accepted in window 5..6")
	}
	unchecked := &request{tenant: bin.tenant, ref: -1}
	if err := tr.checkAnswer(unchecked, nil, 5, 6); err == nil {
		t.Error("empty answer accepted")
	}
	long := make([]serving.Recommendation, servK+1)
	if err := tr.checkAnswer(unchecked, long, 5, 6); err == nil {
		t.Error("answer longer than k accepted")
	}
}

func TestCheckTenantServes(t *testing.T) {
	recs := []serving.Recommendation{{Item: 1, Score: 1}}
	if err := checkTenantServes("a", serving.TenantStatus{RecsVersion: 3}, true, recs, 3); err != nil {
		t.Errorf("fresh tenant rejected: %v", err)
	}
	if err := checkTenantServes("a", serving.TenantStatus{RecsVersion: 2, Canary: true}, true, recs, 3); err != nil {
		t.Errorf("canaried tenant on its control generation rejected: %v", err)
	}
	if err := checkTenantServes("a", serving.TenantStatus{RecsVersion: 1, Degraded: true, DegradedPhase: "guard"}, true, recs, 3); err != nil {
		t.Errorf("vetoed tenant on its previous generation rejected: %v", err)
	}
	for name, c := range map[string]struct {
		st   serving.TenantStatus
		ok   bool
		recs []serving.Recommendation
	}{
		"degraded in train":     {serving.TenantStatus{RecsVersion: 2, Degraded: true, DegradedPhase: "train"}, true, recs},
		"vetoed, no generation": {serving.TenantStatus{Degraded: true, DegradedPhase: "guard"}, true, recs},
		"vetoed, silent":        {serving.TenantStatus{RecsVersion: 2, Degraded: true, DegradedPhase: "guard"}, true, nil},
		"stale":                 {serving.TenantStatus{RecsVersion: 2}, true, recs},
		"missing":               {serving.TenantStatus{}, false, recs},
		"silent":                {serving.TenantStatus{RecsVersion: 3}, true, nil},
		"canary ahead":          {serving.TenantStatus{RecsVersion: 4, Canary: true}, true, recs},
	} {
		if err := checkTenantServes("a", c.st, c.ok, c.recs, 3); err == nil {
			t.Errorf("%s tenant accepted", name)
		}
	}
}

func TestCheckRetailerDay(t *testing.T) {
	for name, c := range map[string]struct {
		rr             sigmund.RetailerReport
		vetoed, failed bool
	}{
		"healthy":              {sigmund.RetailerReport{Retailer: "a"}, false, false},
		"guard veto":           {sigmund.RetailerReport{Retailer: "a", Degraded: true, DegradedPhase: "guard", GuardVerdict: "veto"}, true, false},
		"degraded in train":    {sigmund.RetailerReport{Retailer: "a", Degraded: true, DegradedPhase: "train"}, false, true},
		"guard phase, no veto": {sigmund.RetailerReport{Retailer: "a", Degraded: true, DegradedPhase: "guard"}, false, true},
	} {
		vetoed, err := checkRetailerDay(1, c.rr)
		if vetoed != c.vetoed || (err != nil) != c.failed {
			t.Errorf("%s: vetoed %v err %v", name, vetoed, err)
		}
	}
}

func TestCheckMAP(t *testing.T) {
	if err := checkMAP(999, 1, 0.25, 0.25); err != nil {
		t.Errorf("repeated MAP rejected: %v", err)
	}
	if err := checkMAP(999, 1, 0.25, 0.2500001); err == nil {
		t.Error("MAP that moved between weeks accepted")
	}
	for seed, want := range pinnedMAP {
		if err := checkMAP(seed, 0, want[0], 0); err != nil {
			t.Errorf("pinned MAP for seed %d rejected: %v", seed, err)
		}
		if err := checkMAP(seed, 0, want[0]+0.001, want[0]+0.001); err == nil {
			t.Errorf("MAP off the pinned value for seed %d accepted", seed)
		}
	}
}

func TestCheckRollingDrain(t *testing.T) {
	rep := sched.Report{Publishes: 7, Vetoed: 1, MaxGen: 7}
	if err := checkPublishes(rep, 4, 2); err != nil {
		t.Errorf("4 tenants x 2 cycles - 1 veto = 7 publishes rejected: %v", err)
	}
	rep.Publishes = 6
	if err := checkPublishes(rep, 4, 2); err == nil {
		t.Error("a lost publish accepted")
	}

	ids := []sigmund.RetailerID{"a", "b", "c"}
	recs := []serving.Recommendation{{Item: 1}}
	served := map[sigmund.RetailerID][]serving.Recommendation{"a": recs, "b": recs, "c": recs}
	good := map[sigmund.RetailerID]serving.TenantStatus{"a": {RecsVersion: 5}, "b": {RecsVersion: 6}, "c": {RecsVersion: 7}}
	if errs := nonNil(checkRollingTenants(ids, good, served, 7)); len(errs) > 0 {
		t.Errorf("good drain rejected: %v", errs)
	}
	if got := len(checkRollingTenants(ids, good, served, 7)); got != len(ids)+1 {
		t.Errorf("%d results, want one per tenant plus one", got)
	}
	for name, c := range map[string]struct {
		st     map[sigmund.RetailerID]serving.TenantStatus
		served map[sigmund.RetailerID][]serving.Recommendation
	}{
		"shared generation":  {map[sigmund.RetailerID]serving.TenantStatus{"a": {RecsVersion: 6}, "b": {RecsVersion: 6}, "c": {RecsVersion: 7}}, served},
		"newest not served":  {map[sigmund.RetailerID]serving.TenantStatus{"a": {RecsVersion: 4}, "b": {RecsVersion: 5}, "c": {RecsVersion: 6}}, served},
		"degraded tenant":    {map[sigmund.RetailerID]serving.TenantStatus{"a": {RecsVersion: 5, Degraded: true}, "b": {RecsVersion: 6}, "c": {RecsVersion: 7}}, served},
		"generation too new": {map[sigmund.RetailerID]serving.TenantStatus{"a": {RecsVersion: 5}, "b": {RecsVersion: 6}, "c": {RecsVersion: 8}}, served},
		"silent tenant":      {good, map[sigmund.RetailerID][]serving.Recommendation{"a": recs, "b": recs}},
	} {
		if len(nonNil(checkRollingTenants(ids, c.st, c.served, 7))) == 0 {
			t.Errorf("%s accepted", name)
		}
	}
}

func nonNil(errs []error) []error {
	var out []error
	for _, err := range errs {
		if err != nil {
			out = append(out, err)
		}
	}
	return out
}

func TestFailedOperationMakesRunIncorrect(t *testing.T) {
	r := newRun("x", 1, time.Second, false)
	r.check(nil)
	if res := r.result(); !res.Correct || res.Attempted != 1 || res.Failed != 0 {
		t.Fatalf("clean run: %+v", res)
	}
	r.check(errTest("wrong answer"))
	res := r.result()
	if res.Correct || res.Failed != 1 || res.Attempted != 2 {
		t.Fatalf("run with a wrong answer: %+v", res)
	}
	if empty := newRun("x", 1, time.Second, false).result(); empty.Correct {
		t.Fatal("a run that attempted nothing is correct")
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }

func TestPowerLawSizes(t *testing.T) {
	sizes := powerLawSizes(32, 40, 2000, 1.2)
	if len(sizes) != 32 {
		t.Fatalf("%d sizes", len(sizes))
	}
	for i, n := range sizes {
		if n < 40 || n > 2000 {
			t.Errorf("size %d = %d outside [40, 2000]", i, n)
		}
		if i > 0 && n > sizes[i-1] {
			t.Errorf("sizes not largest first at %d", i)
		}
	}
	if sizes[0] < 1000 || sizes[len(sizes)-1] > 50 {
		t.Errorf("sizes %v do not span the power law", sizes)
	}
}

func TestFleetShapeIsSeedIndependent(t *testing.T) {
	shape := fleetShape{Tenants: 4, MinItems: 20, MaxItems: 60, Exponent: 1.2, UsersPerItem: 0.5, MinUsers: 10, EventsPerUser: 4, Days: 1, HourlyFraction: 0.25, BestEffortFraction: 0.25}
	a, b := generateFleet(shape, 1), generateFleet(shape, 2)
	for i := range a {
		sa, sb := a[i].Spec, b[i].Spec
		if sa.NumItems != sb.NumItems || sa.NumUsers != sb.NumUsers || sa.NumBrands != sb.NumBrands || a[i].Tier != b[i].Tier {
			t.Errorf("tenant %d shape differs between seeds: %+v vs %+v", i, sa, sb)
		}
		if sa.Seed == sb.Seed {
			t.Errorf("tenant %d content seed ignores the benchmark seed", i)
		}
	}
	if a[0].Tier != "hourly" || a[3].Tier != "best-effort" || a[1].Tier != "daily" {
		t.Errorf("tiers %s %s %s %s", a[0].Tier, a[1].Tier, a[2].Tier, a[3].Tier)
	}
	if c := generateFleet(shape, 1); c[2].Log.Len() != a[2].Log.Len() {
		t.Error("the same seed gave different events")
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.do("parent", 0, 1, func(parent int64) {
		tr.do("child", parent, 1, func(int64) { time.Sleep(2 * time.Millisecond) })
	})
	self := tr.selfTime()
	if self["child"] < 2*time.Millisecond {
		t.Errorf("child self time %v", self["child"])
	}
	if self["parent"] < 0 || self["parent"] > self["child"] {
		t.Errorf("parent self time %v not net of its child %v", self["parent"], self["child"])
	}
	dir := t.TempDir()
	path, err := tr.writeFile(dir, "w", 1)
	if err != nil || !strings.HasSuffix(path, "spans-w-1.json") {
		t.Fatalf("writeFile: %s %v", path, err)
	}
}
