package sigmund

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// schedConfig trains single-threaded: DemoConfig's two-thread Hogwild
// updates race by design, so two runs of the same fleet can train
// slightly different models and rank near-tied recommendations
// differently, which a control-vs-resumed comparison would report as a
// divergence.
func schedConfig() Config {
	cfg := DemoConfig()
	cfg.SchedWorkers = 2
	cfg.SchedCycles = 2
	cfg.TrainThreads = 1
	return cfg
}

func schedFleet(t *testing.T, svc *Service, n int) []RetailerID {
	t.Helper()
	fleet := GenerateFleet(FleetSpec{
		NumRetailers: n, MinItems: 40, MaxItems: 100,
		Days: 2, Seed: 81,
		HourlyFraction: 0.34,
	})
	ids := make([]RetailerID, 0, n)
	for _, r := range fleet {
		if err := svc.AddRetailer(r.Catalog, r.Log); err != nil {
			t.Fatal(err)
		}
		if err := svc.SetTier(r.Catalog.Retailer, r.Tier); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.Catalog.Retailer)
	}
	return ids
}

func TestServiceSchedEndToEnd(t *testing.T) {
	svc := NewService(schedConfig())
	defer svc.Close()
	ids := schedFleet(t, svc, 3)

	rep, err := svc.RunSched(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.CyclesClosed != 6 || rep.Publishes != 6 || rep.JobsFailed != 0 {
		t.Fatalf("report: closed=%d publishes=%d failed=%d, want 6/6/0", rep.CyclesClosed, rep.Publishes, rep.JobsFailed)
	}
	// Rolling publishes: one serving generation per publish.
	if svc.SnapshotVersion() != rep.MaxGen || rep.MaxGen != 6 {
		t.Fatalf("snapshot v%d, maxGen %d, want 6/6", svc.SnapshotVersion(), rep.MaxGen)
	}
	// The tier assignment reached the scheduler: one hourly tenant out of
	// three (ceil(0.34*3) = 2... the fraction maps through FleetSpec).
	hr := rep.Tiers["hourly"]
	if hr == nil || hr.Tenants == 0 {
		t.Fatalf("no hourly tier in report: %+v", rep.Tiers)
	}
	for _, id := range ids {
		if recs := svc.Recommend(id, Context{{Type: View, Item: 0}}, 5); len(recs) == 0 {
			t.Fatalf("no recommendations for %s after scheduler run", id)
		}
	}

	// The serving surface exposes the scheduler's freshness: /statz gains
	// a freshness block with per-tier staleness, /metrics the staleness
	// histogram and job counters.
	h := svc.Handler()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/statz", nil))
	var statz struct {
		Freshness *struct {
			Path  string `json:"path"`
			Tiers map[string]struct {
				Publishes int `json:"publishes"`
			} `json:"tiers"`
		} `json:"freshness"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &statz); err != nil {
		t.Fatalf("statz: %v (%s)", err, w.Body.String())
	}
	if statz.Freshness == nil || statz.Freshness.Path != "sched" {
		t.Fatalf("statz freshness block = %+v, want path sched", statz.Freshness)
	}
	total := 0
	for _, tier := range statz.Freshness.Tiers {
		total += tier.Publishes
	}
	if total != 6 {
		t.Fatalf("statz freshness publishes sum to %d, want 6", total)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{"sigmund_sched_jobs_total", "sigmund_pipeline_staleness_seconds"} {
		if !strings.Contains(w.Body.String(), want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
}

func TestServiceSchedCrashResume(t *testing.T) {
	// Control: an uninterrupted scheduler run over an identical fleet.
	control := NewService(schedConfig())
	defer control.Close()
	ids := schedFleet(t, control, 2)
	controlRep, err := control.RunSched(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	cfg := schedConfig()
	cfg.SchedCrashAfter = 5
	svc := NewService(cfg)
	defer svc.Close()
	schedFleet(t, svc, 2)

	_, err = svc.RunSched(context.Background())
	if err == nil {
		t.Fatal("RunSched survived its crashpoint")
	}
	if !IsSchedulerCrash(err) {
		t.Fatalf("err = %v, want a scheduler crash", err)
	}
	rep, err := svc.RunSched(context.Background())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !rep.Resumed || rep.RecordsReplayed != 5 {
		t.Fatalf("resumed=%v replayed=%d, want true/5", rep.Resumed, rep.RecordsReplayed)
	}
	if rep.CyclesClosed != controlRep.CyclesClosed || rep.Publishes != controlRep.Publishes || rep.MaxGen != controlRep.MaxGen {
		t.Fatalf("resumed closed=%d publishes=%d gen=%d, control %d/%d/%d",
			rep.CyclesClosed, rep.Publishes, rep.MaxGen,
			controlRep.CyclesClosed, controlRep.Publishes, controlRep.MaxGen)
	}
	// The resumed fleet serves the same recommendations as the control.
	for _, id := range ids {
		want := control.Recommend(id, Context{{Type: View, Item: 1}}, 5)
		got := svc.Recommend(id, Context{{Type: View, Item: 1}}, 5)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: resumed recommendations diverged:\n got: %+v\nwant: %+v", id, got, want)
		}
	}
}

func TestServiceSetTierValidation(t *testing.T) {
	svc := NewService(schedConfig())
	defer svc.Close()
	fleet := GenerateFleet(FleetSpec{NumRetailers: 1, MinItems: 40, MaxItems: 60, Days: 2, Seed: 3})
	if err := svc.AddRetailer(fleet[0].Catalog, fleet[0].Log); err != nil {
		t.Fatal(err)
	}
	id := fleet[0].Catalog.Retailer

	if err := svc.SetTier(id, "weekly"); err == nil {
		t.Fatal("unknown tier accepted")
	}
	if err := svc.SetTier(id, "hourly"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RunSched(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := svc.SetTier(id, "daily"); err == nil {
		t.Fatal("SetTier after the scheduler started was accepted")
	}
}

func TestServiceDailyPathExposesFreshness(t *testing.T) {
	svc := NewService(DemoConfig())
	defer svc.Close()
	fleet := GenerateFleet(FleetSpec{NumRetailers: 2, MinItems: 40, MaxItems: 80, Seed: 7})
	for _, r := range fleet {
		if err := svc.AddRetailer(r.Catalog, r.Log); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.RunDay(context.Background()); err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	svc.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/statz", nil))
	var statz struct {
		Freshness *struct {
			Path  string `json:"path"`
			Tiers map[string]struct {
				Tenants int `json:"tenants"`
			} `json:"tiers"`
		} `json:"freshness"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &statz); err != nil {
		t.Fatalf("statz: %v (%s)", err, w.Body.String())
	}
	if statz.Freshness == nil || statz.Freshness.Path != "daily" {
		t.Fatalf("statz freshness block = %+v, want path daily", statz.Freshness)
	}
	if d := statz.Freshness.Tiers["daily"]; d.Tenants != 2 {
		t.Fatalf("daily tier tenants = %d, want 2", d.Tenants)
	}
}
