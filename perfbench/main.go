//go:build linux

// Command perfbench is the repository's benchmark: four workloads against
// the real sigmund.Service, every answer checked, end-to-end metrics from
// an untraced run and per-layer metrics from a separate traced run. See
// README.md for the workloads, the metrics and what each should move.
//
//	bash perfbench/run.sh --workload recommend-http --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
//
// The benchmark runs on Linux only: it paces on a timerfd and reads its
// resident set from /proc.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one named traffic mix. run measures it untraced and fills
// the end-to-end metrics; traced measures it again with spans around the
// calls into each layer and fills the per-layer metrics.
type workload struct {
	name   string
	run    func(r *run) error
	traced func(r *run) error
}

var workloads = []workload{
	{"recommend-http", runHTTP, tracedHTTP},
	{"recommend-embedded", runEmbedded, tracedEmbedded},
	{"daily-batch", runBatch, tracedBatch},
	{"rolling-fleet", runRolling, tracedRolling},
}

// End-to-end metric names and units: every workload reports all of them,
// each with the meaning README.md gives for that workload.
var e2eUnits = map[string]string{
	"setup_s":         "s",
	"peak_rss_mb":     "MB",
	"alloc_mb":        "MB",
	"latency_p50_ms":  "ms",
	"latency_tail_ms": "ms",
	"work_per_cpu_s":  "1/cpu-s",
}

// run is one benchmark invocation's state and results.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool

	attempted atomic.Int64
	failed    atomic.Int64
	failMu    sync.Mutex
	failures  []string

	metrics map[string]float64 // the JSON metrics: end-to-end or per-layer
	units   map[string]string
	spans   *tracer
}

func newRun(workload string, seed uint64, seconds time.Duration, trace bool) *run {
	return &run{workload: workload, seed: seed, seconds: seconds, trace: trace,
		metrics: map[string]float64{}, units: map[string]string{}}
}

// fail counts one failed operation and keeps the first few reasons.
func (r *run) fail(err error) { r.failN(1, err) }

// failN counts n failed operations with one reason.
func (r *run) failN(n int64, err error) {
	r.failed.Add(n)
	r.failMu.Lock()
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
	r.failMu.Unlock()
}

// check counts one attempted operation, failed when err is non-nil.
func (r *run) check(err error) {
	r.attempted.Add(1)
	if err != nil {
		r.fail(err)
	}
}

// metric records a value that goes into the JSON result.
func (r *run) metric(name string, v float64, unit string) {
	r.metrics[name] = v
	r.units[name] = unit
}

// e2e records an end-to-end metric and prints it with the name the
// workload documentation uses for it.
func (r *run) e2e(name string, v float64, alias, note string) {
	r.metric(name, v, e2eUnits[name])
	r.say(alias, v, e2eUnits[name], note)
}

// say prints one named measurement for a reader; it does not go into the
// JSON result.
func (r *run) say(name string, v float64, unit, note string) {
	fmt.Printf("  %-30s %14.6g %-6s %s\n", name, v, unit, note)
}

// layer records a per-layer metric and prints it next to the end-to-end
// metric it should move and any note on how it was measured.
func (r *run) layer(name string, v float64, unit, moves, note string) {
	r.metric(name, v, unit)
	if note != "" {
		note = " [" + note + "]"
	}
	r.say(name, v, unit, "moves "+moves+note)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s, --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	r := newRun(wl.name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n", wl.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	var err error
	if r.trace {
		r.spans = newTracer()
		err = wl.traced(r)
	} else {
		err = wl.run(r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.trace {
		path, werr := r.spans.writeFile(".bench_build", r.workload, r.seed)
		if werr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", werr)
			os.Exit(1)
		}
		fmt.Printf("  spans: %d written to %s\n", r.spans.len(), path)
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", f)
	}
	res := r.result()
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the run's JSON result: correct when it attempted something
// and nothing failed.
func (r *run) result() jsonResult {
	res := jsonResult{
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   map[string]jsonMetric{},
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for k, v := range r.metrics {
		res.Metrics[k] = jsonMetric{Value: v, Unit: r.units[k]}
	}
	return res
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// A run sets its system under test up at least setupMin times and, while
// the set-ups have taken less than setupBudget in all, up to setupMax
// times; setup_s is the median wall, so one slow set-up does not move it.
// Only the program's own set-up is timed: the inputs are generated before.
const (
	setupMin    = 7
	setupMax    = 101
	setupBudget = time.Second
)

var setupNote = fmt.Sprintf("median of %d-%d set-ups, inputs generated beforehand", setupMin, setupMax)

// timedSetups runs build repeatedly, releases every result but the last
// and returns the last with the median build wall in seconds. Each build
// starts from a collected heap, so it does not pay for collecting the
// garbage the one before it left.
func timedSetups[T any](build func() (T, error), release func(T)) (T, float64, error) {
	var (
		walls []float64
		total time.Duration
		env   T
		have  bool
	)
	for len(walls) < setupMin || (total < setupBudget && len(walls) < setupMax) {
		if have {
			release(env)
			have = false
		}
		runtime.GC()
		start := time.Now()
		e, err := build()
		if err != nil {
			return env, 0, err
		}
		d := time.Since(start)
		walls = append(walls, d.Seconds())
		total += d
		env, have = e, true
	}
	return env, median(walls), nil
}

// memWatch measures a phase's memory: peak resident set, sampled, and
// bytes allocated. It starts from a collected heap with freed pages handed
// back to the OS, so set-up garbage does not count: without that the
// peak swung by a third between runs with the scavenger's timing.
type memWatch struct {
	startAlloc uint64
	startGC    runtime.MemStats
	startCPU   []metrics.Sample
	peakKB     atomic.Int64
	stop       chan struct{}
	done       chan struct{}
}

func startMemWatch() *memWatch {
	debug.FreeOSMemory()
	m := &memWatch{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&m.startGC)
	m.startAlloc = m.startGC.TotalAlloc
	m.startCPU = cpuClasses()
	m.peakKB.Store(rssKB())
	go func() {
		defer close(m.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				if kb := rssKB(); kb > m.peakKB.Load() {
					m.peakKB.Store(kb)
				}
			}
		}
	}()
	return m
}

// memStats is what a memWatch saw over its phase.
type memStats struct {
	peakMB, allocMB       float64
	gcPauseMS, gcCPUShare float64
	gcs                   uint32
}

func (m *memWatch) finish() memStats {
	close(m.stop)
	<-m.done
	if kb := rssKB(); kb > m.peakKB.Load() {
		m.peakKB.Store(kb)
	}
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	endCPU := cpuClasses()
	st := memStats{
		peakMB:  float64(m.peakKB.Load()) / 1024,
		allocMB: float64(end.TotalAlloc-m.startAlloc) / (1 << 20),
		gcs:     end.NumGC - m.startGC.NumGC,
	}
	if total := endCPU[1].Value.Float64() - m.startCPU[1].Value.Float64(); total > 0 {
		st.gcCPUShare = (endCPU[0].Value.Float64() - m.startCPU[0].Value.Float64()) / total
	}
	if st.gcs > 0 {
		st.gcPauseMS = float64(end.PauseTotalNs-m.startGC.PauseTotalNs) / float64(st.gcs) / 1e6
	}
	return st
}

// cpuClasses reads the runtime's estimate of CPU spent in GC and in
// total, so a phase's GC share is its own rather than the process's
// lifetime average that MemStats.GCCPUFraction gives.
func cpuClasses() []metrics.Sample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s
}

// rssKB reads the resident set size from /proc/self/status.
func rssKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmRSS:") {
			var kb int64
			fmt.Sscanf(strings.TrimSpace(line[len("VmRSS:"):]), "%d", &kb)
			return kb
		}
	}
	return 0
}

// reportMem records the memory end-to-end metrics; perUnit scales the
// allocation to the workload's unit of work.
func (r *run) reportMem(st memStats, units float64, unitName string) {
	r.e2e("peak_rss_mb", st.peakMB, "peak_rss_mb", "peak resident set over the measured phase")
	r.e2e("alloc_mb", st.allocMB/units, "alloc_mb", "MB allocated per "+unitName)
}

// reportFails prints the failure ratio the workload's attempted and failed
// counts give (also carried by the JSON result's attempted and failed).
func (r *run) reportFails(what string) {
	a, f := r.attempted.Load(), r.failed.Load()
	ratio := 0.0
	if a > 0 {
		ratio = float64(f) / float64(a)
	}
	r.say("fail_ratio", ratio, "ratio", fmt.Sprintf("%d failed of %d %s", f, a, what))
}

// cpuSeconds returns the CPU time this process has used, user plus system.
// Work per CPU-second is the benchmark's throughput measure: on a shared VM
// the hypervisor steals 1-20% of the CPU (read from /proc/stat steal
// during runs), which moved wall-clock capacity by ±15% between
// back-to-back runs but requests per CPU-second by about ±5%.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}
