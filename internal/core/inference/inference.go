// Package inference implements Sigmund's offline inference job (Section
// IV-C): for each retailer's best model, materialize the top-K
// recommendations for every item in the inventory, so serving is a cheap
// lookup. The computational cost is roughly linear in the number of items
// because candidate selection bounds the per-item ranking work.
//
// The package also implements the job's parallelization strategy: retailers
// are partitioned across cells with a greedy first-fit (largest-first)
// bin-packing heuristic weighted by inventory size, which minimizes the
// overall makespan given the power-law skew in retailer sizes (Section
// IV-C1).
package inference

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"sigmund/internal/catalog"
	"sigmund/internal/core/hybrid"
	"sigmund/internal/mapreduce"
	"sigmund/internal/obs"
)

// ItemRecs is the materialized output for one item: the ranked
// recommendation lists served before (view) and after (purchase) the
// purchase decision — Figure 1's two surfaces.
type ItemRecs struct {
	Item     catalog.ItemID  `json:"item"`
	View     []hybrid.Scored `json:"view"`
	Purchase []hybrid.Scored `json:"purchase"`
	// LateFunnel is the facet-constrained view surface for users deep in
	// the purchase funnel (empty when facet materialization is off or the
	// constraint would leave too few items).
	LateFunnel []hybrid.Scored `json:"late_funnel,omitempty"`
}

// Options configures a materialization run.
type Options struct {
	// TopK recommendations per item per surface.
	TopK int
	// Workers is the parallelism (map tasks run concurrently; each task
	// is single-threaded per the paper, with multithreading inside the
	// scoring code).
	Workers int
	// SkipOutOfStock omits out-of-stock query items entirely.
	SkipOutOfStock bool
	// LateFunnelFacets enables materializing the facet-constrained
	// late-funnel surface with these facet keys (nil = off).
	LateFunnelFacets []string
	// Substrate configures worker preemption/lease/speculation for the
	// underlying MapReduce (zero value: reliable workers).
	Substrate mapreduce.Substrate
	// Metrics optionally reports the underlying MapReduce's lifecycle into
	// an obs.Registry. nil disables.
	Metrics *obs.Registry
}

// Defaulted fills zeros.
func (o Options) Defaulted() Options {
	if o.TopK <= 0 {
		o.TopK = 10
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	return o
}

// Materialize computes ItemRecs for every item using the hybrid
// recommender. It runs as a map-only MapReduce over the item ids so the
// fault-tolerance and parallelism semantics match the production job.
func Materialize(ctx context.Context, rec *hybrid.Recommender, cat *catalog.Catalog, opts Options) ([]ItemRecs, error) {
	out, _, err := MaterializeStats(ctx, rec, cat, opts)
	return out, err
}

// MaterializeStats is Materialize exposing the underlying job's counters,
// which the pipeline rolls into the day's report and /statz.
func MaterializeStats(ctx context.Context, rec *hybrid.Recommender, cat *catalog.Catalog, opts Options) ([]ItemRecs, mapreduce.Counters, error) {
	opts = opts.Defaulted()
	input := make([]mapreduce.Record, 0, cat.NumItems())
	for i := 0; i < cat.NumItems(); i++ {
		if opts.SkipOutOfStock && !cat.Item(catalog.ItemID(i)).InStock {
			continue
		}
		input = append(input, mapreduce.Record{Key: itemKey(len(input), catalog.ItemID(i))})
	}
	// Results flow through emit into attempt-isolated buffers rather than
	// side-effect writes into a shared slice: with the worker substrate,
	// two attempts of one task can be live at once (a zombie whose lease
	// expired, or a speculative backup racing its primary), and only the
	// committed attempt's output may count.
	mapper := mapreduce.MapperFunc(func(mctx context.Context, r mapreduce.Record, emit mapreduce.Emit) error {
		if err := mctx.Err(); err != nil {
			return err
		}
		_, id, err := parseItemKey(r.Key)
		if err != nil {
			return err
		}
		ir := ItemRecs{Item: id}
		ir.View = truncate(rec.RecommendForView(id), opts.TopK)
		ir.Purchase = truncate(rec.RecommendForPurchase(id), opts.TopK)
		if len(opts.LateFunnelFacets) > 0 {
			ir.LateFunnel = truncate(rec.RecommendForViewLateFunnel(id, opts.LateFunnelFacets), opts.TopK)
		}
		emit(r.Key, EncodeItemRecs(ir))
		return nil
	})
	spec := mapreduce.Spec{
		Name:        "inference/" + string(cat.Retailer),
		NumMapTasks: opts.Workers * 4,
		Workers:     opts.Workers,
		Substrate:   opts.Substrate,
		Metrics:     opts.Metrics,
	}
	res, err := mapreduce.Run(ctx, spec, input, mapper, nil)
	if err != nil {
		return nil, res.Counters, err
	}
	out := make([]ItemRecs, len(input))
	for _, kv := range res.Output {
		idx, _, err := parseItemKey(kv.Key)
		if err != nil {
			return nil, res.Counters, err
		}
		if idx < 0 || idx >= len(out) {
			return nil, res.Counters, fmt.Errorf("inference: ordinal %d out of range", idx)
		}
		ir, err := DecodeItemRecs(kv.Value)
		if err != nil {
			return nil, res.Counters, err
		}
		out[idx] = ir
	}
	return out, res.Counters, nil
}

// EncodeItemRecs serializes one item's recommendations into the compact
// binary form shuffled through the materialization job. It is only that
// job's shuffle codec: every on-disk copy of a tenant's recommendations
// (store segments and the day journal's recs blob) is an SSG2 segment
// (internal/segment).
func EncodeItemRecs(ir ItemRecs) []byte {
	buf := binary.AppendUvarint(nil, uint64(ir.Item))
	for _, list := range [][]hybrid.Scored{ir.View, ir.Purchase, ir.LateFunnel} {
		buf = binary.AppendUvarint(buf, uint64(len(list)))
		for _, s := range list {
			buf = binary.AppendUvarint(buf, uint64(s.Item))
			buf = binary.AppendUvarint(buf, math.Float64bits(s.Score))
			buf = append(buf, byte(s.Source))
		}
	}
	return buf
}

// DecodeItemRecs inverts EncodeItemRecs.
func DecodeItemRecs(b []byte) (ItemRecs, error) {
	var ir ItemRecs
	item, n := binary.Uvarint(b)
	if n <= 0 {
		return ir, fmt.Errorf("inference: truncated ItemRecs payload")
	}
	b = b[n:]
	ir.Item = catalog.ItemID(item)
	for i := 0; i < 3; i++ {
		count, n := binary.Uvarint(b)
		if n <= 0 {
			return ir, fmt.Errorf("inference: truncated ItemRecs list header")
		}
		b = b[n:]
		var list []hybrid.Scored
		for j := uint64(0); j < count; j++ {
			var s hybrid.Scored
			id, n := binary.Uvarint(b)
			if n <= 0 {
				return ir, fmt.Errorf("inference: truncated scored item")
			}
			b = b[n:]
			bits, n := binary.Uvarint(b)
			if n <= 0 || len(b[n:]) < 1 {
				return ir, fmt.Errorf("inference: truncated scored payload")
			}
			b = b[n:]
			s.Item = catalog.ItemID(id)
			s.Score = math.Float64frombits(bits)
			s.Source = hybrid.Source(b[0])
			b = b[1:]
			list = append(list, s)
		}
		switch i {
		case 0:
			ir.View = list
		case 1:
			ir.Purchase = list
		case 2:
			ir.LateFunnel = list
		}
	}
	if len(b) != 0 {
		return ir, fmt.Errorf("inference: %d trailing bytes in ItemRecs payload", len(b))
	}
	return ir, nil
}

func truncate(s []hybrid.Scored, k int) []hybrid.Scored {
	if len(s) > k {
		return s[:k]
	}
	return s
}

// itemKey encodes (ordinal, item) so the mapper can write results into a
// pre-sized slice without locks: ordinals are dense over the input even
// when stock filtering leaves gaps in the item-id sequence.
func itemKey(ordinal int, id catalog.ItemID) string {
	return strconv.Itoa(ordinal) + ":" + strconv.Itoa(int(id))
}

func parseItemKey(key string) (int, catalog.ItemID, error) {
	colon := strings.IndexByte(key, ':')
	if colon < 0 {
		return 0, 0, fmt.Errorf("inference: malformed item key %q", key)
	}
	ord, err := strconv.Atoi(key[:colon])
	if err != nil {
		return 0, 0, fmt.Errorf("inference: malformed item key %q: %w", key, err)
	}
	id, err := strconv.Atoi(key[colon+1:])
	if err != nil {
		return 0, 0, fmt.Errorf("inference: malformed item key %q: %w", key, err)
	}
	return ord, catalog.ItemID(id), nil
}

// Bin-packing -----------------------------------------------------------

// Partition assigns weighted retailers to bins (cells/machine pools),
// returning bin indices parallel to the input. Strategy selects the
// heuristic.
type Strategy uint8

const (
	// GreedyFirstFit sorts retailers by descending weight and assigns each
	// to the currently lightest bin — the paper's heuristic (also known as
	// LPT scheduling), within 4/3 of optimal makespan.
	GreedyFirstFit Strategy = iota
	// RoundRobin ignores weights (the strawman baseline).
	RoundRobin
	// InOrderFirstFit assigns in given order to the lightest bin
	// (sensitive to input order; between the two above).
	InOrderFirstFit
)

func (s Strategy) String() string {
	switch s {
	case GreedyFirstFit:
		return "greedy-first-fit"
	case RoundRobin:
		return "round-robin"
	case InOrderFirstFit:
		return "in-order-first-fit"
	}
	return "unknown"
}

// Assignment is the result of a partition.
type Assignment struct {
	// Bin[i] is the bin index for input weight i.
	Bin []int
	// Load[b] is the total weight assigned to bin b.
	Load []float64
}

// Makespan returns the heaviest bin's load — the job completes when the
// slowest cell finishes.
func (a Assignment) Makespan() float64 {
	var m float64
	for _, l := range a.Load {
		if l > m {
			m = l
		}
	}
	return m
}

// Imbalance returns makespan / mean load (1.0 = perfectly balanced).
func (a Assignment) Imbalance() float64 {
	var sum float64
	for _, l := range a.Load {
		sum += l
	}
	if sum == 0 {
		return 1
	}
	mean := sum / float64(len(a.Load))
	return a.Makespan() / mean
}

// Partition distributes weights into bins using the strategy. Weights are
// retailer inventory sizes: "the computational cost of inference is roughly
// linearly proportional to the number of items".
func Partition(weights []float64, bins int, strategy Strategy) Assignment {
	if bins <= 0 {
		bins = 1
	}
	a := Assignment{Bin: make([]int, len(weights)), Load: make([]float64, bins)}
	switch strategy {
	case RoundRobin:
		for i, w := range weights {
			b := i % bins
			a.Bin[i] = b
			a.Load[b] += w
		}
	case InOrderFirstFit:
		for i, w := range weights {
			b := lightest(a.Load)
			a.Bin[i] = b
			a.Load[b] += w
		}
	default: // GreedyFirstFit
		order := make([]int, len(weights))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(x, y int) bool { return weights[order[x]] > weights[order[y]] })
		for _, i := range order {
			b := lightest(a.Load)
			a.Bin[i] = b
			a.Load[b] += weights[i]
		}
	}
	return a
}

func lightest(load []float64) int {
	best := 0
	for i := 1; i < len(load); i++ {
		if load[i] < load[best] {
			best = i
		}
	}
	return best
}
