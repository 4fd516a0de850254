package main

import (
	"fmt"
	"strconv"
	"strings"

	"sigmund"
	"sigmund/internal/catalog"
	"sigmund/internal/core/hybrid"
	"sigmund/internal/core/inference"
	"sigmund/internal/interactions"
	"sigmund/internal/linalg"
	"sigmund/internal/serving"
)

// The recommend workloads' traffic: a storefront fleet of servTenants
// retailers with servItems items each, zipf-skewed across tenants, read
// through 1-3-action contexts cut from each tenant's synthetic event log,
// so the action mix and item popularity are the program's own user model.
const (
	servTenants = 100
	servItems   = 200
	servZipf    = 1.1
	servK       = 10
	maxCtx      = 3
	viewLen     = 10 // materialized view-surface list per item
	buyLen      = 5  // materialized purchase-surface list per item
	topSellers  = 10

	// streamLen requests are generated in setup and replayed in order,
	// cycling; checkEvery-th ones are also compared with a reference.
	streamLen  = 1 << 16
	checkEvery = 31
	// variants is how many distinct fleet contents the embedded workload
	// cycles through, one per generation. Three, so an answer from
	// generation N-2 differs from both allowed ones (N and N-1).
	variants = 3
)

// request is one precomputed /recommend call, in both codecs: the
// default JSON and the binary one asked for with format=binary.
type request struct {
	tenant sigmund.RetailerID
	ctx    sigmund.Context
	url    string    // path and query, JSON
	raw    [2][]byte // the whole HTTP/1.1 request, indexed by codec
	ref    int       // index into traffic.refs, or -1 when not checked
}

// codec is a /recommend response encoding; it indexes request.raw.
type codec int

const (
	codecJSON codec = iota
	codecBinary
)

func (c codec) String() string { return [...]string{"json", "binary"}[c] }

// traffic is everything the recommend workloads generate in setup.
type traffic struct {
	tenants []sigmund.RetailerID
	// fleets[v] is the fleet content published at generations ≡ v mod
	// variants, map-backed as the pipeline builds it.
	fleets [variants]map[catalog.RetailerID]*serving.RetailerRecs
	reqs   []request
	// refs[v][i] is the answer a single-node server gives sampled request
	// i on fleets[v].
	refs [variants][][]serving.Recommendation
}

// snapshot wraps fleet content v as generation gen. Each publish gets its
// own Snapshot and status map; the recs themselves are shared read-only.
func (t *traffic) snapshot(gen int64) *serving.Snapshot {
	sn := &serving.Snapshot{
		Version:   gen,
		Retailers: make(map[catalog.RetailerID]*serving.RetailerRecs, len(t.tenants)),
		Status:    make(map[catalog.RetailerID]*serving.TenantStatus, len(t.tenants)),
	}
	for r, rr := range t.fleets[gen%variants] {
		sn.Retailers[r] = rr
		sn.Status[r] = &serving.TenantStatus{RecsVersion: gen}
	}
	return sn
}

// genTraffic builds the fleet contents, the request stream and the
// reference answers for a seed.
func genTraffic(seed uint64) *traffic {
	t := &traffic{}
	for i := 0; i < servTenants; i++ {
		t.tenants = append(t.tenants, sigmund.RetailerID(fmt.Sprintf("shop-%03d", i)))
	}
	for v := 0; v < variants; v++ {
		t.fleets[v] = genFleetRecs(t.tenants, seed, uint64(v))
	}
	// Each tenant's shoppers come from a synthetic retailer of the
	// fleet's size: its per-user event sequences are where contexts are
	// cut from.
	seqs := make([][]interactions.UserSequence, servTenants)
	seedRNG := linalg.NewRNG(seed ^ 0x5e55)
	for i, id := range t.tenants {
		sr := sigmund.GenerateRetailer(sigmund.RetailerSpec{ID: id, NumItems: servItems, Seed: seedRNG.Uint64()})
		seqs[i] = sr.Log.BySequence()
	}
	// Tenant popularity follows tenant order for every seed: which tenants
	// are hot decides which shard carries the load, and letting the seed
	// move that swung throughput by ~12% between seeds.
	rng := linalg.NewRNG(seed ^ 0x7eaf1c)
	var refIdx int
	for i := 0; i < streamLen; i++ {
		ti := rng.Zipf(servTenants, servZipf)
		r := t.tenants[ti]
		// A shopper's latest 1-3 actions at a random point of their
		// session: ContextBefore is how the pipeline itself builds them.
		seq := seqs[ti][rng.Intn(len(seqs[ti]))]
		ctx := interactions.ContextBefore(seq, 1+rng.Intn(len(seq.Events)), 1+rng.Intn(maxCtx))
		req := request{tenant: r, ctx: ctx, ref: -1, url: recommendURL(r, ctx, servK, false)}
		for c, url := range [2]string{req.url, recommendURL(r, ctx, servK, true)} {
			req.raw[c] = []byte("GET " + url + " HTTP/1.1\r\nHost: perfbench\r\n\r\n")
		}
		if i%checkEvery == 0 {
			req.ref = refIdx
			refIdx++
		}
		t.reqs = append(t.reqs, req)
	}
	for v := 0; v < variants; v++ {
		srv := serving.NewServer()
		srv.Publish(&serving.Snapshot{Version: 1, Retailers: t.fleets[v]})
		t.refs[v] = make([][]serving.Recommendation, refIdx)
		for _, req := range t.reqs {
			if req.ref >= 0 {
				t.refs[v][req.ref] = srv.Recommend(req.tenant, req.ctx, servK)
			}
		}
	}
	return t
}

func recommendURL(r sigmund.RetailerID, ctx sigmund.Context, k int, binary bool) string {
	var b strings.Builder
	b.WriteString("/recommend?retailer=")
	b.WriteString(string(r))
	b.WriteString("&context=")
	for i, a := range ctx {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a.Type.String())
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(int(a.Item)))
	}
	b.WriteString("&k=")
	b.WriteString(strconv.Itoa(k))
	if binary {
		b.WriteString("&format=binary")
	}
	return b.String()
}

// genFleetRecs materializes one fleet content: for every item a
// view-surface and a purchase-surface list of distinct other items, plus a
// top-sellers list, all drawn from (seed, variant).
func genFleetRecs(tenants []sigmund.RetailerID, seed, variant uint64) map[catalog.RetailerID]*serving.RetailerRecs {
	rng := linalg.NewRNG(seed*0x9e3779b97f4a7c15 ^ (variant+1)*0xc2b2ae3d27d4eb4f)
	out := make(map[catalog.RetailerID]*serving.RetailerRecs, len(tenants))
	for _, r := range tenants {
		rr := &serving.RetailerRecs{Recs: make(map[catalog.ItemID]inference.ItemRecs, servItems)}
		for i := 0; i < servItems; i++ {
			neigh := distinctItems(rng, viewLen+buyLen, i)
			ir := inference.ItemRecs{Item: catalog.ItemID(i)}
			for j, it := range neigh[:viewLen] {
				ir.View = append(ir.View, hybrid.Scored{Item: it, Score: 1 / float64(j+1), Source: hybrid.Source(j % 2)})
			}
			for j, it := range neigh[viewLen:] {
				ir.Purchase = append(ir.Purchase, hybrid.Scored{Item: it, Score: 1 / float64(j+1)})
			}
			rr.Recs[ir.Item] = ir
		}
		rr.TopSellers = distinctItems(rng, topSellers, -1)
		out[r] = rr
	}
	return out
}

// distinctItems draws n distinct item IDs other than skip.
func distinctItems(rng *linalg.RNG, n, skip int) []catalog.ItemID {
	out := make([]catalog.ItemID, 0, n)
	for len(out) < n {
		it := rng.Intn(servItems)
		if it == skip {
			continue
		}
		dup := false
		for _, o := range out {
			if int(o) == it {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, catalog.ItemID(it))
		}
	}
	return out
}
