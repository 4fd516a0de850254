package main

import (
	"fmt"
	"math"
	"sort"

	"sigmund"
	"sigmund/internal/linalg"
)

// fleetShape fixes a synthetic fleet's size profile. Sizes sit at fixed
// quantiles of the power law instead of being drawn at random, and each
// tenant's brand count and brand and price coverage are fixed by its
// index, so every seed costs about the same work: with random draws the two
// or three largest tenants dominate a day's wall and swing it by more than
// any bound the benchmark could hold. The seed drives every tenant's
// taxonomy, catalog, users and events.
type fleetShape struct {
	Tenants            int
	MinItems, MaxItems int
	Exponent           float64
	UsersPerItem       float64
	MinUsers           int
	EventsPerUser      float64
	Days               int
	HourlyFraction     float64
	BestEffortFraction float64
}

// powerLawSizes returns n inventory sizes at the quantiles (i+0.5)/n of
// p(x) ∝ x^-a on [lo, hi], largest first.
func powerLawSizes(n, lo, hi int, a float64) []int {
	out := make([]int, n)
	l, h := float64(lo), float64(hi)
	for i := range out {
		u := (float64(i) + 0.5) / float64(n)
		var x float64
		if a == 1 {
			x = l * math.Pow(h/l, u)
		} else {
			e := 1 - a
			x = math.Pow(u*(math.Pow(h, e)-math.Pow(l, e))+math.Pow(l, e), 1/e)
		}
		out[i] = int(x)
		if out[i] < lo {
			out[i] = lo
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// fleetTenant is one generated retailer plus its freshness tier.
type fleetTenant struct {
	*sigmund.SyntheticRetailer
	Tier string
}

// generateFleet builds the fleet for a seed. Tiers follow synth's rule:
// the largest HourlyFraction of tenants are hourly, the smallest
// BestEffortFraction best-effort, the rest daily.
func generateFleet(shape fleetShape, seed uint64) []fleetTenant {
	shapeRNG := linalg.NewRNG(0xf1ee7)
	seedRNG := linalg.NewRNG(seed ^ 0x5eedf1ee7)
	sizes := powerLawSizes(shape.Tenants, shape.MinItems, shape.MaxItems, shape.Exponent)
	hourly := int(math.Ceil(shape.HourlyFraction * float64(shape.Tenants)))
	bestEffort := int(math.Ceil(shape.BestEffortFraction * float64(shape.Tenants)))
	out := make([]fleetTenant, shape.Tenants)
	for i, n := range sizes {
		users := int(float64(n) * shape.UsersPerItem)
		if users < shape.MinUsers {
			users = shape.MinUsers
		}
		r := sigmund.GenerateRetailer(sigmund.RetailerSpec{
			ID:                sigmund.RetailerID(fmt.Sprintf("retailer-%03d", i)),
			NumItems:          n,
			NumUsers:          users,
			EventsPerUserMean: shape.EventsPerUser,
			Days:              shape.Days,
			NumBrands:         5 + shapeRNG.Intn(20),
			BrandCoverage:     shapeRNG.Float64(),
			PriceCoverage:     0.5 + 0.5*shapeRNG.Float64(),
			Seed:              seedRNG.Uint64(),
		})
		tier := "daily"
		switch {
		case i < hourly:
			tier = "hourly"
		case i >= shape.Tenants-bestEffort:
			tier = "best-effort"
		}
		out[i] = fleetTenant{SyntheticRetailer: r, Tier: tier}
	}
	return out
}
