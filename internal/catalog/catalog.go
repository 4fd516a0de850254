// Package catalog models a retailer's product inventory: items with
// category, brand, price, and free-form facets (color, size, weight...).
//
// Sigmund keys everything by retailer — the paper's privacy guarantee is
// that each retailer's data and models are entirely separate problem
// instances — so a Catalog always belongs to exactly one retailer and item
// ids are local to it. The paper notes that item IDs embed the retailer ID
// so the same physical product sold by two retailers is two distinct items;
// here that is enforced structurally by the per-retailer Catalog type.
package catalog

import (
	"fmt"
	"sort"

	"sigmund/internal/taxonomy"
)

// RetailerID identifies a tenant of the service.
type RetailerID string

// ItemID identifies an item within one retailer's catalog. IDs are dense:
// a catalog with N items uses ids [0, N).
type ItemID int32

// NoItem marks the absence of an item.
const NoItem ItemID = -1

// BrandID identifies a brand within one catalog. Items with no known brand
// carry NoBrand; the paper reports that brand coverage below ~10% makes the
// brand feature detrimental, so coverage is a first-class notion here.
// NoBrand is deliberately the zero value so an Item literal without a Brand
// field is correctly "brand unknown". Real brand ids start at 1.
type BrandID int32

// NoBrand marks an item with unknown brand.
const NoBrand BrandID = 0

// Item is one product in a retailer's inventory.
type Item struct {
	ID       ItemID
	Name     string
	Category taxonomy.NodeID // leaf (or internal) category in the retailer taxonomy
	Brand    BrandID         // NoBrand when unknown
	Price    int64           // minor currency units (cents); 0 when unknown
	Facets   map[string]string
	InStock  bool
}

// Catalog is one retailer's inventory plus its taxonomy. Items may be
// appended over time (retailers add products daily) but existing items are
// never renumbered, so embeddings learned yesterday stay valid for
// incremental training.
type Catalog struct {
	Retailer RetailerID
	Tax      *taxonomy.Taxonomy

	items  []Item
	brands []string
	// byCategory maps each category to the items attached directly to it.
	// AddItem maintains it (it is the only place a category is set), so
	// concurrent readers never build or mutate it.
	byCategory map[taxonomy.NodeID][]ItemID
}

// New returns an empty catalog for the given retailer and taxonomy.
func New(retailer RetailerID, tax *taxonomy.Taxonomy) *Catalog {
	return &Catalog{Retailer: retailer, Tax: tax, byCategory: make(map[taxonomy.NodeID][]ItemID)}
}

// AddBrand registers a brand name and returns its id (ids start at 1).
// Duplicate names get distinct ids; callers that want dedup keep their own
// map.
func (c *Catalog) AddBrand(name string) BrandID {
	c.brands = append(c.brands, name)
	return BrandID(len(c.brands))
}

// NumBrands returns the number of registered brands.
func (c *Catalog) NumBrands() int { return len(c.brands) }

// BrandName returns the name for a brand id, or "" for NoBrand.
func (c *Catalog) BrandName(b BrandID) string {
	if b == NoBrand {
		return ""
	}
	return c.brands[b-1]
}

// AddItem appends an item and returns its id. The category must belong to
// the catalog's taxonomy.
func (c *Catalog) AddItem(it Item) ItemID {
	if int(it.Category) < 0 || int(it.Category) >= c.Tax.NumNodes() {
		panic(fmt.Sprintf("catalog: item %q has unknown category %d", it.Name, it.Category))
	}
	if it.Brand != NoBrand && (int(it.Brand) < 1 || int(it.Brand) > len(c.brands)) {
		panic(fmt.Sprintf("catalog: item %q has unknown brand %d", it.Name, it.Brand))
	}
	id := ItemID(len(c.items))
	it.ID = id
	c.items = append(c.items, it)
	c.byCategory[it.Category] = append(c.byCategory[it.Category], id)
	return id
}

// NumItems returns the inventory size.
func (c *Catalog) NumItems() int { return len(c.items) }

// Item returns the item with the given id.
func (c *Catalog) Item(id ItemID) Item { return c.items[id] }

// Items returns the backing item slice; callers must not modify it.
func (c *Catalog) Items() []Item { return c.items }

// SetStock marks an item in or out of stock. Out-of-stock items are
// excluded from materialized recommendations but keep their embeddings.
func (c *Catalog) SetStock(id ItemID, inStock bool) {
	c.items[id].InStock = inStock
}

// SetPrice updates an item's price (retailers modify sale prices daily;
// the incremental pipeline re-reads prices on every run).
func (c *Catalog) SetPrice(id ItemID, price int64) {
	c.items[id].Price = price
}

// ItemsInCategory returns the items attached directly to category n.
func (c *Catalog) ItemsInCategory(n taxonomy.NodeID) []ItemID {
	return c.byCategory[n]
}

// ItemsInSubtree appends to dst every item whose category lies in the
// subtree rooted at n, and returns the extended slice. This is the
// materialization of lca_k sets: items within LCA distance k of item i are
// exactly ItemsInSubtree(Ancestor(cat(i), k)) — minus deeper-side
// asymmetries that WithinLCA handles when precision matters.
func (c *Catalog) ItemsInSubtree(n taxonomy.NodeID, dst []ItemID) []ItemID {
	// Walk the subtree; category counts are small compared to item counts.
	stack := []taxonomy.NodeID{n}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		dst = append(dst, c.byCategory[cur]...)
		stack = append(stack, c.Tax.Children(cur)...)
	}
	return dst
}

// ItemLCADistance returns the paper's LCA distance between two items. In
// the paper's Figure 3 items are leaves of the taxonomy tree, so two items
// in the same category are at distance 1 (their LCA is the category node
// one level above), items in sibling categories at distance 2, and so on:
// the item-level distance is the category-level distance plus one. An item
// is at distance 0 only from itself.
func (c *Catalog) ItemLCADistance(i, j ItemID) int {
	if i == j {
		return 0
	}
	return c.Tax.Distance(c.items[i].Category, c.items[j].Category) + 1
}

// LCAk returns the items within item-level LCA distance at most k of item
// i — the paper's lca_k(i) set. lca_1(i) is i plus its same-category items
// ("other Android phones"); lca_2 adds sibling categories ("all smart
// phones"). The result is sorted by item id; i itself is always included.
func (c *Catalog) LCAk(i ItemID, k int) []ItemID {
	if k <= 0 {
		return []ItemID{i}
	}
	cat := c.items[i].Category
	anc := c.Tax.Ancestor(cat, k-1)
	out := c.ItemsInSubtree(anc, nil)
	// Filter the asymmetric cases: an item j much deeper in the subtree can
	// exceed the distance bound even though j is under anc.
	n := 0
	for _, j := range out {
		if j == i || c.Tax.WithinLCA(cat, c.items[j].Category, k-1) {
			out[n] = j
			n++
		}
	}
	out = out[:n]
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// BrandCoverage returns the fraction of items with a known brand. Sigmund's
// per-retailer feature selection consults this: the paper found brand
// coverage under ~10% makes the feature detrimental.
func (c *Catalog) BrandCoverage() float64 {
	if len(c.items) == 0 {
		return 0
	}
	n := 0
	for i := range c.items {
		if c.items[i].Brand != NoBrand {
			n++
		}
	}
	return float64(n) / float64(len(c.items))
}

// PriceCoverage returns the fraction of items with a known (non-zero) price.
func (c *Catalog) PriceCoverage() float64 {
	if len(c.items) == 0 {
		return 0
	}
	n := 0
	for i := range c.items {
		if c.items[i].Price > 0 {
			n++
		}
	}
	return float64(n) / float64(len(c.items))
}

// PriceBucket quantizes an item's price into one of nBuckets log-scale
// buckets. The BPR model learns one embedding per bucket ("spendiness" in
// the paper); log scale matches how price sensitivity works — the gap
// between $5 and $10 matters as much as between $500 and $1000. Items with
// unknown price return -1.
func (c *Catalog) PriceBucket(id ItemID, nBuckets int) int {
	p := c.items[id].Price
	if p <= 0 {
		return -1
	}
	// log2 buckets starting at $1 (100 cents): bucket = floor(log2(p/100)).
	b := 0
	for v := p / 100; v > 1; v >>= 1 {
		b++
	}
	if b >= nBuckets {
		b = nBuckets - 1
	}
	return b
}
