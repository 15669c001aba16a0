// Package workload synthesises the two query workloads of the paper's
// evaluation: a Grab-Traces-like industry trace (high structural diversity,
// tens of thousands of distinct predicates, long-tail plan sizes, a growing
// table universe) and a TPC-DS-like benchmark (81 fixed templates with only
// predicate values varying). Each generated query carries its SQL text, its
// logical plan and a ground-truth resource profile from the cost simulator.
package workload

import (
	"fmt"
	"sort"

	"prestroid/internal/tensor"
)

// Domain word pools give column names the co-occurrence structure the
// paper's Word2Vec model exploits (e.g. longitude/latitude cluster together,
// far from datamart).
var domainColumns = map[string][]string{
	"geo":     {"longitude", "latitude", "geohash", "city_id", "zone", "distance_km", "pickup_ts", "dropoff_ts"},
	"finance": {"amount", "fee", "currency", "tax", "balance", "payment_type", "settled_at", "datamart_id"},
	"food":    {"merchant_id", "basket_size", "prep_minutes", "rating", "cuisine", "delivery_fee", "order_ts"},
	"user":    {"user_id", "signup_dt", "device_os", "app_version", "segment", "churn_score", "locale"},
	"ops":     {"driver_id", "shift_id", "idle_minutes", "acceptance_rate", "incentive", "region_code", "online_ts"},
}

var domainNames = []string{"geo", "finance", "food", "user", "ops"}

var tableNouns = []string{
	"bookings", "orders", "payments", "trips", "sessions", "events",
	"snapshots", "ledger", "metrics", "audits", "profiles", "campaigns",
}

// Column is one table column with its domain vocabulary word.
type Column struct {
	Name string
}

// Table is a synthetic catalog table. CreatedDay supports the paper's
// table-growth study (Table 1): queries at day d only use tables with
// CreatedDay <= d.
type Table struct {
	Name       string
	Columns    []Column
	CreatedDay int
}

// Catalog is a growing universe of tables.
type Catalog struct {
	Tables []Table
	rng    *tensor.RNG
}

// NewCatalog creates initial tables (day 0) and schedules growth: each
// subsequent day adds growthPerDay new tables, reproducing the rising
// unseen-table fractions of Table 1.
func NewCatalog(initial, days, growthPerDay int, seed uint64) *Catalog {
	c := &Catalog{rng: tensor.NewRNG(seed)}
	id := 0
	add := func(day int) {
		domain := domainNames[c.rng.Intn(len(domainNames))]
		noun := tableNouns[c.rng.Intn(len(tableNouns))]
		name := fmt.Sprintf("%s_%s_%03d", domain, noun, id)
		id++
		cols := []Column{{Name: "id"}, {Name: "dt"}, {Name: "city_id"}}
		pool := domainColumns[domain]
		n := 3 + c.rng.Intn(len(pool)-2)
		for _, j := range c.rng.Perm(len(pool))[:n] {
			cols = append(cols, Column{Name: pool[j]})
		}
		c.Tables = append(c.Tables, Table{Name: name, Columns: cols, CreatedDay: day})
	}
	for i := 0; i < initial; i++ {
		add(0)
	}
	for d := 1; d <= days; d++ {
		for i := 0; i < growthPerDay; i++ {
			add(d)
		}
	}
	return c
}

// ExistingAt returns the tables created on or before day. NewCatalog adds
// tables in non-decreasing CreatedDay, so they are a prefix of c.Tables: the
// result aliases the catalog, clipped so an append cannot write into it.
func (c *Catalog) ExistingAt(day int) []Table {
	n := sort.Search(len(c.Tables), func(i int) bool { return c.Tables[i].CreatedDay > day })
	return c.Tables[:n:n]
}

// pickTable samples a table existing at day with recency bias: newer tables
// are queried more, as freshly landed datasets attract analyst attention.
func (c *Catalog) pickTable(day int, rng *tensor.RNG) Table {
	avail := c.ExistingAt(day)
	if len(avail) == 0 {
		panic("workload: catalog empty at day " + fmt.Sprint(day))
	}
	// 30% of picks come from the newest fifth of tables.
	if rng.Float64() < 0.30 {
		start := len(avail) * 4 / 5
		return avail[start+rng.Intn(len(avail)-start)]
	}
	return avail[rng.Intn(len(avail))]
}
