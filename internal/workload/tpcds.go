package workload

import (
	"fmt"
	"strings"

	"prestroid/internal/costsim"
	"prestroid/internal/logicalplan"
	"prestroid/internal/tensor"
)

// tpcdsTables is a fixed mini TPC-DS catalog: fact tables joined to
// dimensions, each with a stable column set. Structure never varies within
// a template — only predicate values do, matching the paper's observation
// that TPC-DS offers little structural diversity.
var tpcdsTables = []Table{
	{Name: "store_sales", Columns: cols("ss_sold_date_sk", "ss_item_sk", "ss_customer_sk", "ss_store_sk", "ss_quantity", "ss_sales_price", "ss_net_profit")},
	{Name: "catalog_sales", Columns: cols("cs_sold_date_sk", "cs_item_sk", "cs_bill_customer_sk", "cs_quantity", "cs_sales_price", "cs_net_profit")},
	{Name: "web_sales", Columns: cols("ws_sold_date_sk", "ws_item_sk", "ws_bill_customer_sk", "ws_quantity", "ws_sales_price", "ws_net_profit")},
	{Name: "customer", Columns: cols("c_customer_sk", "c_current_addr_sk", "c_birth_year", "c_preferred_cust_flag")},
	{Name: "customer_address", Columns: cols("ca_address_sk", "ca_state", "ca_city", "ca_gmt_offset")},
	{Name: "item", Columns: cols("i_item_sk", "i_category", "i_brand", "i_current_price", "i_manufact_id")},
	{Name: "date_dim", Columns: cols("d_date_sk", "d_year", "d_moy", "d_qoy", "d_dow")},
	{Name: "store", Columns: cols("s_store_sk", "s_state", "s_county", "s_number_employees")},
	{Name: "warehouse", Columns: cols("w_warehouse_sk", "w_state", "w_warehouse_sq_ft")},
	{Name: "promotion", Columns: cols("p_promo_sk", "p_channel_email", "p_channel_tv", "p_cost")},
}

func cols(names ...string) []Column {
	out := make([]Column, len(names))
	for i, n := range names {
		out[i] = Column{Name: n}
	}
	return out
}

// TPCDSConfig controls the TPC-DS-like generator.
type TPCDSConfig struct {
	Queries        int // paper: 5153
	Templates      int // paper: 81
	Seed           uint64
	CPUMin, CPUMax float64
}

// DefaultTPCDSConfig returns a scaled-down default; paper scale uses
// Queries=5153, Templates=81.
func DefaultTPCDSConfig() TPCDSConfig {
	return TPCDSConfig{Queries: 600, Templates: 81, Seed: 2, CPUMin: 1, CPUMax: 60}
}

// TPCDSGenerator instantiates queries from fixed templates.
type TPCDSGenerator struct {
	cfg TPCDSConfig
	rng *tensor.RNG
	est *costsim.Estimator
}

// NewTPCDSGenerator returns a generator.
func NewTPCDSGenerator(cfg TPCDSConfig) *TPCDSGenerator {
	if cfg.CPUMax <= 0 {
		cfg.CPUMin, cfg.CPUMax = 1, 60
	}
	if cfg.Templates <= 0 {
		cfg.Templates = 81
	}
	return &TPCDSGenerator{
		cfg: cfg,
		rng: tensor.NewRNG(cfg.Seed),
		est: costsim.NewEstimator(cfg.Seed + 31),
	}
}

// template describes one fixed query structure.
type template struct {
	fact     Table
	dims     []Table
	filtered []struct {
		alias string
		col   string
		op    string
	}
	agg     bool
	orderBy bool
	limit   bool
}

// buildTemplate derives template t's fixed structure deterministically from
// its id, so every instantiation of the same template shares one shape.
func (g *TPCDSGenerator) buildTemplate(id int) template {
	trng := tensor.NewRNG(uint64(id)*2654435761 + 17)
	tpl := template{fact: tpcdsTables[trng.Intn(3)]} // one of the 3 fact tables
	nDims := 1 + trng.Intn(3)
	used := map[string]bool{tpl.fact.Name: true}
	for len(tpl.dims) < nDims {
		d := tpcdsTables[3+trng.Intn(len(tpcdsTables)-3)]
		if used[d.Name] {
			continue
		}
		used[d.Name] = true
		tpl.dims = append(tpl.dims, d)
	}
	// 1-4 filtered columns, fixed per template (only values vary).
	nFilters := 1 + trng.Intn(4)
	for i := 0; i < nFilters; i++ {
		src := tpl.fact
		alias := "f"
		if len(tpl.dims) > 0 && trng.Float64() < 0.6 {
			j := trng.Intn(len(tpl.dims))
			src = tpl.dims[j]
			alias = fmt.Sprintf("d%d", j)
		}
		col := src.Columns[trng.Intn(len(src.Columns))].Name
		op := []string{"=", "<", ">", "BETWEEN", "IN"}[trng.Intn(5)]
		tpl.filtered = append(tpl.filtered, struct {
			alias string
			col   string
			op    string
		}{alias, col, op})
	}
	tpl.agg = trng.Float64() < 0.7
	tpl.orderBy = trng.Float64() < 0.5
	tpl.limit = trng.Float64() < 0.5
	return tpl
}

// instantiate renders SQL for a template with fresh random values.
func (g *TPCDSGenerator) instantiate(tpl template) string {
	var b strings.Builder
	proj := "f." + tpl.fact.Columns[0].Name
	groupBy := ""
	if tpl.agg {
		key := "d0." + tpl.dims[0].Columns[1].Name
		proj = fmt.Sprintf("%s, SUM(f.%s) AS total", key, tpl.fact.Columns[len(tpl.fact.Columns)-1].Name)
		groupBy = " GROUP BY " + key
	}
	b.WriteString("SELECT ")
	b.WriteString(proj)
	fmt.Fprintf(&b, " FROM %s f", tpl.fact.Name)
	for j, d := range tpl.dims {
		// Join fact's j-th key column to the dimension's surrogate key.
		fcol := tpl.fact.Columns[j%3].Name
		fmt.Fprintf(&b, " JOIN %s d%d ON f.%s = d%d.%s", d.Name, j, fcol, j, d.Columns[0].Name)
	}
	var clauses []string
	for _, fl := range tpl.filtered {
		col := fl.alias + "." + fl.col
		switch fl.op {
		case "BETWEEN":
			lo := g.rng.Intn(2000)
			clauses = append(clauses, fmt.Sprintf("%s BETWEEN %d AND %d", col, lo, lo+1+g.rng.Intn(2000)))
		case "IN":
			n := 2 + g.rng.Intn(3)
			vals := make([]string, n)
			for i := range vals {
				vals[i] = fmt.Sprint(1990 + g.rng.Intn(30))
			}
			clauses = append(clauses, fmt.Sprintf("%s IN (%s)", col, strings.Join(vals, ", ")))
		default:
			clauses = append(clauses, fmt.Sprintf("%s %s %d", col, fl.op, g.rng.Intn(5000)))
		}
	}
	b.WriteString(" WHERE ")
	b.WriteString(strings.Join(clauses, " AND "))
	b.WriteString(groupBy)
	if tpl.orderBy {
		if tpl.agg {
			b.WriteString(" ORDER BY total DESC")
		} else {
			b.WriteString(" ORDER BY " + proj)
		}
	}
	if tpl.limit {
		fmt.Fprintf(&b, " LIMIT %d", 100)
	}
	return b.String()
}

// Generate produces the configured number of accepted traces, cycling
// through templates so counts per template stay balanced.
func (g *TPCDSGenerator) Generate() []*Trace {
	templates := make([]template, g.cfg.Templates)
	for i := range templates {
		templates[i] = g.buildTemplate(i)
	}
	traces := make([]*Trace, 0, g.cfg.Queries)
	attempts := 0
	maxAttempts := g.cfg.Queries * 300
	id := 0
	for len(traces) < g.cfg.Queries && attempts < maxAttempts {
		tplID := attempts % g.cfg.Templates
		attempts++
		sql := g.instantiate(templates[tplID])
		plan, err := logicalplan.PlanSQL(sql)
		if err != nil {
			panic(fmt.Sprintf("workload: tpcds template produced unparsable SQL: %v\n%s", err, sql))
		}
		prof := g.est.Profile(plan)
		if prof.CPUMinutes < g.cfg.CPUMin || prof.CPUMinutes > g.cfg.CPUMax {
			continue
		}
		traces = append(traces, &Trace{
			ID:       id,
			SQL:      sql,
			Plan:     plan,
			Template: tplID,
			Profile:  prof,
		})
		id++
	}
	return traces
}
