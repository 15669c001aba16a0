package workload

import (
	"fmt"
	"strconv"

	"prestroid/internal/costsim"
	"prestroid/internal/logicalplan"
	"prestroid/internal/tensor"
)

// GrabConfig controls the Grab-Traces-like generator.
type GrabConfig struct {
	Queries         int     // accepted queries (after the 1–60 min filter)
	Days            int     // trace window length in days
	InitialTables   int     // tables existing at day 0
	TablesPerDay    int     // catalog growth rate (drives Table 1)
	MonsterFraction float64 // probability of a long-tail giant query (Fig 8)
	Seed            uint64
	CPUMin, CPUMax  float64 // acceptance window in minutes (paper: 1–60)
}

// DefaultGrabConfig returns a scaled-down default; the paper-scale run uses
// Queries=19876, Days=60.
func DefaultGrabConfig() GrabConfig {
	return GrabConfig{
		Queries:         2000,
		Days:            60,
		InitialTables:   120,
		TablesPerDay:    2,
		MonsterFraction: 0.01,
		Seed:            1,
		CPUMin:          1,
		CPUMax:          60,
	}
}

// GrabGenerator synthesises industry-style OLAP queries over a growing
// catalog.
type GrabGenerator struct {
	Catalog *Catalog
	cfg     GrabConfig
	rng     *tensor.RNG
	est     *costsim.Estimator
	nextID  int
	sql     []byte // the buffer every draw appends its SQL into
}

// NewGrabGenerator builds the catalog and generator.
func NewGrabGenerator(cfg GrabConfig) *GrabGenerator {
	if cfg.CPUMax <= 0 {
		cfg.CPUMin, cfg.CPUMax = 1, 60
	}
	return &GrabGenerator{
		Catalog: NewCatalog(cfg.InitialTables, cfg.Days, cfg.TablesPerDay, cfg.Seed+77),
		cfg:     cfg,
		rng:     tensor.NewRNG(cfg.Seed),
		est:     costsim.NewEstimator(cfg.Seed + 13),
	}
}

// Generate produces the configured number of accepted traces, spreading
// query days uniformly across the window. Rejected (out-of-window) queries
// are regenerated, mirroring the paper's dataset filtering.
//
// Draws come in chunks of min(queries still wanted, attempts left): each
// chunk's days and SQL are drawn serially from the generator's stream, its
// plans are built in parallel, and its profiles and the CPU-window filter
// then run serially in draw order. A chunk never holds more draws than a
// one-at-a-time loop would still make, so the traces, their IDs and the
// position the generator is left at are those of that loop at any core count.
func (g *GrabGenerator) Generate() []*Trace {
	traces := make([]*Trace, 0, g.cfg.Queries)
	maxAttempts := g.cfg.Queries * 200
	for attempts := 0; len(traces) < g.cfg.Queries && attempts < maxAttempts; {
		chunk := make([]*Trace, min(g.cfg.Queries-len(traces), maxAttempts-attempts))
		attempts += len(chunk)
		for i := range chunk {
			chunk[i] = g.draw(g.rng.Intn(g.cfg.Days + 1))
		}
		errs := make([]error, len(chunk))
		tensor.Each(len(chunk), func(i, _ int) {
			chunk[i].Plan, errs[i] = logicalplan.PlanSQL(chunk[i].SQL)
		})
		for i, t := range chunk {
			if errs[i] != nil {
				panic(unparsable(errs[i], t.SQL))
			}
			t.Profile = g.est.Profile(t.Plan)
			if t.Profile.CPUMinutes < g.cfg.CPUMin || t.Profile.CPUMinutes > g.cfg.CPUMax {
				continue
			}
			t.ID = g.nextID
			g.nextID++
			traces = append(traces, t)
		}
	}
	return traces
}

// GenerateOne synthesises a single (unfiltered) trace for the given day. It
// draws what Generate draws for one query after its day — the monster flag
// and the SQL, then the profile's noise — so draws after Generate continue
// both streams where its last chunk left them.
func (g *GrabGenerator) GenerateOne(day int) *Trace {
	t := g.draw(day)
	plan, err := logicalplan.PlanSQL(t.SQL)
	if err != nil {
		panic(unparsable(err, t.SQL))
	}
	t.Plan = plan
	t.Profile = g.est.Profile(plan)
	return t
}

// draw takes one query's monster flag and SQL from the generator's stream,
// leaving its plan and profile to the caller.
func (g *GrabGenerator) draw(day int) *Trace {
	monster := g.rng.Float64() < g.cfg.MonsterFraction
	depth := 0
	if monster {
		depth = -2 // allows two extra nesting levels
	}
	g.sql = g.appendSelect(g.sql[:0], day, depth, monster)
	return &Trace{SQL: string(g.sql), Day: day, Template: -1}
}

// unparsable is the panic of a generated query the planner refuses: the
// generator and the parser disagree, a bug to fail loudly on.
func unparsable(err error, sql string) string {
	return fmt.Sprintf("workload: generated unparsable SQL: %v\n%s", err, sql)
}

// Word pools of the generated SQL, indexed by draws.
var (
	aliases    = [...]string{"t0", "t1", "t2", "t3", "t4", "t5"} // a monster joins up to six tables
	joinKeys   = [...]string{"id", "city_id", "dt"}
	aggFuncs   = [...]string{"COUNT", "SUM", "AVG", "MAX"}
	numOps     = [...]string{"=", "<", ">", "<=", ">=", "<>"}
	floatOps   = [...]string{"<", ">"}
	likeFrags  = [...]string{"sg", "id", "my", "ph", "th", "vn", "promo", "beta"}
	countries  = [...]string{"SG", "ID", "MY", "PH", "TH", "VN", "KH", "MM"}
	derivedCol = []Column{{Name: "id"}, {Name: "dt"}, {Name: "city_id"}}
)

// source is a FROM item a column reference can name.
type source struct {
	alias string
	table Table
}

// appendSelect appends one SELECT with random structure to dst. depth counts
// nesting levels already consumed; values below maxDepth permit further
// nesting. The text is written in SQL order but drawn in a different one —
// FROM before the projection, every WHERE clause before its conjunctions —
// so FROM and WHERE are built in local buffers first.
func (g *GrabGenerator) appendSelect(dst []byte, day, depth int, monster bool) []byte {
	const maxDepth = 2

	// FROM clause: base tables with joins, possibly a derived table.
	nJoins := g.rng.Intn(4) // 0-3 extra tables
	if monster {
		nJoins = 2 + g.rng.Intn(4)
	}
	var srcBuf [len(aliases)]source
	sources := srcBuf[:0]
	var fromBuf [512]byte
	from := fromBuf[:0]
	useSubquery := depth < maxDepth && g.rng.Float64() < 0.25
	for i := 0; i <= nJoins; i++ {
		alias := aliases[i]
		if i == 0 && useSubquery {
			// A buffer of its own: one handed down would move fromBuf to
			// the heap on every call.
			from = append(from, '(')
			from = append(from, g.appendSelect(make([]byte, 0, 256), day, depth+1, false)...)
			from = append(from, ") "...)
			from = append(from, alias...)
			// Derived tables expose the common columns only.
			sources = append(sources, source{alias: alias, table: Table{Name: alias, Columns: derivedCol}})
			continue
		}
		tbl := g.Catalog.pickTable(day, g.rng)
		sources = append(sources, source{alias: alias, table: tbl})
		if i == 0 {
			from = append(from, tbl.Name...)
			from = append(from, ' ')
			from = append(from, alias...)
			continue
		}
		from = append(from, ' ')
		if g.rng.Float64() < 0.2 {
			from = append(from, "LEFT "...)
		}
		prevAlias := sources[g.rng.Intn(i)].alias
		key := joinKeys[g.rng.Intn(len(joinKeys))]
		from = append(from, "JOIN "...)
		from = append(from, tbl.Name...)
		from = append(from, ' ')
		from = append(from, alias...)
		from = append(from, " ON "...)
		from = appendColumn(from, prevAlias, key)
		from = append(from, " = "...)
		from = appendColumn(from, alias, key)
	}

	// Projection: star, columns, or aggregate.
	dst = append(dst, "SELECT "...)
	var groupAlias, groupCol string
	agg := g.rng.Float64() < 0.35
	if agg {
		s := sources[0]
		groupAlias, groupCol = s.alias, s.table.Columns[g.rng.Intn(len(s.table.Columns))].Name
		dst = appendColumn(dst, groupAlias, groupCol)
		fn := aggFuncs[g.rng.Intn(len(aggFuncs))]
		if fn == "COUNT" {
			dst = append(dst, ", COUNT(*) AS cnt"...)
		} else {
			dst = append(dst, ", "...)
			dst = append(dst, fn...)
			dst = append(dst, '(')
			dst = appendColumn(dst, groupAlias, groupCol)
			dst = append(dst, ") AS agg_v"...)
		}
	} else if g.rng.Float64() < 0.5 {
		n := 1 + g.rng.Intn(3)
		for i := 0; i < n; i++ {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			s := sources[g.rng.Intn(len(sources))]
			dst = appendColumn(dst, s.alias, s.table.Columns[g.rng.Intn(len(s.table.Columns))].Name)
		}
	} else {
		dst = append(dst, '*')
	}
	dst = append(dst, " FROM "...)
	dst = append(dst, from...)

	// WHERE: 0-6 clauses mixing AND/OR.
	nClauses := g.rng.Intn(7)
	if monster {
		nClauses = 3 + g.rng.Intn(6)
	}
	if nClauses > 0 {
		var whereBuf [256]byte
		var endBuf [8]int
		where, ends := whereBuf[:0], endBuf[:0]
		for i := 0; i < nClauses; i++ {
			s := sources[g.rng.Intn(len(sources))]
			where = g.appendClause(where, s.alias, s.table)
			ends = append(ends, len(where))
		}
		dst = append(dst, " WHERE "...)
		dst = append(dst, where[:ends[0]]...)
		for i := 1; i < nClauses; i++ {
			if g.rng.Float64() < 0.3 {
				dst = append(dst, " OR "...)
			} else {
				dst = append(dst, " AND "...)
			}
			dst = append(dst, where[ends[i-1]:ends[i]]...)
		}
	}
	if agg {
		dst = append(dst, " GROUP BY "...)
		dst = appendColumn(dst, groupAlias, groupCol)
	}

	// ORDER BY / LIMIT.
	if !agg && g.rng.Float64() < 0.3 {
		s := sources[0]
		dst = append(dst, " ORDER BY "...)
		dst = appendColumn(dst, s.alias, s.table.Columns[g.rng.Intn(len(s.table.Columns))].Name)
		if g.rng.Float64() < 0.5 {
			dst = append(dst, " DESC"...)
		}
	}
	if g.rng.Float64() < 0.35 {
		dst = append(dst, " LIMIT "...)
		dst = strconv.AppendInt(dst, int64(10+g.rng.Intn(10000)), 10)
	}

	// UNION ALL branches. Monster queries chain many.
	unions := 0
	if monster {
		unions = 8 + g.rng.Intn(40)
	} else if depth < maxDepth && g.rng.Float64() < 0.12 {
		unions = 1 + g.rng.Intn(3)
	}
	for i := 0; i < unions; i++ {
		dst = append(dst, " UNION ALL "...)
		dst = g.appendSelect(dst, day, maxDepth, false) // flat branches
	}
	return dst
}

// appendColumn appends the qualified column reference alias.col.
func appendColumn(dst []byte, alias, col string) []byte {
	dst = append(dst, alias...)
	dst = append(dst, '.')
	return append(dst, col...)
}

// appendClause appends one atomic predicate with random value — the source
// of the workload's tens of thousands of distinct predicates.
func (g *GrabGenerator) appendClause(dst []byte, alias string, tbl Table) []byte {
	dst = appendColumn(dst, alias, tbl.Columns[g.rng.Intn(len(tbl.Columns))].Name)
	switch g.rng.Intn(10) {
	case 0, 1, 2: // comparison with numeric literal
		dst = append(dst, ' ')
		dst = append(dst, numOps[g.rng.Intn(len(numOps))]...)
		dst = append(dst, ' ')
		return strconv.AppendInt(dst, int64(g.rng.Intn(100000)), 10)
	case 3, 4: // float comparison
		dst = append(dst, ' ')
		dst = append(dst, floatOps[g.rng.Intn(len(floatOps))]...)
		dst = append(dst, ' ')
		return strconv.AppendFloat(dst, g.rng.Range(0, 1000), 'f', 2, 64)
	case 5: // IN list
		dst = append(dst, " IN ("...)
		n := 2 + g.rng.Intn(4)
		for i := 0; i < n; i++ {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = strconv.AppendInt(dst, int64(g.rng.Intn(10000)), 10)
		}
		return append(dst, ')')
	case 6: // BETWEEN
		lo := g.rng.Intn(5000)
		dst = append(dst, " BETWEEN "...)
		dst = strconv.AppendInt(dst, int64(lo), 10)
		dst = append(dst, " AND "...)
		return strconv.AppendInt(dst, int64(lo+1+g.rng.Intn(5000)), 10)
	case 7: // LIKE
		dst = append(dst, " LIKE '"...)
		dst = append(dst, likeFrags[g.rng.Intn(len(likeFrags))]...)
		return append(dst, "%'"...)
	case 8: // IS NULL / IS NOT NULL
		if g.rng.Float64() < 0.5 {
			return append(dst, " IS NULL"...)
		}
		return append(dst, " IS NOT NULL"...)
	default: // string equality
		dst = append(dst, " = '"...)
		dst = append(dst, countries[g.rng.Intn(len(countries))]...)
		return append(dst, '\'')
	}
}

// DistinctPredicates counts the unique predicate strings across traces —
// the paper's §3.3 scale metric (30,707 on Grab-Traces vs 1,450 on TPC-DS).
func DistinctPredicates(traces []*Trace) int {
	seen := map[string]bool{}
	for _, t := range traces {
		for _, p := range t.Plan.Predicates() {
			seen[p] = true
		}
	}
	return len(seen)
}
