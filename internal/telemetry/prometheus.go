package telemetry

import (
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// ExpositionLine matches one sample line of the text exposition format
// (`name value` or `name{labels} value`). It is the single Go-side
// definition of the grammar WritePrometheus emits — the golden test and
// the serve endpoint test both validate against it, so a format change
// must update writer and pattern together. scripts/e2e_smoke.sh carries a
// python transliteration of this pattern that must be kept in sync.
var ExpositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[-+]?(Inf|[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?))$`)

// statusClasses labels EndpointResponses.Classes in the exposition.
var statusClasses = [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// WritePrometheus renders a Snapshot in the Prometheus text exposition
// format (version 0.0.4), hand-rolled so the serving binary takes no client
// dependency. Metric names carry the prestroid_ prefix; every engine-level
// series carries a model label naming the serving identity, and per-shard
// series add a shard label on top. Output order is deterministic, which the
// golden test pins: scrapers don't care, but diffs and operators do.
//
// A staged (shadow/canary) bundle surfaces through
// prestroid_staged_generation, prestroid_canary_percent and the
// prestroid_shadow_* series; its per-shard internals are deliberately kept
// off the exposition (they live in the /v1/stats "staged" section) so a roll
// does not double every shard series a dashboard sums over.
func WritePrometheus(w io.Writer, s Snapshot) error {
	p := &promWriter{w: w}

	p.header("prestroid_build_info", "Build metadata of the serving binary; the value is always 1.", "gauge")
	p.printf("prestroid_build_info{go_version=%s,version=%s} 1\n",
		quoteLabel(s.GoVersion), quoteLabel(s.Version))
	p.header("prestroid_uptime_seconds", "Seconds since the server started.", "gauge")
	p.printf("prestroid_uptime_seconds %s\n", formatFloat(s.UptimeSeconds))
	p.header("prestroid_go_goroutines", "Goroutines at scrape time.", "gauge")
	p.printf("prestroid_go_goroutines %d\n", s.Goroutines)

	p.header("prestroid_requests_total", "Serving requests received (predict/explain; admin traffic excluded).", "counter")
	p.printf("prestroid_requests_total %d\n", s.Requests)
	p.header("prestroid_request_errors_total", "Serving requests answered with an error status.", "counter")
	p.printf("prestroid_request_errors_total %d\n", s.Errors)
	p.header("prestroid_request_throttled_total", "Serving requests refused by per-client quotas (429 before reaching the engine).", "counter")
	p.printf("prestroid_request_throttled_total %d\n", s.Throttled)

	p.header("prestroid_request_latency_seconds", "Serving-request latency over every terminal path.", "histogram")
	p.histogram("prestroid_request_latency_seconds", "", s.Latency, 1e6)

	p.header("prestroid_http_responses_total", "Responses by endpoint and status class, covering every route.", "counter")
	for _, ep := range s.Responses {
		for c, n := range ep.Classes {
			if n > 0 {
				p.printf("prestroid_http_responses_total{endpoint=%s,status=%q} %d\n",
					quoteLabel(ep.Endpoint), statusClasses[c], n)
			}
		}
	}

	ms := s.Models
	var flushPanics int64
	for _, m := range ms {
		for _, sh := range m.Engine.Shards {
			flushPanics += sh.Panics
		}
	}
	p.header("prestroid_panics_total", "Panics recovered by the live engines, by where: flush is a batcher's model round trip, whose queries answered 500.", "counter")
	p.printf("prestroid_panics_total{where=\"flush\"} %d\n", flushPanics)

	p.header("prestroid_model_state", "Roll state of each serving identity (live, shadow or canary); the value is always 1.", "gauge")
	for _, m := range ms {
		p.printf("prestroid_model_state{model=%s,state=%s} 1\n", quoteLabel(m.Name), quoteLabel(m.State))
	}
	p.header("prestroid_generation", "Predictor-identity generation completed on every shard, per model.", "gauge")
	for _, m := range ms {
		p.printf("prestroid_generation{model=%s} %d\n", quoteLabel(m.Name), m.Engine.Generation)
	}
	p.header("prestroid_staged_generation", "Generation of the staged shadow/canary bundle; no series when no roll is pending.", "gauge")
	for _, m := range ms {
		if m.Staged != nil {
			p.printf("prestroid_staged_generation{model=%s} %d\n", quoteLabel(m.Name), m.Staged.Generation)
		}
	}
	p.header("prestroid_canary_percent", "Keyspace percentage routed to the staged bundle; no series unless a canary is pending.", "gauge")
	for _, m := range ms {
		if m.State == "canary" {
			p.printf("prestroid_canary_percent{model=%s} %d\n", quoteLabel(m.Name), m.Percent)
		}
	}
	p.header("prestroid_reloads_total", "Completed bundle rolls (weight-only or full), per model.", "counter")
	for _, m := range ms {
		p.printf("prestroid_reloads_total{model=%s} %d\n", quoteLabel(m.Name), m.Engine.Reloads)
	}
	p.header("prestroid_reload_rejected_total", "Reload attempts rejected before touching any replica, per model.", "counter")
	for _, m := range ms {
		p.printf("prestroid_reload_rejected_total{model=%s} %d\n", quoteLabel(m.Name), m.Engine.RejectedBundles)
	}
	p.header("prestroid_model_promotions_total", "Staged rolls promoted to live, per model.", "counter")
	for _, m := range ms {
		p.printf("prestroid_model_promotions_total{model=%s} %d\n", quoteLabel(m.Name), m.Promotions)
	}
	p.header("prestroid_model_aborts_total", "Staged rolls aborted, per model.", "counter")
	for _, m := range ms {
		p.printf("prestroid_model_aborts_total{model=%s} %d\n", quoteLabel(m.Name), m.Aborts)
	}
	p.header("prestroid_model_parameters", "Parameter count of the live model identity.", "gauge")
	for _, m := range ms {
		p.printf("prestroid_model_parameters{model=%s,architecture=%s} %d\n",
			quoteLabel(m.Name), quoteLabel(m.Engine.ModelName), m.Engine.Params)
	}
	p.header("prestroid_shards", "Live shard (model replica) count, per model.", "gauge")
	for _, m := range ms {
		p.printf("prestroid_shards{model=%s} %d\n", quoteLabel(m.Name), len(m.Engine.Shards))
	}

	p.shardSeries("prestroid_shard_batches_total", "Coalesced batches flushed, per shard.", "counter",
		ms, func(s ShardSnapshot) int64 { return s.Batches })
	p.shardSeries("prestroid_shard_coalesced_total", "Queries served through flushed batches, per shard.", "counter",
		ms, func(s ShardSnapshot) int64 { return s.Coalesced })
	p.header("prestroid_shard_batch_size", "Deduplicated rows per flushed batch, per shard.", "histogram")
	for _, m := range ms {
		for _, sh := range m.Engine.Shards {
			p.histogram("prestroid_shard_batch_size",
				fmt.Sprintf(`model=%s,shard="%d"`, quoteLabel(m.Name), sh.Shard), sh.BatchSizes, 1)
		}
	}
	p.shardSeries("prestroid_shard_cache_hits_total", "Prediction-cache hits, per shard.", "counter",
		ms, func(s ShardSnapshot) int64 { return s.CacheHits })
	p.shardSeries("prestroid_shard_cache_misses_total", "Prediction-cache misses, per shard.", "counter",
		ms, func(s ShardSnapshot) int64 { return s.CacheMisses })
	p.shardSeries("prestroid_shard_cache_entries", "Live prediction-cache entries, per shard.", "gauge",
		ms, func(s ShardSnapshot) int64 { return int64(s.CacheEntries) })
	p.shardSeries("prestroid_shard_subtree_cache_hits_total", "Sub-tree convolution cache hits, per shard.", "counter",
		ms, func(s ShardSnapshot) int64 { return s.SubtreeHits })
	p.shardSeries("prestroid_shard_subtree_cache_misses_total", "Sub-tree convolutions computed (cache misses), per shard.", "counter",
		ms, func(s ShardSnapshot) int64 { return s.SubtreeMisses })
	p.shardSeries("prestroid_shard_subtree_cache_entries", "Live sub-tree cache entries, per shard.", "gauge",
		ms, func(s ShardSnapshot) int64 { return int64(s.SubtreeEntries) })
	p.shardSeries("prestroid_shard_subtree_cache_bytes", "Payload bytes held by the sub-tree cache, per shard.", "gauge",
		ms, func(s ShardSnapshot) int64 { return s.SubtreeBytes })
	p.shardSeries("prestroid_shard_template_cache_hits_total", "Front-end passes replaced by a prepared-template rebind, per shard.", "counter",
		ms, func(s ShardSnapshot) int64 { return s.TemplateHits })
	p.shardSeries("prestroid_shard_template_cache_misses_total", "Full lex/parse/plan/featurize passes (template-cache misses), per shard.", "counter",
		ms, func(s ShardSnapshot) int64 { return s.TemplateMisses })
	p.shardSeries("prestroid_shard_template_cache_entries", "Live prepared-template entries, per shard.", "gauge",
		ms, func(s ShardSnapshot) int64 { return int64(s.TemplateEntries) })
	p.shardSeries("prestroid_shard_template_cache_bytes", "Payload bytes held by the prepared-template cache, per shard.", "gauge",
		ms, func(s ShardSnapshot) int64 { return s.TemplateBytes })
	p.shardSeries("prestroid_shard_queue_depth", "Jobs waiting in the batcher queue, per shard.", "gauge",
		ms, func(s ShardSnapshot) int64 { return int64(s.Queued) })
	p.shardSeries("prestroid_shard_generation", "Predictor-identity generation serving on each shard.", "gauge",
		ms, func(s ShardSnapshot) int64 { return s.Generation })
	p.shardSeries("prestroid_shard_shed_total", "Queries refused by bounded-wait admission control, per home shard.", "counter",
		ms, func(s ShardSnapshot) int64 { return s.Shed })
	p.shardSeries("prestroid_shard_expired_total", "Queries dropped because their deadline passed, per shard.", "counter",
		ms, func(s ShardSnapshot) int64 { return s.Expired })
	p.shardFloatSeries("prestroid_shard_service_time_seconds", "EWMA per-query drain time through the shard's batcher (0 until the first flush).", "gauge",
		ms, func(s ShardSnapshot) float64 { return s.ServiceTimeMicros / 1e6 })
	p.shardFloatSeries("prestroid_shard_est_wait_seconds", "Estimated wait for new work: queue depth times EWMA service time, per shard.", "gauge",
		ms, func(s ShardSnapshot) float64 { return s.EstWaitMicros / 1e6 })

	p.header("prestroid_shadow_mirrored_total", "Live requests the staged shadow bundle re-predicted off the hot path.", "counter")
	for _, m := range ms {
		if m.Shadow != nil {
			p.printf("prestroid_shadow_mirrored_total{model=%s} %d\n", quoteLabel(m.Name), m.Shadow.Mirrored)
		}
	}
	p.header("prestroid_shadow_dropped_total", "Mirror candidates skipped because the mirror's bounded concurrency was exhausted.", "counter")
	for _, m := range ms {
		if m.Shadow != nil {
			p.printf("prestroid_shadow_dropped_total{model=%s} %d\n", quoteLabel(m.Name), m.Shadow.Dropped)
		}
	}
	p.header("prestroid_shadow_errors_total", "Mirrored predictions the staged bundle failed.", "counter")
	for _, m := range ms {
		if m.Shadow != nil {
			p.printf("prestroid_shadow_errors_total{model=%s} %d\n", quoteLabel(m.Name), m.Shadow.Errors)
		}
	}
	p.header("prestroid_shadow_output_delta_minutes", "Absolute output delta |staged - live| in CPU-minutes over mirrored predictions.", "histogram")
	for _, m := range ms {
		if m.Shadow != nil {
			p.histogram("prestroid_shadow_output_delta_minutes",
				"model="+quoteLabel(m.Name), m.Shadow.Delta, 1e6)
		}
	}
	p.header("prestroid_shadow_output_delta_max_minutes", "Worst absolute output delta observed during the shadow roll.", "gauge")
	for _, m := range ms {
		if m.Shadow != nil {
			p.printf("prestroid_shadow_output_delta_max_minutes{model=%s} %s\n",
				quoteLabel(m.Name), formatFloat(m.Shadow.DeltaMax))
		}
	}
	p.header("prestroid_shadow_latency_seconds", "Per-prediction latency of the staged shadow bundle over mirrored requests.", "histogram")
	for _, m := range ms {
		if m.Shadow != nil {
			p.histogram("prestroid_shadow_latency_seconds",
				"model="+quoteLabel(m.Name), m.Shadow.ShadowLatency, 1e6)
		}
	}
	p.header("prestroid_shadow_live_latency_seconds", "Live-model latency of the same mirrored requests, for delta comparison.", "histogram")
	for _, m := range ms {
		if m.Shadow != nil {
			p.histogram("prestroid_shadow_live_latency_seconds",
				"model="+quoteLabel(m.Name), m.Shadow.LiveLatency, 1e6)
		}
	}
	return p.err
}

// promWriter accumulates the first write error so callers check once.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *promWriter) header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// shardSeries writes one HELP/TYPE header and a model+shard-labelled series
// per live-engine shard of every model, so every per-shard metric shares one
// emission path.
func (p *promWriter) shardSeries(name, help, typ string, models []ModelSnapshot, value func(ShardSnapshot) int64) {
	p.header(name, help, typ)
	for _, m := range models {
		for _, sh := range m.Engine.Shards {
			p.printf("%s{model=%s,shard=\"%d\"} %d\n", name, quoteLabel(m.Name), sh.Shard, value(sh))
		}
	}
}

// shardFloatSeries is shardSeries for float-valued gauges, rendered with the
// same shortest-round-trip float syntax as every other float in the
// exposition.
func (p *promWriter) shardFloatSeries(name, help, typ string, models []ModelSnapshot, value func(ShardSnapshot) float64) {
	p.header(name, help, typ)
	for _, m := range models {
		for _, sh := range m.Engine.Shards {
			p.printf("%s{model=%s,shard=\"%d\"} %s\n", name, quoteLabel(m.Name), sh.Shard, formatFloat(value(sh)))
		}
	}
}

// histogram writes the cumulative bucket/sum/count series of one histogram.
// scale divides observed values into exposition units (1e6 for
// microseconds→seconds); extraLabel, when non-empty, is prepended inside
// every series' label set.
func (p *promWriter) histogram(name, extraLabel string, h HistogramSnapshot, scale float64) {
	open, suffix := "{", ""
	if extraLabel != "" {
		open = "{" + extraLabel + ","
		suffix = "{" + extraLabel + "}"
	}
	var cum uint64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		p.printf("%s_bucket%sle=%q} %d\n", name, open,
			formatFloat(float64(bound)/scale), cum)
	}
	if len(h.Counts) > 0 {
		cum += h.Counts[len(h.Counts)-1]
	}
	p.printf("%s_bucket%sle=\"+Inf\"} %d\n", name, open, cum)
	p.printf("%s_sum%s %s\n", name, suffix, formatFloat(float64(h.Sum)/scale))
	p.printf("%s_count%s %d\n", name, suffix, cum)
}

// formatFloat renders a float the shortest way that round-trips, matching
// the exposition format's number syntax.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelEscaper rewrites exactly the three sequences the exposition format
// defines for label values. Anything else — tabs, control bytes, UTF-8 —
// passes through raw, as the format requires; strconv.Quote would emit
// \t/\xNN escapes Prometheus parsers reject.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// quoteLabel escapes a label value per the exposition format and wraps it
// in double quotes.
func quoteLabel(v string) string { return `"` + labelEscaper.Replace(v) + `"` }
