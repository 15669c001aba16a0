package telemetry

import (
	"strings"
	"testing"
)

// goldenSnapshot builds a fully-populated fixed snapshot: a default model in
// live state plus a second identity mid-shadow-roll, so the golden text pins
// the model labelling, the staged-roll series and the shadow-delta series in
// one place. The latency and delta histograms use small bucket sets so the
// golden text stays readable; the shard histograms use the real batch
// buckets.
func goldenSnapshot() Snapshot {
	lat := NewHistogram([]int64{1000, 10000, 100000})
	lat.Observe(500)
	lat.Observe(2000)
	lat.Observe(2_000_000)

	bs0 := NewHistogram(BatchBuckets())
	for _, v := range []int64{1, 1, 1, 2, 5} {
		bs0.Observe(v)
	}
	bs1 := NewHistogram(BatchBuckets())
	bs1.Observe(1)
	bs1.Observe(1)
	bsBeta := NewHistogram(BatchBuckets())

	delta := NewHistogram([]int64{1000, 1000000})
	delta.Observe(500)
	delta.Observe(2000)
	shadowLat := NewHistogram([]int64{1000, 10000})
	shadowLat.Observe(800)
	shadowLat.Observe(1200)
	liveLat := NewHistogram([]int64{1000, 10000})
	liveLat.Observe(500)

	return Snapshot{
		UptimeSeconds: 12.5,
		GoVersion:     "go1.24.0",
		Version:       "(devel)",
		Goroutines:    9,
		Requests:      42,
		Errors:        3,
		Throttled:     2,
		Latency:       lat.Snapshot(),
		Responses: []EndpointResponses{
			{Endpoint: "/v1/predict", Classes: [5]int64{0, 40, 0, 2, 0}},
			{Endpoint: "/v1/stats", Classes: [5]int64{0, 1, 0, 0, 0}},
			{Endpoint: "/healthz"}, // all-zero: no series emitted
		},
		Models: []ModelSnapshot{
			{
				Name:       "default",
				State:      "live",
				Promotions: 1,
				Engine: EngineSnapshot{
					Generation:      2,
					Reloads:         1,
					RejectedBundles: 1,
					ModelName:       "prestroid",
					Params:          12345,
					Shards: []ShardSnapshot{
						{Shard: 0, Batches: 5, Coalesced: 9, BatchSizes: bs0.Snapshot(),
							CacheHits: 7, CacheMisses: 5, CacheEntries: 4,
							SubtreeHits: 11, SubtreeMisses: 6, SubtreeEntries: 3, SubtreeBytes: 384,
							TemplateHits: 9, TemplateMisses: 4, TemplateEntries: 2, TemplateBytes: 512,
							Shed: 3, Expired: 1, Panics: 1, ServiceTimeMicros: 1500, EstWaitMicros: 1500,
							Queued: 1, Generation: 2},
						{Shard: 1, Batches: 2, Coalesced: 2, BatchSizes: bs1.Snapshot(),
							CacheMisses: 2, CacheEntries: 2,
							SubtreeMisses: 2, SubtreeEntries: 2, SubtreeBytes: 256,
							TemplateMisses: 1, TemplateEntries: 1, TemplateBytes: 128,
							Generation: 2},
					},
				},
			},
			{
				Name:   "beta",
				State:  "shadow",
				Aborts: 1,
				Engine: EngineSnapshot{
					Generation: 1,
					ModelName:  "prestroid",
					Params:     12345,
					Shards: []ShardSnapshot{
						{Shard: 0, BatchSizes: bsBeta.Snapshot(), Generation: 1},
					},
				},
				Staged: &EngineSnapshot{Generation: 2},
				Shadow: &ShadowSnapshot{
					Mirrored:      6,
					Dropped:       1,
					Errors:        1,
					Delta:         delta.Snapshot(),
					DeltaMax:      0.002,
					ShadowLatency: shadowLat.Snapshot(),
					LiveLatency:   liveLat.Snapshot(),
				},
			},
		},
	}
}

// goldenExposition pins the exact exposition output: metric names, HELP and
// TYPE lines, label sets (model and shard labels included) and value
// formatting. A diff here means the scrape contract changed — rename
// dashboards and alerts along with it.
const goldenExposition = `# HELP prestroid_build_info Build metadata of the serving binary; the value is always 1.
# TYPE prestroid_build_info gauge
prestroid_build_info{go_version="go1.24.0",version="(devel)"} 1
# HELP prestroid_uptime_seconds Seconds since the server started.
# TYPE prestroid_uptime_seconds gauge
prestroid_uptime_seconds 12.5
# HELP prestroid_go_goroutines Goroutines at scrape time.
# TYPE prestroid_go_goroutines gauge
prestroid_go_goroutines 9
# HELP prestroid_requests_total Serving requests received (predict/explain; admin traffic excluded).
# TYPE prestroid_requests_total counter
prestroid_requests_total 42
# HELP prestroid_request_errors_total Serving requests answered with an error status.
# TYPE prestroid_request_errors_total counter
prestroid_request_errors_total 3
# HELP prestroid_request_throttled_total Serving requests refused by per-client quotas (429 before reaching the engine).
# TYPE prestroid_request_throttled_total counter
prestroid_request_throttled_total 2
# HELP prestroid_request_latency_seconds Serving-request latency over every terminal path.
# TYPE prestroid_request_latency_seconds histogram
prestroid_request_latency_seconds_bucket{le="0.001"} 1
prestroid_request_latency_seconds_bucket{le="0.01"} 2
prestroid_request_latency_seconds_bucket{le="0.1"} 2
prestroid_request_latency_seconds_bucket{le="+Inf"} 3
prestroid_request_latency_seconds_sum 2.0025
prestroid_request_latency_seconds_count 3
# HELP prestroid_http_responses_total Responses by endpoint and status class, covering every route.
# TYPE prestroid_http_responses_total counter
prestroid_http_responses_total{endpoint="/v1/predict",status="2xx"} 40
prestroid_http_responses_total{endpoint="/v1/predict",status="4xx"} 2
prestroid_http_responses_total{endpoint="/v1/stats",status="2xx"} 1
# HELP prestroid_panics_total Panics recovered by the live engines, by where: flush is a batcher's model round trip, whose queries answered 500.
# TYPE prestroid_panics_total counter
prestroid_panics_total{where="flush"} 1
# HELP prestroid_model_state Roll state of each serving identity (live, shadow or canary); the value is always 1.
# TYPE prestroid_model_state gauge
prestroid_model_state{model="default",state="live"} 1
prestroid_model_state{model="beta",state="shadow"} 1
# HELP prestroid_generation Predictor-identity generation completed on every shard, per model.
# TYPE prestroid_generation gauge
prestroid_generation{model="default"} 2
prestroid_generation{model="beta"} 1
# HELP prestroid_staged_generation Generation of the staged shadow/canary bundle; no series when no roll is pending.
# TYPE prestroid_staged_generation gauge
prestroid_staged_generation{model="beta"} 2
# HELP prestroid_canary_percent Keyspace percentage routed to the staged bundle; no series unless a canary is pending.
# TYPE prestroid_canary_percent gauge
# HELP prestroid_reloads_total Completed bundle rolls (weight-only or full), per model.
# TYPE prestroid_reloads_total counter
prestroid_reloads_total{model="default"} 1
prestroid_reloads_total{model="beta"} 0
# HELP prestroid_reload_rejected_total Reload attempts rejected before touching any replica, per model.
# TYPE prestroid_reload_rejected_total counter
prestroid_reload_rejected_total{model="default"} 1
prestroid_reload_rejected_total{model="beta"} 0
# HELP prestroid_model_promotions_total Staged rolls promoted to live, per model.
# TYPE prestroid_model_promotions_total counter
prestroid_model_promotions_total{model="default"} 1
prestroid_model_promotions_total{model="beta"} 0
# HELP prestroid_model_aborts_total Staged rolls aborted, per model.
# TYPE prestroid_model_aborts_total counter
prestroid_model_aborts_total{model="default"} 0
prestroid_model_aborts_total{model="beta"} 1
# HELP prestroid_model_parameters Parameter count of the live model identity.
# TYPE prestroid_model_parameters gauge
prestroid_model_parameters{model="default",architecture="prestroid"} 12345
prestroid_model_parameters{model="beta",architecture="prestroid"} 12345
# HELP prestroid_shards Live shard (model replica) count, per model.
# TYPE prestroid_shards gauge
prestroid_shards{model="default"} 2
prestroid_shards{model="beta"} 1
# HELP prestroid_shard_batches_total Coalesced batches flushed, per shard.
# TYPE prestroid_shard_batches_total counter
prestroid_shard_batches_total{model="default",shard="0"} 5
prestroid_shard_batches_total{model="default",shard="1"} 2
prestroid_shard_batches_total{model="beta",shard="0"} 0
# HELP prestroid_shard_coalesced_total Queries served through flushed batches, per shard.
# TYPE prestroid_shard_coalesced_total counter
prestroid_shard_coalesced_total{model="default",shard="0"} 9
prestroid_shard_coalesced_total{model="default",shard="1"} 2
prestroid_shard_coalesced_total{model="beta",shard="0"} 0
# HELP prestroid_shard_batch_size Deduplicated rows per flushed batch, per shard.
# TYPE prestroid_shard_batch_size histogram
prestroid_shard_batch_size_bucket{model="default",shard="0",le="1"} 3
prestroid_shard_batch_size_bucket{model="default",shard="0",le="2"} 4
prestroid_shard_batch_size_bucket{model="default",shard="0",le="4"} 4
prestroid_shard_batch_size_bucket{model="default",shard="0",le="8"} 5
prestroid_shard_batch_size_bucket{model="default",shard="0",le="16"} 5
prestroid_shard_batch_size_bucket{model="default",shard="0",le="32"} 5
prestroid_shard_batch_size_bucket{model="default",shard="0",le="+Inf"} 5
prestroid_shard_batch_size_sum{model="default",shard="0"} 10
prestroid_shard_batch_size_count{model="default",shard="0"} 5
prestroid_shard_batch_size_bucket{model="default",shard="1",le="1"} 2
prestroid_shard_batch_size_bucket{model="default",shard="1",le="2"} 2
prestroid_shard_batch_size_bucket{model="default",shard="1",le="4"} 2
prestroid_shard_batch_size_bucket{model="default",shard="1",le="8"} 2
prestroid_shard_batch_size_bucket{model="default",shard="1",le="16"} 2
prestroid_shard_batch_size_bucket{model="default",shard="1",le="32"} 2
prestroid_shard_batch_size_bucket{model="default",shard="1",le="+Inf"} 2
prestroid_shard_batch_size_sum{model="default",shard="1"} 2
prestroid_shard_batch_size_count{model="default",shard="1"} 2
prestroid_shard_batch_size_bucket{model="beta",shard="0",le="1"} 0
prestroid_shard_batch_size_bucket{model="beta",shard="0",le="2"} 0
prestroid_shard_batch_size_bucket{model="beta",shard="0",le="4"} 0
prestroid_shard_batch_size_bucket{model="beta",shard="0",le="8"} 0
prestroid_shard_batch_size_bucket{model="beta",shard="0",le="16"} 0
prestroid_shard_batch_size_bucket{model="beta",shard="0",le="32"} 0
prestroid_shard_batch_size_bucket{model="beta",shard="0",le="+Inf"} 0
prestroid_shard_batch_size_sum{model="beta",shard="0"} 0
prestroid_shard_batch_size_count{model="beta",shard="0"} 0
# HELP prestroid_shard_cache_hits_total Prediction-cache hits, per shard.
# TYPE prestroid_shard_cache_hits_total counter
prestroid_shard_cache_hits_total{model="default",shard="0"} 7
prestroid_shard_cache_hits_total{model="default",shard="1"} 0
prestroid_shard_cache_hits_total{model="beta",shard="0"} 0
# HELP prestroid_shard_cache_misses_total Prediction-cache misses, per shard.
# TYPE prestroid_shard_cache_misses_total counter
prestroid_shard_cache_misses_total{model="default",shard="0"} 5
prestroid_shard_cache_misses_total{model="default",shard="1"} 2
prestroid_shard_cache_misses_total{model="beta",shard="0"} 0
# HELP prestroid_shard_cache_entries Live prediction-cache entries, per shard.
# TYPE prestroid_shard_cache_entries gauge
prestroid_shard_cache_entries{model="default",shard="0"} 4
prestroid_shard_cache_entries{model="default",shard="1"} 2
prestroid_shard_cache_entries{model="beta",shard="0"} 0
# HELP prestroid_shard_subtree_cache_hits_total Sub-tree convolution cache hits, per shard.
# TYPE prestroid_shard_subtree_cache_hits_total counter
prestroid_shard_subtree_cache_hits_total{model="default",shard="0"} 11
prestroid_shard_subtree_cache_hits_total{model="default",shard="1"} 0
prestroid_shard_subtree_cache_hits_total{model="beta",shard="0"} 0
# HELP prestroid_shard_subtree_cache_misses_total Sub-tree convolutions computed (cache misses), per shard.
# TYPE prestroid_shard_subtree_cache_misses_total counter
prestroid_shard_subtree_cache_misses_total{model="default",shard="0"} 6
prestroid_shard_subtree_cache_misses_total{model="default",shard="1"} 2
prestroid_shard_subtree_cache_misses_total{model="beta",shard="0"} 0
# HELP prestroid_shard_subtree_cache_entries Live sub-tree cache entries, per shard.
# TYPE prestroid_shard_subtree_cache_entries gauge
prestroid_shard_subtree_cache_entries{model="default",shard="0"} 3
prestroid_shard_subtree_cache_entries{model="default",shard="1"} 2
prestroid_shard_subtree_cache_entries{model="beta",shard="0"} 0
# HELP prestroid_shard_subtree_cache_bytes Payload bytes held by the sub-tree cache, per shard.
# TYPE prestroid_shard_subtree_cache_bytes gauge
prestroid_shard_subtree_cache_bytes{model="default",shard="0"} 384
prestroid_shard_subtree_cache_bytes{model="default",shard="1"} 256
prestroid_shard_subtree_cache_bytes{model="beta",shard="0"} 0
# HELP prestroid_shard_template_cache_hits_total Front-end passes replaced by a prepared-template rebind, per shard.
# TYPE prestroid_shard_template_cache_hits_total counter
prestroid_shard_template_cache_hits_total{model="default",shard="0"} 9
prestroid_shard_template_cache_hits_total{model="default",shard="1"} 0
prestroid_shard_template_cache_hits_total{model="beta",shard="0"} 0
# HELP prestroid_shard_template_cache_misses_total Full lex/parse/plan/featurize passes (template-cache misses), per shard.
# TYPE prestroid_shard_template_cache_misses_total counter
prestroid_shard_template_cache_misses_total{model="default",shard="0"} 4
prestroid_shard_template_cache_misses_total{model="default",shard="1"} 1
prestroid_shard_template_cache_misses_total{model="beta",shard="0"} 0
# HELP prestroid_shard_template_cache_entries Live prepared-template entries, per shard.
# TYPE prestroid_shard_template_cache_entries gauge
prestroid_shard_template_cache_entries{model="default",shard="0"} 2
prestroid_shard_template_cache_entries{model="default",shard="1"} 1
prestroid_shard_template_cache_entries{model="beta",shard="0"} 0
# HELP prestroid_shard_template_cache_bytes Payload bytes held by the prepared-template cache, per shard.
# TYPE prestroid_shard_template_cache_bytes gauge
prestroid_shard_template_cache_bytes{model="default",shard="0"} 512
prestroid_shard_template_cache_bytes{model="default",shard="1"} 128
prestroid_shard_template_cache_bytes{model="beta",shard="0"} 0
# HELP prestroid_shard_queue_depth Jobs waiting in the batcher queue, per shard.
# TYPE prestroid_shard_queue_depth gauge
prestroid_shard_queue_depth{model="default",shard="0"} 1
prestroid_shard_queue_depth{model="default",shard="1"} 0
prestroid_shard_queue_depth{model="beta",shard="0"} 0
# HELP prestroid_shard_generation Predictor-identity generation serving on each shard.
# TYPE prestroid_shard_generation gauge
prestroid_shard_generation{model="default",shard="0"} 2
prestroid_shard_generation{model="default",shard="1"} 2
prestroid_shard_generation{model="beta",shard="0"} 1
# HELP prestroid_shard_shed_total Queries refused by bounded-wait admission control, per home shard.
# TYPE prestroid_shard_shed_total counter
prestroid_shard_shed_total{model="default",shard="0"} 3
prestroid_shard_shed_total{model="default",shard="1"} 0
prestroid_shard_shed_total{model="beta",shard="0"} 0
# HELP prestroid_shard_expired_total Queries dropped because their deadline passed, per shard.
# TYPE prestroid_shard_expired_total counter
prestroid_shard_expired_total{model="default",shard="0"} 1
prestroid_shard_expired_total{model="default",shard="1"} 0
prestroid_shard_expired_total{model="beta",shard="0"} 0
# HELP prestroid_shard_service_time_seconds EWMA per-query drain time through the shard's batcher (0 until the first flush).
# TYPE prestroid_shard_service_time_seconds gauge
prestroid_shard_service_time_seconds{model="default",shard="0"} 0.0015
prestroid_shard_service_time_seconds{model="default",shard="1"} 0
prestroid_shard_service_time_seconds{model="beta",shard="0"} 0
# HELP prestroid_shard_est_wait_seconds Estimated wait for new work: queue depth times EWMA service time, per shard.
# TYPE prestroid_shard_est_wait_seconds gauge
prestroid_shard_est_wait_seconds{model="default",shard="0"} 0.0015
prestroid_shard_est_wait_seconds{model="default",shard="1"} 0
prestroid_shard_est_wait_seconds{model="beta",shard="0"} 0
# HELP prestroid_shadow_mirrored_total Live requests the staged shadow bundle re-predicted off the hot path.
# TYPE prestroid_shadow_mirrored_total counter
prestroid_shadow_mirrored_total{model="beta"} 6
# HELP prestroid_shadow_dropped_total Mirror candidates skipped because the mirror's bounded concurrency was exhausted.
# TYPE prestroid_shadow_dropped_total counter
prestroid_shadow_dropped_total{model="beta"} 1
# HELP prestroid_shadow_errors_total Mirrored predictions the staged bundle failed.
# TYPE prestroid_shadow_errors_total counter
prestroid_shadow_errors_total{model="beta"} 1
# HELP prestroid_shadow_output_delta_minutes Absolute output delta |staged - live| in CPU-minutes over mirrored predictions.
# TYPE prestroid_shadow_output_delta_minutes histogram
prestroid_shadow_output_delta_minutes_bucket{model="beta",le="0.001"} 1
prestroid_shadow_output_delta_minutes_bucket{model="beta",le="1"} 2
prestroid_shadow_output_delta_minutes_bucket{model="beta",le="+Inf"} 2
prestroid_shadow_output_delta_minutes_sum{model="beta"} 0.0025
prestroid_shadow_output_delta_minutes_count{model="beta"} 2
# HELP prestroid_shadow_output_delta_max_minutes Worst absolute output delta observed during the shadow roll.
# TYPE prestroid_shadow_output_delta_max_minutes gauge
prestroid_shadow_output_delta_max_minutes{model="beta"} 0.002
# HELP prestroid_shadow_latency_seconds Per-prediction latency of the staged shadow bundle over mirrored requests.
# TYPE prestroid_shadow_latency_seconds histogram
prestroid_shadow_latency_seconds_bucket{model="beta",le="0.001"} 1
prestroid_shadow_latency_seconds_bucket{model="beta",le="0.01"} 2
prestroid_shadow_latency_seconds_bucket{model="beta",le="+Inf"} 2
prestroid_shadow_latency_seconds_sum{model="beta"} 0.002
prestroid_shadow_latency_seconds_count{model="beta"} 2
# HELP prestroid_shadow_live_latency_seconds Live-model latency of the same mirrored requests, for delta comparison.
# TYPE prestroid_shadow_live_latency_seconds histogram
prestroid_shadow_live_latency_seconds_bucket{model="beta",le="0.001"} 1
prestroid_shadow_live_latency_seconds_bucket{model="beta",le="0.01"} 1
prestroid_shadow_live_latency_seconds_bucket{model="beta",le="+Inf"} 1
prestroid_shadow_live_latency_seconds_sum{model="beta"} 0.0005
prestroid_shadow_live_latency_seconds_count{model="beta"} 1
`

func TestWritePrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got != goldenExposition {
		gotLines := strings.Split(got, "\n")
		wantLines := strings.Split(goldenExposition, "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("exposition diverges at line %d:\n got: %q\nwant: %q", i+1, g, w)
			}
		}
		t.Fatal("exposition differs from golden")
	}
}

func TestWritePrometheusParses(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for i, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !ExpositionLine.MatchString(line) {
			t.Fatalf("line %d does not parse as exposition format: %q", i+1, line)
		}
		names[strings.FieldsFunc(line, func(r rune) bool { return r == '{' || r == ' ' })[0]] = true
	}
	for _, name := range []string{
		"prestroid_requests_total",
		"prestroid_request_latency_seconds_bucket",
		"prestroid_shard_generation",
		"prestroid_reload_rejected_total",
		"prestroid_model_state",
		"prestroid_staged_generation",
		"prestroid_shadow_mirrored_total",
		"prestroid_shadow_output_delta_minutes_bucket",
	} {
		if !names[name] {
			t.Fatalf("expected metric %s in exposition", name)
		}
	}
	// Every metric carries the namespace prefix.
	for name := range names {
		if !strings.HasPrefix(name, "prestroid_") {
			t.Fatalf("metric %s missing prestroid_ prefix", name)
		}
	}
}

// TestWritePrometheusEscaping pins label-value escaping: the exposition
// format defines exactly three escapes (backslash, double quote, newline);
// anything else — here a tab — must pass through raw, because \t-style
// escapes are rejected by Prometheus parsers.
func TestWritePrometheusEscaping(t *testing.T) {
	s := goldenSnapshot()
	s.Models[0].Engine.ModelName = "we\"ird\\na\tme\n"
	var b strings.Builder
	if err := WritePrometheus(&b, s); err != nil {
		t.Fatal(err)
	}
	want := `prestroid_model_parameters{model="default",architecture="we\"ird\\na` + "\t" + `me\n"} 12345`
	if !strings.Contains(b.String(), want+"\n") {
		t.Fatalf("escaped series not found; want %q in exposition", want)
	}
	for _, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !ExpositionLine.MatchString(line) {
			t.Fatalf("escaped label broke the format: %q", line)
		}
	}
}
