package serve

import (
	"unsafe"

	"prestroid/internal/telemetry"
)

// templateCache is the template cache of an engine that answers templates
// (see ShardedEngine.tmplCache), keyed by the query's template key
// (sqlparse.TemplateKey). An entry is an answer: the prediction every literal
// variant of the template gets — the normalised model output with the plan
// shape every variant plans to, taken from the query whose model call
// deposited it. The encoder strips every literal value before embedding, so
// every variant encodes to the same trees and the model gives them the same
// answer: from the second prediction on, a template costs its key scan and
// this lookup (see ShardedEngine.predictKey). The answer is
// weight-dependent, and safe to keep for the cache's whole life because the
// cache belongs to one engine and an engine serves one identity: no answer
// crosses a roll. An entry is its key and a Prediction.
type templateCache = lru[string, Prediction]

func newTemplateCache(max int, hits, misses *telemetry.Counter) *templateCache {
	return newLRU(max, hits, misses, nil, templateBytes)
}

// templateBytes prices an entry for the bytes gauge: its key and its answer.
func templateBytes(key string, _ Prediction) int64 {
	return int64(len(key)) + int64(unsafe.Sizeof(Prediction{}))
}
