package persist

import (
	"fmt"
	"sort"

	"prestroid/internal/models"
	"prestroid/internal/otp"
	"prestroid/internal/word2vec"
)

// pipelineBundle is the on-disk pipeline representation, the pipeline
// section of a full bundle.
type pipelineBundle struct {
	Version          int
	W2V              *word2vec.Snapshot
	Tables           []string
	MeanPooling      bool
	HashedPredicates bool
}

// newPipelineBundle captures a pipeline's persistent state: the pipeline
// section of a full bundle.
func newPipelineBundle(p *models.Pipeline) pipelineBundle {
	tables := make([]string, 0, len(p.Enc.TableIndex))
	for t := range p.Enc.TableIndex {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	return pipelineBundle{
		Version:          formatVersion,
		W2V:              p.W2V.Snapshot(),
		Tables:           tables,
		MeanPooling:      p.Enc.MeanPooling,
		HashedPredicates: p.Enc.HashedPredicates,
	}
}

// pipelineFromBundle reconstructs a pipeline from its persisted form. The
// restored pipeline encodes queries identically to the one saved; its
// Word2Vec model is frozen. The snapshot is checked before FromSnapshot
// allocates anything, so hostile bytes are an error, not a panic.
func pipelineFromBundle(b *pipelineBundle) (*models.Pipeline, error) {
	if b.Version != formatVersion {
		return nil, fmt.Errorf("persist: unsupported pipeline version %d", b.Version)
	}
	if err := checkSnapshot(b.W2V); err != nil {
		return nil, err
	}
	w2v := word2vec.FromSnapshot(b.W2V)
	enc := otp.NewEncoder(b.Tables, w2v)
	enc.MeanPooling = b.MeanPooling
	enc.HashedPredicates = b.HashedPredicates
	return &models.Pipeline{W2V: w2v, Enc: enc}, nil
}

// checkSnapshot refuses a Word2Vec snapshot FromSnapshot cannot restore:
// no dimension, columns of different lengths, or a vector of the wrong
// width. An empty vocabulary is refused too, since it carries no vector
// that could vouch for Dim, and FromSnapshot would allocate a Dim-wide row
// on trust.
func checkSnapshot(s *word2vec.Snapshot) error {
	switch {
	case s == nil:
		return fmt.Errorf("persist: pipeline section carries no Word2Vec snapshot")
	case s.Dim <= 0:
		return fmt.Errorf("persist: Word2Vec snapshot has dimension %d", s.Dim)
	case len(s.Words) == 0:
		return fmt.Errorf("persist: Word2Vec snapshot has an empty vocabulary")
	case len(s.Freq) != len(s.Words) || len(s.Vectors) != len(s.Words):
		return fmt.Errorf("persist: Word2Vec snapshot has %d words, %d frequencies and %d vectors",
			len(s.Words), len(s.Freq), len(s.Vectors))
	}
	for i, v := range s.Vectors {
		if len(v) != s.Dim {
			return fmt.Errorf("persist: Word2Vec vector %d has width %d, snapshot dimension is %d", i, len(v), s.Dim)
		}
	}
	return nil
}
