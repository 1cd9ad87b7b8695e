package query

import "disasso/internal/core"

// EstimatorPart, BuildEstimatorPart and NewEstimatorFromParts are what is
// left of the per-shard estimator assembly. The server builds every
// published and delta snapshot's estimator in full with NewEstimator; these
// three remain only because bench/replay, the end-to-end benchmark's traced
// replay, still calls them. A part holds nothing, and NewEstimatorFromParts
// is NewEstimator, so the replay times the one full build under its
// query.from_parts span. Delete them with the replay's next change.
type EstimatorPart struct{}

// BuildEstimatorPart returns an empty part; see EstimatorPart.
func BuildEstimatorPart(k, m int, clusters []*core.ClusterNode) *EstimatorPart {
	return &EstimatorPart{}
}

// NewEstimatorFromParts returns NewEstimator(a); see EstimatorPart.
func NewEstimatorFromParts(a *core.Anonymized, parts []*EstimatorPart) *Estimator {
	return NewEstimator(a)
}
