package discretize

// Test hooks into the generator's prefilters, for the external prefilter
// tests (which import internal/corpus and so cannot live in this package).

// Neighbors returns the precomputed 2·d_max neighbor set of device i.
func (g *Generator) Neighbors(i int) []int { return g.neighbors[i] }

// ObstaclePruning reports whether ring cutting prunes obstacles through
// the visibility index.
func (g *Generator) ObstaclePruning() bool { return g.ix != nil }

// WithoutObstaclePruning returns a copy of g whose ring cutting scans every
// obstacle edge.
func (g *Generator) WithoutObstaclePruning() *Generator {
	c := *g
	c.ix = nil
	return &c
}
