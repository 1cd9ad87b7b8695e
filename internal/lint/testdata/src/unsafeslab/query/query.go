// Fixture standing in for the real query package (unsafeslab matches pins
// by import-path suffix, and this package's final segment is "query").
// Estimate deliberately diverges from the pinned layout.
package query

type Estimate struct { // want "layout of Estimate diverges from the snapfile format pin"
	Lower    int
	Upper    int
	Expected float64
	Exact    bool
}
