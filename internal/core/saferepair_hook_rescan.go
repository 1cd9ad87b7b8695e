//go:build saferepair_rescan

package core

// safeRepairRescanDefault under the saferepair_rescan build tag forces the
// reference path: every repair step rebuilds and re-detects the whole node.
// Output must be byte-identical to the incremental engine.
const safeRepairRescanDefault = true
