//go:build !saferepair_rescan

package core

// safeRepairRescanDefault selects the incremental repair engine: sources are
// grouped by tree node once per top-level node and only the groups a step
// touched are refreshed. Build with -tags saferepair_rescan to default to the
// reference whole-node rescan instead (used to cross-check byte-identical
// output).
const safeRepairRescanDefault = false
