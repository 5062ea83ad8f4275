//go:build race

package blockfs

// raceEnabled reports whether the race detector is compiled in; allocation
// pins are skipped under it (instrumentation allocates).
const raceEnabled = true
