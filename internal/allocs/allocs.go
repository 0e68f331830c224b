// Package allocs counts heap allocations exactly, for the tests that
// hold a path allocation-free.
package allocs

import "runtime"

// Count returns the heap allocations made by runs calls of f, after one
// warm-up call, on one P as testing.AllocsPerRun does. AllocsPerRun
// reports whole allocations per call, so an allocation made on fewer
// than every call (a buffer that keeps growing) reads as 0; this count
// misses none. A collection still running when the count starts does
// background work that allocates (mark workers, post-cycle cleanups),
// so Count finishes one first and lets its cleanups run.
func Count(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	runtime.GC()
	runtime.Gosched()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
