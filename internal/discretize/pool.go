package discretize

import (
	"sync"

	"hipo/internal/geom"
)

// Buffer pools for the generation and dedup hot paths: position buffers
// (one live per in-flight task) and the dedup's table (one live per dedup
// call). Pooling is invisible to output — buffers are always truncated to
// zero length before reuse and their contents copied out (dedup, candidate
// Covers) before release, and the table hands its kept list to the caller
// — and position-buffer reuses surface in the pool_reuse tracer counter.
var (
	posBufPool sync.Pool
	dedupPool  sync.Pool
)

// getPosBuf returns an empty position buffer and whether it was reused
// from the pool (a fresh buffer is just nil: append allocates on demand).
func getPosBuf() ([]geom.Vec, bool) {
	if v := posBufPool.Get(); v != nil {
		return (*v.(*[]geom.Vec))[:0], true
	}
	return nil, false
}

func putPosBuf(buf []geom.Vec) {
	if cap(buf) == 0 {
		return
	}
	posBufPool.Put(&buf)
}

func getDedupTable() *dedupTable {
	if v := dedupPool.Get(); v != nil {
		return v.(*dedupTable)
	}
	return new(dedupTable)
}

// resize returns s with length n, reusing its array when it is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
