package discretize

import (
	"sync"

	"hipo/internal/geom"
)

// Buffer pools for the per-task generation hot path: position buffers
// (one live per in-flight task) and segment / obstacle-index scratch (one
// per device ring-cutting pass). Pooling is invisible to output — buffers are
// always truncated to zero length before reuse and their contents copied
// out (deduper, candidate Covers) before release — and reuses surface in
// the pool_reuse tracer counter.
var (
	posBufPool sync.Pool
	segBufPool sync.Pool
	obsBufPool sync.Pool
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

func getSegBuf() []geom.Segment {
	if v := segBufPool.Get(); v != nil {
		return (*v.(*[]geom.Segment))[:0]
	}
	return nil
}

func putSegBuf(buf []geom.Segment) {
	if cap(buf) == 0 {
		return
	}
	segBufPool.Put(&buf)
}

func getObsBuf() []int32 {
	if v := obsBufPool.Get(); v != nil {
		return (*v.(*[]int32))[:0]
	}
	return nil
}

func putObsBuf(buf []int32) {
	if cap(buf) == 0 {
		return
	}
	obsBufPool.Put(&buf)
}
