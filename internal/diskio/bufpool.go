package diskio

import (
	"sync"
	"sync/atomic"
)

// bufPool recycles the block-sized byte buffers of the read-ahead cache so
// that steady-state prefetching allocates nothing. inUse counts buffers
// currently checked out (gets minus puts), the occupancy signal the
// utilization sampler reports.
type bufPool struct {
	size  int
	inUse atomic.Int64
	pool  sync.Pool
}

func newBufPool(size int) *bufPool {
	p := &bufPool{size: size}
	p.pool.New = func() any { return make([]byte, size) }
	return p
}

func (p *bufPool) get() []byte {
	p.inUse.Add(1)
	return p.pool.Get().([]byte)
}

func (p *bufPool) put(buf []byte) {
	p.inUse.Add(-1)
	if cap(buf) == p.size {
		p.pool.Put(buf[:p.size])
	}
}
