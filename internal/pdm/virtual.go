package pdm

import (
	"fmt"

	"balancesort/internal/record"
)

// Virtual implements the paper's partial striping: the D physical disks are
// grouped into V "virtual disks" of D/V drives each, and a virtual block of
// B*D/V records is one physical block on each drive of the group, all at the
// same offset. Writing or reading at most one virtual block per virtual disk
// is then a single parallel I/O of the underlying array.
//
// Partial striping is what lets the deterministic balancing run fast enough:
// the balance matrices shrink from S x D to S x V while the I/O bound is
// unchanged up to a constant. (The hierarchy algorithm uses H' = H^{1/3}; the
// disk algorithm exposes V so experiments can sweep it.)
//
// A Virtual serves one goroutine: ParallelVIO reuses its own scratch.
type Virtual struct {
	arr   *Array
	v     int // virtual disks
	group int // physical disks per virtual disk
	// seen and phys are ParallelVIO's scratch: which virtual disks the
	// I/O being built addresses, and its physical ops.
	seen []bool
	phys []Op
}

// NewVirtual groups the array's D disks into v virtual disks. v must divide D.
func NewVirtual(a *Array, v int) *Virtual {
	if v < 1 || a.params.D%v != 0 {
		panic(fmt.Sprintf("pdm: %d virtual disks do not divide D = %d", v, a.params.D))
	}
	return &Virtual{arr: a, v: v, group: a.params.D / v, seen: make([]bool, v), phys: make([]Op, 0, a.params.D)}
}

// V returns the number of virtual disks.
func (vd *Virtual) V() int { return vd.v }

// VB returns the virtual block size in records.
func (vd *Virtual) VB() int { return vd.group * vd.arr.params.B }

// Array returns the underlying physical array.
func (vd *Virtual) Array() *Array { return vd.arr }

// VOp is one virtual-block transfer: exactly VB records at virtual offset
// Off on virtual disk VDisk.
type VOp struct {
	VDisk int
	Off   int
	Write bool
	Data  []record.Record
}

// ParallelVIO performs one parallel I/O transferring the given virtual
// blocks, at most one per virtual disk.
func (vd *Virtual) ParallelVIO(ops []VOp) {
	if len(ops) == 0 {
		return
	}
	clear(vd.seen)
	phys := vd.phys[:0]
	b := vd.arr.params.B
	for _, op := range ops {
		if op.VDisk < 0 || op.VDisk >= vd.v {
			panic(fmt.Sprintf("pdm: virtual disk %d of %d", op.VDisk, vd.v))
		}
		if vd.seen[op.VDisk] {
			panic(fmt.Sprintf("pdm: two virtual blocks on virtual disk %d in one I/O", op.VDisk))
		}
		vd.seen[op.VDisk] = true
		if len(op.Data) != vd.VB() {
			panic(fmt.Sprintf("pdm: virtual op transfers %d records, virtual block size is %d", len(op.Data), vd.VB()))
		}
		for j := 0; j < vd.group; j++ {
			phys = append(phys, Op{
				Disk:  op.VDisk*vd.group + j,
				Off:   op.Off,
				Write: op.Write,
				Data:  op.Data[j*b : (j+1)*b],
			})
		}
	}
	vd.arr.ParallelIO(phys)
}

// Alloc reserves n fresh virtual-block offsets on virtual disk h, aligned
// across the group's physical disks, and returns the first offset.
func (vd *Virtual) Alloc(h, n int) int {
	lo := h * vd.group
	off := 0
	for j := 0; j < vd.group; j++ {
		if f := vd.arr.nextFree[lo+j]; f > off {
			off = f
		}
	}
	for j := 0; j < vd.group; j++ {
		vd.arr.nextFree[lo+j] = off + n
	}
	return off
}
