package baseline

import (
	"fmt"

	"balancesort/internal/columnsort"
	"balancesort/internal/pdm"
	"balancesort/internal/pram"
	"balancesort/internal/record"
)

// ColumnSortDisk sorts the n records striped at block offset off with
// Leighton's Columnsort run externally: each column is one memoryload, the
// four column-sort passes are memoryload sorts, and the two transpositions
// are single sequential passes with one block buffer per column. The I/O
// schedule is completely oblivious — every pass reads and writes fixed
// positions regardless of the data — which is Columnsort's selling point
// and the reason [NoV] could build Greed Sort's cleanup on it.
//
// The shape constraint r >= 2(s-1)² with r = M/2 caps n at roughly
// (M/2)^{3/2}; beyond it an error is returned (the recursive extension is
// out of scope — see DESIGN.md).
func ColumnSortDisk(arr *pdm.Array, off, n, p int) (Region, Metrics, error) {
	par := arr.Params()
	cpu := pram.New(maxInt(p, 1))
	arr.ResetStats()

	met := Metrics{N: n}
	if n == 0 {
		return Region{}, met, nil
	}

	r0 := (par.M / 2 / par.B) * par.B
	// Find the smallest column count s whose B-aligned, s-divisible column
	// length r (at most a memoryload) still covers n and satisfies
	// Leighton's r >= 2(s-1)².
	r, s := r0, 1
	for ; ; s++ {
		// r must be divisible by s (Columnsort) and by 2B (the shifted
		// windows start at j·r - r/2, which must stay block-aligned).
		step := lcm(s, 2*par.B)
		r = (r0 / step) * step
		if r == 0 || 2*(s-1)*(s-1) > r {
			return Region{}, met, fmt.Errorf("baseline: columnsort shape r=%d s=%d out of range (n too large for M)", r, s)
		}
		if r*s >= n {
			break
		}
	}
	if s == 1 && n <= r {
		// Single column: one memoryload sort.
		buf := make([]record.Record, n)
		arr.Mem.Use(n)
		arr.ReadStripe(off, 0, buf)
		cpu.Sort(buf)
		out := allocStripeFor(arr, n)
		arr.WriteStripe(out, 0, buf)
		arr.Mem.Release(n)
		met.fill(arr, cpu, 1)
		return Region{Off: out, N: n}, met, nil
	}
	if !columnsort.Valid(r, s) {
		return Region{}, met, fmt.Errorf("baseline: columnsort shape r=%d s=%d out of range (n too large for M)", r, s)
	}
	if s*par.B > par.M/4 {
		return Region{}, met, fmt.Errorf("baseline: %d columns need %d records of transpose buffers, M/4 = %d", s, s*par.B, par.M/4)
	}

	total := r * s
	// Region A: the padded column-major matrix; sentinels (+inf) fill the
	// tail and sort to the end, so the final region is read back as n
	// records.
	regA := allocStripeFor(arr, total)
	regB := allocStripeFor(arr, total)
	loadPadded(arr, off, n, regA, total)

	colSorts := 0
	sortColumns := func(reg int) {
		buf := make([]record.Record, r)
		arr.Mem.Use(r)
		for j := 0; j < s; j++ {
			arr.ReadStripe(reg, j*r/par.B, buf)
			cpu.Sort(buf)
			arr.WriteStripe(reg, j*r/par.B, buf)
			colSorts++
		}
		arr.Mem.Release(r)
	}

	// The two permutations are inverses; both are realized by a single
	// sequential pass with one block buffer per column.
	deal := func(src, dst int) { // dst[(t%s)*r + t/s] = src[t]
		dealPass(arr, src, dst, total, r, s, par, false)
	}
	gather := func(src, dst int) { // dst[t] = src[(t%s)*r + t/s]
		dealPass(arr, src, dst, total, r, s, par, true)
	}

	sortColumns(regA)                              // step 1
	deal(regA, regB)                               // step 2
	sortColumns(regB)                              // step 3
	gather(regB, regA)                             // step 4
	sortColumns(regA)                              // step 5
	shiftSortDisk(arr, cpu, regA, r, s, &colSorts) // steps 6-8

	met.fill(arr, cpu, 0)
	met.MergeArity = 0
	met.Passes = colSorts
	return Region{Off: regA, N: n}, met, nil
}

// dealPass redistributes a column-major region: forward writes src stream
// slot t to column t%s, row t/s of dst; inverse performs the inverse
// permutation (dst stream slot t reads from column t%s, row t/s of src).
func dealPass(arr *pdm.Array, src, dst, total, r, s int, par pdm.Params, inverse bool) {
	bufs := make([][]record.Record, s)
	fill := make([]int, s)
	rows := make([]int, s)
	for j := range bufs {
		bufs[j] = make([]record.Record, par.B)
	}
	arr.Mem.Use(s*par.B + par.D*par.B)
	chunk := make([]record.Record, par.D*par.B)

	if !inverse {
		// Sequential read of src; buffered writes to the s dst columns.
		for t := 0; t < total; t += len(chunk) {
			m := len(chunk)
			if t+m > total {
				m = total - t
			}
			arr.ReadStripe(src, t/par.B, chunk[:m])
			for i := 0; i < m; i++ {
				j := (t + i) % s
				bufs[j][fill[j]] = chunk[i]
				fill[j]++
				if fill[j] == par.B {
					arr.WriteStripe(dst, (j*r+rows[j])/par.B, bufs[j][:fill[j]])
					rows[j] += fill[j]
					fill[j] = 0
				}
			}
		}
		for j := 0; j < s; j++ {
			if fill[j] > 0 {
				arr.WriteStripe(dst, (j*r+rows[j])/par.B, bufs[j][:fill[j]])
				rows[j] += fill[j]
				fill[j] = 0
			}
		}
	} else {
		// Sequential write of dst; buffered reads from the s src columns
		// (the mirror image: keep one read-ahead block per source column).
		srcPos := make([]int, s)
		cur := make([][]record.Record, s) // unconsumed buffered records
		out := make([]record.Record, 0, par.D*par.B)
		outPos := 0
		for t := 0; t < total; t++ {
			j := t % s
			if len(cur[j]) == 0 {
				m := par.B
				if r-srcPos[j] < m {
					m = r - srcPos[j]
				}
				arr.ReadStripe(src, (j*r+srcPos[j])/par.B, bufs[j][:m])
				cur[j] = bufs[j][:m]
				srcPos[j] += m
			}
			out = append(out, cur[j][0])
			cur[j] = cur[j][1:]
			if len(out) == cap(out) {
				arr.WriteStripe(dst, outPos/par.B, out)
				outPos += len(out)
				out = out[:0]
			}
		}
		if len(out) > 0 {
			arr.WriteStripe(dst, outPos/par.B, out)
		}
	}
	arr.Mem.Release(s*par.B + par.D*par.B)
}

// shiftSortDisk performs Columnsort's steps 6-8 externally: memoryload
// sorts of the boundary-straddling windows.
func shiftSortDisk(arr *pdm.Array, cpu *pram.Machine, reg, r, s int, colSorts *int) {
	buf := make([]record.Record, r)
	arr.Mem.Use(r)
	half := r / 2
	total := r * s
	sortWindow := func(pos, m int) {
		arr.ReadStripe(reg, pos/arr.B(), buf[:m])
		cpu.Sort(buf[:m])
		arr.WriteStripe(reg, pos/arr.B(), buf[:m])
		*colSorts++
	}
	sortWindow(0, half)
	for j := 1; j < s; j++ {
		sortWindow(j*r-half, r)
	}
	sortWindow(total-half, half)
	arr.Mem.Release(r)
}

// loadPadded copies the n-record input into a fresh total-record region,
// padding the tail with +inf sentinels.
func loadPadded(arr *pdm.Array, off, n, dst, total int) {
	par := arr.Params()
	chunk := make([]record.Record, par.D*par.B)
	arr.Mem.Use(len(chunk))
	pos := 0
	for pos < n {
		m := len(chunk)
		if pos+m > n {
			m = n - pos
		}
		arr.ReadStripe(off, pos/par.B, chunk[:m])
		arr.WriteStripe(dst, pos/par.B, chunk[:m])
		pos += m
	}
	// Sentinel padding. The final partial data block was already sentinel-
	// padded by WriteStripe, so padding resumes at the next block boundary.
	for i := range chunk {
		chunk[i] = record.Record{Key: ^uint64(0), Loc: ^uint64(0)}
	}
	pos = ((n + par.B - 1) / par.B) * par.B
	for pos < total {
		m := len(chunk)
		if pos+m > total {
			m = total - pos
		}
		arr.WriteStripe(dst, pos/par.B, chunk[:m])
		pos += m
	}
	arr.Mem.Release(len(chunk))
}

// fill populates the shared metric fields from the array and CPU counters.
func (m *Metrics) fill(arr *pdm.Array, cpu *pram.Machine, passes int) {
	st := arr.Stats()
	m.IOs = st.IOs
	m.ReadIOs = st.ReadIOs
	m.WriteIOs = st.WriteIOs
	m.PRAMTime = cpu.Time()
	m.PRAMWork = cpu.Work()
	if passes != 0 {
		m.Passes = passes
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

// allocStripeFor reserves a block-aligned striped region for n records.
func allocStripeFor(arr *pdm.Array, n int) int {
	p := arr.Params()
	blocks := (n + p.B - 1) / p.B
	perDisk := (blocks + p.D - 1) / p.D
	if perDisk == 0 {
		perDisk = 1
	}
	return arr.AllocStripe(perDisk)
}
