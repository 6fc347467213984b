package kernels

import (
	"math"
	"testing"
)

func TestThomasSolveMatchesDirectInverse(t *testing.T) {
	// Solve tridiag(off, diag, off) x = e_j and verify A x = e_j.
	const (
		n    = 40
		diag = 2.5
		off  = -1.0
	)
	x := make([]float64, n)
	for col := 0; col < n; col++ {
		thomasSolve(diag, off, n, col, x)
		for i := 0; i < n; i++ {
			v := diag * x[i]
			if i > 0 {
				v += off * x[i-1]
			}
			if i < n-1 {
				v += off * x[i+1]
			}
			want := 0.0
			if i == col {
				want = 1
			}
			if math.Abs(v-want) > 1e-9 {
				t.Fatalf("col %d row %d: (A x)_i = %g, want %g", col, i, v, want)
			}
		}
	}
}

func TestPackedSymIndexing(t *testing.T) {
	m := newMemory(nil)
	s := newPackedSym(m, "M", 5)
	if len(s.data) != 15 {
		t.Fatalf("packed storage = %d, want 15", len(s.data))
	}
	// Distinct (i, j<=i...) pairs must map to distinct indices covering
	// exactly the triangle.
	seen := map[int]bool{}
	for i := 0; i < 5; i++ {
		for j := i; j < 5; j++ {
			idx := s.idx(i, j)
			if idx < 0 || idx >= 15 || seen[idx] {
				t.Fatalf("idx(%d,%d) = %d invalid or duplicated", i, j, idx)
			}
			seen[idx] = true
		}
	}
}

func TestSymMatVecMatchesDense(t *testing.T) {
	const n = 12
	m := newMemory(nil)
	s := newPackedSym(m, "M", n)
	dense := make([][]float64, n)
	for i := range dense {
		dense[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := math.Sin(float64(3*i+j)) + 2
			s.set(i, j, v)
			dense[i][j] = v
			dense[j][i] = v
		}
	}
	src := newTvec(m, "src", n)
	dst := newTvec(m, "dst", n)
	for i := 0; i < n; i++ {
		src.data[i] = float64(i+1) * 0.3
	}
	symMatVec(dst, src, s)
	for i := 0; i < n; i++ {
		want := 0.0
		for j := 0; j < n; j++ {
			want += dense[i][j] * src.data[j]
		}
		if math.Abs(dst.data[i]-want) > 1e-9*math.Abs(want) {
			t.Errorf("row %d: %g, want %g", i, dst.data[i], want)
		}
	}
}

func TestPCGConvergesFasterThanCG(t *testing.T) {
	for _, n := range []int{100, 300} {
		cg, err := NewCGToConvergence(n, 1e-8).Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		pcg, err := NewPCGToConvergence(n, 1e-8).Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if pcg.Measured["iters"] >= cg.Measured["iters"] {
			t.Errorf("n=%d: PCG %g iters not fewer than CG %g",
				n, pcg.Measured["iters"], cg.Measured["iters"])
		}
	}
}

func TestPCGSolvesSameSystemAsCG(t *testing.T) {
	// Both solvers target the same A x = b; at tight tolerance their
	// solution norms must agree.
	const n = 80
	cg, err := NewCGToConvergence(n, 1e-11).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	pcg, err := NewPCGToConvergence(n, 1e-11).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cg.Checksum-pcg.Checksum) > 1e-6*cg.Checksum {
		t.Errorf("|x|: CG %.12g vs PCG %.12g", cg.Checksum, pcg.Checksum)
	}
}

func TestPCGIterationCountRoughlyFlat(t *testing.T) {
	// The preconditioner captures the tridiagonal part exactly, so PCG's
	// iteration count must not grow with n (the Figure 6 mechanism).
	small, err := NewPCGToConvergence(100, 1e-8).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	large, err := NewPCGToConvergence(600, 1e-8).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if large.Measured["iters"] > 2*small.Measured["iters"] {
		t.Errorf("PCG iterations grew: %g -> %g", small.Measured["iters"], large.Measured["iters"])
	}
}

func TestPCGStructures(t *testing.T) {
	info, err := (&PCG{N: 40, MaxIters: 2}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Structures) != 6 {
		t.Fatalf("structures = %d, want A, M, x, p, r, z", len(info.Structures))
	}
	a, _ := info.Structure("A")
	mm, _ := info.Structure("M")
	if a.Bytes != 40*40*8 {
		t.Errorf("A bytes = %d", a.Bytes)
	}
	if mm.Bytes != 40*41/2*8 {
		t.Errorf("M bytes = %d, want packed triangle", mm.Bytes)
	}
	// The packed preconditioner halves PCG's matrix overhead: total
	// working set stays below 2x CG's.
	cgInfo, err := NewCG(40, 2).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.WorkingSetBytes() >= 2*cgInfo.WorkingSetBytes() {
		t.Errorf("PCG working set %d not below 2x CG %d",
			info.WorkingSetBytes(), cgInfo.WorkingSetBytes())
	}
}

func TestPCGValidateAndModels(t *testing.T) {
	if _, err := (&PCG{N: 1}).Run(nil); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := (&PCG{N: 10, MaxIters: -1}).Run(nil); err == nil {
		t.Error("negative iterations accepted")
	}
	if _, err := (&PCG{N: 10, MaxIters: 1}).Models(&RunInfo{Measured: map[string]float64{}}); err == nil {
		t.Error("missing iters accepted")
	}
	info, err := (&PCG{N: 40, MaxIters: 3}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := (&PCG{N: 40, MaxIters: 3}).Models(info)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 6 {
		t.Errorf("model specs = %d, want 6", len(specs))
	}
}

func TestTracedVectorOps(t *testing.T) {
	m := newMemory(nil)
	x := newTvec(m, "x", 4)
	y := newTvec(m, "y", 4)
	for i := 0; i < 4; i++ {
		x.store(i, float64(i+1)) // 1 2 3 4
		y.store(i, 1)
	}
	if d, _ := dot(x, y); d != 10 {
		t.Errorf("dot = %g, want 10", d)
	}
	axpy(2, x, y) // y = 1 + 2x
	if y.data[3] != 9 {
		t.Errorf("axpy: y[3] = %g, want 9", y.data[3])
	}
	xpay(x, 3, y) // y = x + 3y
	if y.data[0] != 1+3*3 {
		t.Errorf("xpay: y[0] = %g, want 10", y.data[0])
	}
	if norm2(x) != math.Sqrt(30) {
		t.Errorf("norm2 = %g", norm2(x))
	}
	// Reference counting: each op touches the expected number of refs.
	refs := m.mem.Refs()
	if refs == 0 {
		t.Error("traced ops emitted no references")
	}
}

func TestMatVecAgainstManual(t *testing.T) {
	const n = 6
	m := newMemory(nil)
	a := newTmat(m, "A", n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.set(i, j, float64(i*n+j))
		}
	}
	src := newTvec(m, "s", n)
	dst := newTvec(m, "d", n)
	for i := 0; i < n; i++ {
		src.data[i] = 1
	}
	flops := matVec(dst, src, a)
	if flops != 2*n*n {
		t.Errorf("flops = %d, want %d", flops, 2*n*n)
	}
	for i := 0; i < n; i++ {
		want := 0.0
		for j := 0; j < n; j++ {
			want += float64(i*n + j)
		}
		if dst.data[i] != want {
			t.Errorf("row %d: %g, want %g", i, dst.data[i], want)
		}
	}
}
