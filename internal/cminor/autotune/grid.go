package autotune

import (
	"math/bits"

	cm "socrates/internal/cminor"
)

// VariantSpec names one point of the knob space: an execution backend,
// an optimization level, and — at O3 — the subset of O3 passes enabled
// (cminor.PassMask). The zero value is the compiled O0 variant.
type VariantSpec struct {
	Backend cm.Backend
	Opt     cm.OptLevel
	Passes  cm.PassMask
}

// String renders the spec the way benchmark output names variants:
// "walker", "bytecode", "O0"…"O3", or "O3[none]" for a partial
// pass mask. Non-compiled backends are named by the backend itself —
// a Snapshot arm label must say which machine ran, not just how hard
// the frontend optimized.
func (v VariantSpec) String() string {
	switch v.Backend {
	case cm.BackendWalker:
		return "walker"
	case cm.BackendBytecode:
		return "bytecode"
	}
	if v.Opt == cm.O3 && v.Passes != cm.AllPasses {
		return "O3[" + v.Passes.String() + "]"
	}
	return v.Opt.String()
}

// options expands the spec into the engine options that materialize it.
func (v VariantSpec) options() []cm.Option {
	return []cm.Option{
		cm.WithBackend(v.Backend),
		cm.WithOptLevel(v.Opt),
		cm.WithPasses(v.Passes),
	}
}

// DefaultGrid is the opt-level axis of the compiled backend plus the
// flat-bytecode backend at full optimization — the grid
// BenchmarkOptLevels sweeps for static baselines.
func DefaultGrid() []VariantSpec {
	return []VariantSpec{
		{Opt: cm.O0},
		{Opt: cm.O1},
		{Opt: cm.O2},
		{Opt: cm.O3, Passes: cm.AllPasses},
		{Backend: cm.BackendBytecode, Opt: cm.O3, Passes: cm.AllPasses},
	}
}

// SizeClass is the input classifier — the second half of a site key:
// arguments are bucketed by the total number of array elements they
// carry, on a log2 scale, so calls whose working sets differ by ~2× or
// more tune independently. Scalar-only calls land in class 0. Serving
// layers use it to group requests that will share a tuning site (and
// therefore batch well).
func SizeClass(args []any) int {
	total := uint(0)
	for _, a := range args {
		if arr, ok := a.(*cm.Array); ok && arr != nil {
			total += uint(len(arr.Data))
		}
	}
	return bits.Len(total)
}
