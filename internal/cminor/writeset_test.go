package cminor

import (
	"math"
	"slices"
	"testing"
)

// The fallback snapshot copies only the argument arrays a function can
// write (FuncInfo.Writes), so a rollback is bit-exact only if no backend
// ever writes an array outside that set. guardReadOnly is the check the
// differential harnesses make after every call: the walker's, the
// closures' and the bytecode's.

// guardReadOnly copies the argument arrays a call of fn on s must leave
// as it found them: those bound only to parameters outside fn's write
// set and sharing no storage with an array bound to a written one. The
// check it returns fails tb unless each is still bit-identical to its
// copy.
func guardReadOnly(tb testing.TB, s *Instance, fn string, args []any) (check func(what string)) {
	writes := s.prog.res.Funcs[fn].Writes
	var written [][]float64
	for i, a := range args {
		if arr, ok := a.(*Array); ok && writes[i] {
			written = append(written, arr.Data)
		}
	}
	type kept struct {
		arg  int
		arr  *Array
		data []float64
	}
	var ro []kept
	for i, a := range args {
		arr, ok := a.(*Array)
		if !ok || writes[i] || slices.ContainsFunc(written, func(w []float64) bool { return sameBacking(w, arr.Data) }) {
			continue
		}
		ro = append(ro, kept{i, arr, slices.Clone(arr.Data)})
	}
	return func(what string) {
		tb.Helper()
		for _, k := range ro {
			for j, v := range k.data {
				if math.Float64bits(k.arr.Data[j]) != math.Float64bits(v) {
					tb.Fatalf("%s: %s wrote its read-only argument %d at %d: %g, was %g",
						what, fn, k.arg, j, k.arr.Data[j], v)
				}
			}
		}
	}
}

// GuardReadOnly is guardReadOnly for the external test package.
var GuardReadOnly = guardReadOnly

// sameBacking reports whether x and y are slices of one backing array
// (slices of one array end their capacity at the same element).
func sameBacking(x, y []float64) bool {
	return cap(x) > 0 && cap(y) > 0 && &x[:cap(x)][cap(x)-1] == &y[:cap(y)][cap(y)-1]
}

// TestWriteSetSoundOnBenchKernels runs every benchmark kernel on the
// walker, O0, O3 and the bytecode, and checks after each call that the
// arguments outside the kernel's write set are untouched.
func TestWriteSetSoundOnBenchKernels(t *testing.T) {
	for _, k := range BenchKernels {
		f := MustParse(k.File, k.Src)
		for _, v := range []struct {
			name string
			opts []Option
		}{
			{"walker", []Option{WithBackend(BackendWalker)}},
			{"O0", []Option{WithOptLevel(O0)}},
			{"O3", []Option{WithOptLevel(O3)}},
			{"bytecode", []Option{WithBackend(BackendBytecode), WithOptLevel(O3)}},
		} {
			s := newInst(t, f, v.opts...)
			args := k.Args()
			check := guardReadOnly(t, s, k.Fn, args)
			if _, err := s.Call(k.Fn, args...); err != nil {
				t.Fatalf("%s %s: %v", k.Name, v.name, err)
			}
			check(k.Name + " " + v.name)
		}
	}
}
