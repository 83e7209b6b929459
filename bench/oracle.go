package main

import (
	"math"

	cm "socrates/internal/cminor"
)

// reference is the walker's outcome of one kernel on fresh arguments:
// the semantics every backend and every layer above it must reproduce
// bit for bit.
type reference struct {
	value  cm.Value
	arrays [][]float64 // argument arrays after the call
	steps  int
}

// oracle runs k once on the tree-walking backend with fresh arguments.
func oracle(k *kernel) (reference, error) {
	f, err := cm.Parse(k.File, k.Src)
	if err != nil {
		return reference{}, err
	}
	prog, err := cm.Compile(f, cm.WithBackend(cm.BackendWalker))
	if err != nil {
		return reference{}, err
	}
	inst := prog.NewInstance()
	args := k.Args()
	v, err := inst.Call(k.Fn, args...)
	if err != nil {
		return reference{}, err
	}
	ref := reference{value: v, steps: inst.LastCallSteps()}
	for _, arr := range arraysOf(args) {
		ref.arrays = append(ref.arrays, append([]float64(nil), arr.Data...))
	}
	return ref, nil
}

func sameValue(a, b cm.Value) bool {
	return a.IsInt == b.IsInt && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// matches reports whether a call that returned v and left its results
// in a's arrays agrees with the oracle bit for bit.
func (r *reference) matches(v cm.Value, a *argSet) bool {
	if !sameValue(v, r.value) || len(a.arrays) != len(r.arrays) {
		return false
	}
	for i, arr := range a.arrays {
		want := r.arrays[i]
		if len(arr.Data) != len(want) {
			return false
		}
		for j, x := range arr.Data {
			if math.Float64bits(x) != math.Float64bits(want[j]) {
				return false
			}
		}
	}
	return true
}

// checkEvery is the oracle sampling stride: the first response of each
// kernel, every checkEvery-th after it, and the last are compared.
const checkEvery = 64
