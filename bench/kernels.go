package main

import (
	"fmt"
	"slices"

	cm "socrates/internal/cminor"
)

// kernel is one entry of cminor.BenchKernels plus what the harness
// needs to replay it: the pristine contents of its argument arrays and
// the walker oracle's outcome on them.
type kernel struct {
	cm.BenchKernel
	idx      int         // position in the harness's kernel table
	pristine [][]float64 // argument-array contents before any call
	ref      reference
}

// argSet is one reusable argument set of a kernel. The kernels write
// into their argument arrays, so every request starts from restore().
type argSet struct {
	k      *kernel
	args   []any
	arrays []*cm.Array // the *cm.Array entries of args, in order
}

func arraysOf(args []any) []*cm.Array {
	var out []*cm.Array
	for _, a := range args {
		if arr, ok := a.(*cm.Array); ok {
			out = append(out, arr)
		}
	}
	return out
}

func (k *kernel) newArgs() *argSet {
	args := k.Args()
	return &argSet{k: k, args: args, arrays: arraysOf(args)}
}

// restore puts the pristine contents back, so the next call computes
// exactly what the oracle computed.
func (a *argSet) restore() {
	for i, arr := range a.arrays {
		copy(arr.Data, a.k.pristine[i])
	}
}

// loadKernels builds the kernel table for the named kernels (all of
// cminor.BenchKernels when names is empty) and runs the oracle once on
// each. It is not part of any timed span.
func loadKernels(names ...string) ([]*kernel, error) {
	var out []*kernel
	for _, bk := range cm.BenchKernels {
		if len(names) > 0 && !slices.Contains(names, bk.Name) {
			continue
		}
		k := &kernel{BenchKernel: bk, idx: len(out)}
		for _, arr := range arraysOf(bk.Args()) {
			k.pristine = append(k.pristine, append([]float64(nil), arr.Data...))
		}
		ref, err := oracle(k)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", k.Name, err)
		}
		k.ref = ref
		out = append(out, k)
	}
	if len(names) > 0 && len(out) != len(names) {
		return nil, fmt.Errorf("kernels %v: only %d found in cminor.BenchKernels", names, len(out))
	}
	return out, nil
}
