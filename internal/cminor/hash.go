package cminor

import "hash/fnv"

// Content hashing of resolved programs. Persistence layers key
// learned-at-runtime state (tuned variant tables, compiled artifacts)
// by what the program IS, not what file it came from: a cache entry
// must survive a rename and die on an edit. The hash is computed over
// the printer's canonical rendering of the resolved AST, so two
// programs parse-equal up to whitespace and comments hash identically,
// and any semantic edit — a changed bound, a reordered statement —
// produces a new identity.

// SourceHash returns a 64-bit content hash of the program's source as
// canonically re-printed from its AST: FNV-64a of Print's text, which
// the printer streams into the hash a line at a time (fprint) instead
// of building it. Every variant of one Program (Variant shares the
// resolved front end) reports the same hash: the hash names the
// source, and the variant knobs are the consumer's to mix in on top.
func (p *Program) SourceHash() uint64 {
	h := fnv.New64a()
	fprint(h, p.res.File)
	return h.Sum64()
}
