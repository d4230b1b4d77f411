package main

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
)

// Recorded digests of the simulated results (see digest). A change
// that only makes the program faster or smaller leaves them equal.
var (
	pfDigests     = map[string]string{"first-fit": "c5ea94d016aefea3", "threshold": "27ee2c77154fe7ed"}
	pfTinyDigests = map[string]string{"first-fit": "415e06c6693a806c", "threshold": "a3df92ebda81ba54"}
	// sweepDigests is keyed by seed; other seeds are checked for
	// agreement between the jobs of a run.
	sweepDigests     = map[int64]string{1: "c61498e555174713"}
	sweepTinyDigests = map[int64]string{1: "2447b752baa5dc3c"}
	distDigest       = "e2184c8930567f3a"
	distTinyDigest   = "c598243614a1e845"
	// serviceDigest covers the in-process run of the job's grid, which
	// every job's result CSV must equal byte for byte.
	serviceDigest     = "065592332a985397"
	serviceTinyDigest = "f1b0121949509039"
)

type hasher struct{ hash.Hash }

func newHasher() hasher { return hasher{sha256.New()} }

func (h hasher) sum() string { return hex.EncodeToString(h.Sum(nil))[:16] }
