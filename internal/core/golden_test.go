package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"compaction/internal/mm"
	"compaction/internal/sim"

	// The sharded facades register sharded-* managers.
	_ "compaction/internal/heap/sharded"
)

// pfGolden pins a digest of every field of the sim.Result P_F forces
// on each registered manager at goldenConfig. A change to P_F's
// bookkeeping that is meant only to make it faster or smaller leaves
// every digest equal; a change that alters the simulated run shows up
// here, inside the tier-1 suite.
var pfGolden = map[string]string{
	"aligned-first-fit":  "d3ebb3acfa869f46",
	"best-fit":           "9bcfca76f810ff79",
	"bitmap-first-fit":   "78fe3f77c720d893",
	"bp-compact":         "0ac6c1b25e34daa7",
	"buddy":              "d35ca065489905f9",
	"first-fit":          "499d4b6f90f020aa",
	"half-fit":           "ce07be25ddce3d66",
	"improved":           "9331f0d14e460512",
	"mark-compact":       "8d038058c2ba58a7",
	"next-fit":           "b80bea317faea555",
	"rounded-segregated": "c29422df147b0e27",
	"segregated":         "10656d82ce97de6b",
	"sharded-first-fit":  "02156e549c5fc1b8",
	"sharded-segregated": "8a74a74cb6ddda41",
	"sharded-tlsf":       "5912833047d11a22",
	"threshold":          "24ee715190ea810c",
	"tlsf":               "27770d71a73bda1f",
	"worst-fit":          "516e6068ed455c18",
}

// goldenConfig is small enough for every manager to run in tier-1.
func goldenConfig() sim.Config {
	return sim.Config{M: 1 << 14, N: 1 << 8, C: 16, Pow2Only: true}
}

// resultDigest hashes every field of r, the embedded Config included.
func resultDigest(r sim.Result) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", r)))
	return hex.EncodeToString(sum[:])[:16]
}

func TestPFResultGolden(t *testing.T) {
	names := mm.Names()
	if len(names) != len(pfGolden) {
		t.Errorf("%d registered managers, %d golden digests", len(names), len(pfGolden))
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			_, res := runPF(t, name, goldenConfig(), Options{})
			got := resultDigest(res)
			if want, ok := pfGolden[name]; !ok || got != want {
				t.Errorf("P_F vs %s: result digest %s, golden %q (%+v)", name, got, want, res)
			}
		})
	}
}

// pfAblationGolden pins the ablated variants the same way, on one
// non-moving and two compacting managers.
var pfAblationGolden = map[string]string{
	"no-density/bp-compact": "82856d94722ee8b3",
	"no-density/first-fit":  "27b192a874502e9f",
	"no-density/threshold":  "80a32af96949412f",
	"no-ghosts/bp-compact":  "0ac6c1b25e34daa7",
	"no-ghosts/first-fit":   "499d4b6f90f020aa",
	"no-ghosts/threshold":   "24ee715190ea810c",
	"no-stage1/bp-compact":  "64dd1acd870b586f",
	"no-stage1/first-fit":   "3dde035991f8eb39",
	"no-stage1/threshold":   "723ca4fa8968bc77",
}

func TestPFAblationGolden(t *testing.T) {
	abl := map[string]Options{
		"no-stage1":  {DisableStage1: true},
		"no-density": {DisableDensity: true},
		"no-ghosts":  {DisableGhosts: true},
	}
	for aname, opts := range abl {
		for _, mname := range []string{"first-fit", "bp-compact", "threshold"} {
			key := aname + "/" + mname
			t.Run(key, func(t *testing.T) {
				_, res := runPF(t, mname, goldenConfig(), opts)
				got := resultDigest(res)
				if want, ok := pfAblationGolden[key]; !ok || got != want {
					t.Errorf("P_F %s: result digest %s, golden %q (%+v)", key, got, want, res)
				}
			})
		}
	}
}
