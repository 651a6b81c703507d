package experiments

import (
	"bytes"
	"fmt"
	"testing"
)

// TestTablesByteIdenticalAcrossWorkerCounts pins the package contract from
// the doc comment: for any seed, an experiment's table is byte-for-byte the
// same at -parallel 1 and -parallel N. Every registered experiment runs at
// a small scale for two base seeds and two worker counts; the rendered TSV
// must not differ by a single byte. The k=4..6 sweep makes every fig8
// (column, trial) chain take a cross-k warm-started hop (fig7's cells there
// have one hot spot and are solved exactly, chain or no chain), hybrid's
// per-proportion chains and soak's two arms (live TCP control plane with
// overlapping repairs, and the fixed-cabling control) replay from the seed —
// all must stay pure functions of the work item at any worker count.
func TestTablesByteIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		for _, exp := range CellExperiments() {
			var want []byte
			for _, workers := range []int{1, 4} {
				cfg, sp := smallCell(exp, seed, workers)
				got := cellTSV(t, cfg, sp)
				if workers == 1 {
					want = got
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s seed=%d: workers=%d output differs from workers=1:\n--- workers=1\n%s--- workers=%d\n%s",
						exp, seed, workers, want, workers, got)
				}
			}
		}
	}
}

// TestTrialSeedsDifferAcrossBaseSeeds guards the seeding bugfix at the
// driver level: nearby base seeds must not share any trial seed (the old
// seed + trial*7919 derivation collided whenever two base seeds differed by
// a multiple of the stride).
func TestTrialSeedsDifferAcrossBaseSeeds(t *testing.T) {
	seen := map[uint64]string{}
	for _, base := range []uint64{1, 2, 3, 1 + 7919, 2 + 2*7919} {
		seeds := Config{Seed: base}.trialSeeds()
		for tr := 0; tr < 64; tr++ {
			s := seeds.Seed(uint64(tr))
			key := fmt.Sprintf("base=%d trial=%d", base, tr)
			if prev, ok := seen[s]; ok {
				t.Fatalf("trial seed %#x collides: %s and %s", s, prev, key)
			}
			seen[s] = key
		}
	}
}
