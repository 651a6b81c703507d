package experiments

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"flattree/internal/faults"
)

// TestTablesByteIdenticalAcrossWorkerCounts pins the package contract from
// the doc comment: for any seed, an experiment's table is byte-for-byte the
// same at -parallel 1 and -parallel N. Every registered experiment runs at
// a small scale for two base seeds and two worker counts; the rendered TSV
// must not differ by a single byte. The figures sweep k=4..6, and soak's two
// arms (live TCP control plane with overlapping repairs, and the
// fixed-cabling control) replay from the seed.
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

// TestRowIsIndependentOfSweep: a cell's value is a function of its own
// (network, traffic), not of what was solved before it. A fig8 row reads the
// same whether the sweep started below it or at it, and with nothing failed
// faultsrecovery's after-failure and after-recovery λ are the same number.
func TestRowIsIndependentOfSweep(t *testing.T) {
	ctx := context.Background()
	cfg := Config{KMin: 4, KMax: 6, KStep: 2, Seed: 1, Epsilon: 0.2, Trials: 1}
	swept, err := Fig8(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.KMin = 6
	alone, err := Fig8(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(swept.Rows[1], "\t"), strings.Join(alone.Rows[0], "\t"); got != want {
		t.Errorf("fig8 row k=6 depends on the sweep:\n  kmin=4: %s\n  kmin=6: %s", got, want)
	}

	fr, err := FaultsRecovery(ctx, cfg, 4, faults.Scenario{})
	if err != nil {
		t.Fatal(err)
	}
	for ci, name := range fr.Header {
		if topo, ok := strings.CutSuffix(name, "/tput-fail"); ok {
			// Header layout: conn, apl, tput after failure, then the same three
			// after recovery.
			if fail, rec := fr.Rows[0][ci], fr.Rows[0][ci+3]; fail != rec {
				t.Errorf("faultsrecovery %s at fail-frac 0: λ %s after failure, %s after recovery of the same network", topo, fail, rec)
			}
		}
	}
}
