package experiments

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"
)

// TestSelfHealNoGoroutineLeak: a finished self-heal run leaves no plant
// goroutines behind (agents joined, controller closed, server stopped).
func TestSelfHealNoGoroutineLeak(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	before := runtime.NumGoroutine()
	cfg := smallCfg()
	cfg.Trials = 2
	cfg.Epsilon = 0.3
	if _, err := SelfHeal(ctx, cfg, 4, 0.25, 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSelfHealRaggedTrialsDeterministic: at k = 8, seed 1 the two trials'
// repairs use different window counts (5 and 7 stages), so the scoring
// work list is ragged. Its rows must still fold to the same bytes at every
// worker count. Under -race this also runs two live plants side by side.
func TestSelfHealRaggedTrialsDeterministic(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		cfg := Config{Seed: 1, Epsilon: 0.3, Trials: 2, Parallelism: workers}
		tab, err := SelfHeal(ctx, cfg, 8, 0.25, 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tab.WriteTSV(&buf); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
			ragged := false
			for _, r := range tab.Rows {
				ragged = ragged || r[1] == "1"
			}
			if !ragged {
				t.Fatalf("trials are not ragged, the test no longer covers its case:\n%s", want)
			}
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("workers=%d output differs from workers=1:\n--- workers=1\n%s--- workers=%d\n%s", workers, want, workers, buf.Bytes())
		}
	}
}
