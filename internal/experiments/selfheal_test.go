package experiments

import (
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
