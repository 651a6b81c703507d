package ctrl

import (
	"context"
	"net"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"flattree/internal/core"
)

// unjoined returns the dump of every goroutine that is not in before and
// has not yet passed its join point. A goroutine a WaitGroup has released
// is still listed until it finishes exiting, but it is then runnable and
// either inside WaitGroup.Done or already out of this module's code; one
// that was never joined is anywhere else: blocked on a connection, a
// ticker or a channel, or still running its own loop.
func unjoined(before map[string]bool) (ids map[string]bool, leaked []string) {
	buf := make([]byte, 1<<20)
	ids = make(map[string]bool)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		m := goroutineHeader.FindStringSubmatch(g)
		if m == nil {
			continue
		}
		ids[m[1]] = true
		if before[m[1]] {
			continue
		}
		frames := g[:strings.LastIndex(g, "\ncreated by ")+1]
		exiting := (m[2] == "runnable" || m[2] == "running") &&
			(strings.Contains(frames, "sync.(*WaitGroup).Done(") || !strings.Contains(frames, "flattree/"))
		if !exiting {
			leaked = append(leaked, g)
		}
	}
	return ids, leaked
}

var goroutineHeader = regexp.MustCompile(`^goroutine (\d+) \[([^\],]+)`)

// TestPlantKillAndClose: Kill(p) makes the liveness monitor report exactly
// p dead, and Close joins every goroutine the plant started — controller,
// connection handlers, agents and their heartbeats. The check is taken the
// instant Close returns, with no grace period (see unjoined).
func TestPlantKillAndClose(t *testing.T) {
	ft, err := core.Build(core.Params{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := unjoined(nil)
	p, err := StartPlant(context.Background(), ft, 5*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, running := unjoined(before); len(running) == 0 {
		t.Fatal("plant runs no goroutines")
	}
	p.Kill(2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := p.Controller().WaitForFailures(ctx, []int{2}, testDeadline); err != nil {
		t.Fatal(err)
	}
	if dead := p.Controller().DeadPods(testDeadline); !reflect.DeepEqual(dead, []int{2}) {
		t.Errorf("DeadPods = %v, want [2]", dead)
	}
	p.Close()
	if _, leaked := unjoined(before); len(leaked) > 0 {
		t.Fatalf("%d goroutines outlived Close:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
}

// TestAgentRunJoinsHeartbeat: Run does not return while its heartbeat
// goroutine is still running. The test parks that goroutine on the
// agent's write lock, cancels the session, and requires Run to stay
// inside until the lock is released.
func TestAgentRunJoinsHeartbeat(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	a := NewAgent(0, nil)
	a.HeartbeatInterval = time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := make(chan error, 1)
	go func() { ran <- a.Run(ctx, l.Addr().String()) }()
	conn, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if typ, _, err := ReadFrame(conn); err != nil || typ != MsgHello {
		t.Fatalf("first frame %s, %v; want hello", typ, err)
	}

	a.wmu.Lock()
	for parked := false; !parked; {
		buf := make([]byte, 1<<20)
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			parked = parked || strings.Contains(g, ").heartbeat(") && strings.Contains(g, "sync.(*Mutex).Lock")
		}
		runtime.Gosched()
	}
	cancel()
	select {
	case err := <-ran:
		t.Fatalf("Run returned (%v) while its heartbeat goroutine was still blocked", err)
	case <-time.After(50 * time.Millisecond):
	}
	a.wmu.Unlock()
	if err := <-ran; err != nil {
		t.Fatalf("Run: %v", err)
	}
}
