package ctrl

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// WaitForFailures blocks until every listed pod has been silent for at
// least deadline, or ctx expires: each must have registered, and its last
// received message (heartbeat or protocol traffic) must be older than the
// deadline. After killing a set of agents, waiting here guarantees the
// monitor's verdict is stable before repair planning starts.
//
// A dropped TCP connection alone does not kill a pod — transient network
// blips and agent restarts are expected, and a reconnecting agent
// re-registers. Only the deadline decides death, which also means a
// reconnection within the deadline fully heals the verdict.
//
// It sleeps until the earliest instant a pending pod can cross its
// deadline — that pod's last receipt plus deadline — so a death is seen
// as soon as the verdict holds, not at the next step of a poll schedule.
// A pod that never registered waits one full deadline, so the loop never
// spins faster than the verdict can change. On success the returned slice
// is nil; on cancellation it holds the sorted pods that were still live,
// so the caller knows which deaths never stabilized.
func (c *Controller) WaitForFailures(ctx context.Context, pods []int, deadline time.Duration) ([]int, error) {
	for {
		live, wake := c.pendingFailures(pods, deadline)
		if len(live) == 0 {
			return nil, nil
		}
		timer := time.NewTimer(time.Until(wake)) //flatlint:ignore clockwall the death verdict is defined against real elapsed time
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			sort.Ints(live)
			return live, fmt.Errorf("ctrl: %w waiting for %d of %d pods to fail", ctx.Err(), len(live), len(pods))
		}
	}
}

// pendingFailures returns the listed pods not yet silent past deadline,
// and the earliest instant one of them can be: its last receipt plus
// deadline, or one deadline from now for a pod that never registered.
func (c *Controller) pendingFailures(pods []int, deadline time.Duration) (live []int, wake time.Time) {
	now := time.Now() //flatlint:ignore clockwall the death verdict is defined against real elapsed time
	cutoff := now.Add(-deadline)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range pods {
		at := now.Add(deadline)
		if seen, ok := c.lastSeen[uint32(p)]; ok {
			if seen.Before(cutoff) {
				continue
			}
			at = seen.Add(deadline)
		}
		live = append(live, p)
		if wake.IsZero() || at.Before(wake) {
			wake = at
		}
	}
	return live, wake
}
