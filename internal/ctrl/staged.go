package ctrl

import (
	"context"
	"fmt"
	"sort"

	"flattree/internal/core"
)

// StagedConvert converts the fabric to the target modes in batches of
// pods, committing each batch through the two-phase protocol before
// starting the next, and returns the §2.7 transition report of every
// batch. Converter switching takes real time (§2.7), and while a pod's
// converters flip, every cable they tap is dark: converting every pod at
// once can partition the live servers (from Clos at k = 8 and 10 it does).
//
// The controller plans the batches on its model. Before each one it grows
// the batch over the remaining changed pods, in ascending order, for as
// long as the dark window stays Connected; a single pod is always a batch
// of its own, since no smaller step exists. Each committed batch is a
// valid hybrid state, and an error mid-way stops at a batch boundary (see
// Convert): the model is at the last batch that every pod staged, and a
// pod that missed that batch's commit is brought up to it when its agent
// registers again.
func (c *Controller) StagedConvert(ctx context.Context, modes []core.Mode) ([]core.TransitionReport, error) {
	plan, err := c.Plan(modes)
	if err != nil {
		return nil, err
	}
	pods := make([]int, 0, len(plan))
	for pod := range plan {
		pods = append(pods, int(pod))
	}
	sort.Ints(pods)
	if len(pods) == 0 {
		return nil, c.Convert(ctx, modes) // mode labels only
	}

	var reports []core.TransitionReport
	for len(pods) > 0 {
		c.mu.Lock()
		n, rep, err := c.nextBatch(pods)
		intermediate := c.ft.Modes()
		c.mu.Unlock()
		if err != nil {
			return reports, err
		}
		reports = append(reports, rep)
		batch := pods[:n]
		for _, p := range batch {
			intermediate[p] = modes[p]
		}
		if err := c.Convert(ctx, intermediate); err != nil {
			return reports, fmt.Errorf("ctrl: batch %v: %w", batch, err)
		}
		pods = pods[n:]
	}
	return reports, nil
}

// nextBatch returns the length of the batch that starts pods — the longest
// prefix whose dark window leaves the live servers connected, or the first
// pod alone — and that window's report. The caller holds c.mu.
func (c *Controller) nextBatch(pods []int) (int, core.TransitionReport, error) {
	rep, err := c.ft.AnalyzeTransition(pods[:1])
	if err != nil {
		return 0, rep, err
	}
	n := 1
	for ; rep.Connected && n < len(pods); n++ {
		next, err := c.ft.AnalyzeTransition(pods[:n+1])
		if err != nil {
			return 0, rep, err
		}
		if !next.Connected {
			break
		}
		rep = next
	}
	return n, rep, nil
}
