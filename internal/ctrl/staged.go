package ctrl

import (
	"context"
	"fmt"
	"sort"

	"flattree/internal/core"
)

// StagedConvert converts the fabric to the target modes in batches of at
// most batchSize pods, committing each batch through the two-phase protocol
// before starting the next. Converter switching takes real time (§2.7),
// and while a pod's converters flip, every cable they tap is dark; staging
// bounds that blast radius.
//
// Before each batch the controller analyzes the transition window on its
// model: if requireConnected is set and the surviving fabric would
// partition the still-attached servers, the conversion stops before
// touching hardware, leaving earlier batches committed (each batch is a
// valid hybrid state, so stopping mid-way is safe).
//
// The per-batch transition reports are returned for operator visibility.
//
//flatlint:ignore testonly the §2.7 staged-conversion mechanism behind DESIGN §5's k = 8 partition finding
func (c *Controller) StagedConvert(ctx context.Context, modes []core.Mode, batchSize int, requireConnected bool) ([]core.TransitionReport, error) {
	if batchSize <= 0 {
		batchSize = 1
	}
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
	for start := 0; start < len(pods); start += batchSize {
		end := start + batchSize
		if end > len(pods) {
			end = len(pods)
		}
		batch := pods[start:end]

		c.mu.Lock()
		rep, err := c.ft.AnalyzeTransition(batch)
		if err != nil {
			c.mu.Unlock()
			return reports, err
		}
		intermediate := c.ft.Modes()
		c.mu.Unlock()
		reports = append(reports, rep)
		if requireConnected && !rep.Connected {
			return reports, fmt.Errorf("ctrl: batch %v would partition live servers during switching", batch)
		}

		for _, p := range batch {
			intermediate[p] = modes[p]
		}
		if err := c.Convert(ctx, intermediate); err != nil {
			return reports, fmt.Errorf("ctrl: batch %v: %w", batch, err)
		}
	}
	return reports, nil
}
