package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/url"
	"sort"

	"flattree/internal/experiments"
)

// parseCellRequest builds a /v1/cell request from the server's default
// Config and the query: exp and col select the cell, and every other
// parameter is a Query knob of experiments.Knobs(), parsed and
// domain-checked by that knob. Anything else is rejected, so client typos
// ("kMax", "epsilon") fail loudly instead of silently computing the default
// cell. The result is Resolved — defaults filled in — which is what makes
// equal cells hash to equal addresses. Every error is a client error
// (http 400).
func parseCellRequest(defaults experiments.Config, q url.Values) (*experiments.Request, error) {
	var unknown []string
	for name := range q {
		if !queryParams[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown parameters %v", unknown)
	}
	req := &experiments.Request{Config: defaults}
	req.Spec.Experiment, req.Spec.Column = q.Get("exp"), q.Get("col")
	for _, k := range experiments.Knobs() {
		if k.Query() && q.Has(k.Name) {
			if err := k.Set(req, q.Get(k.Name)); err != nil {
				return nil, err
			}
		}
	}
	if err := experiments.Resolve(req); err != nil {
		return nil, err
	}
	return req, nil
}

// queryParams is the accepted /v1/cell parameter set: the cell selectors plus
// every Query knob.
var queryParams = func() map[string]bool {
	m := map[string]bool{"exp": true, "col": true}
	for _, k := range experiments.Knobs() {
		if k.Query() {
			m[k.Name] = true
		}
	}
	return m
}()

// addressFormat versions the canonical encoding below; bump it when cell
// bytes change meaning without any field changing.
const addressFormat = 2

// cellKey is the content address of a resolved request under one code
// version: the SHA-256 of the format version, the code version, the cell,
// and every identity knob's canonical value in declaration order. Execution
// knobs (parallelism, timeouts, solve budgets) are deliberately absent —
// they shape when a solve stops, never what a converged one prints, and
// approximate results are never cached.
func cellKey(code string, req *experiments.Request) string {
	b := make([]byte, 0, 512)
	b = fmt.Appendf(b, "v=%d\ncode=%q\nexp=%q\ncol=%q\n", addressFormat, code, req.Spec.Experiment, req.Spec.Column)
	for _, k := range experiments.Knobs() {
		if k.Identity {
			b = append(append(b, k.Name...), '=')
			b = append(k.Append(b, req), '\n')
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
