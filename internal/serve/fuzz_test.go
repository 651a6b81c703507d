package serve

import (
	"math"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"flattree/internal/experiments"
)

// FuzzCellQuery fuzzes the one query parser and the content address behind
// it. For arbitrary query strings: parsing never panics; an accepted query
// re-encoded canonically — every knob spelled out, defaults included, in
// its Get form — is accepted again and names the same key; the order the
// parameters arrive in never matters; and no accepted knob value is
// infinite or NaN. The seed corpus is testdata/fuzz/FuzzCellQuery.
func FuzzCellQuery(f *testing.F) {
	defaults := experiments.DefaultConfig()
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		req, err := parseCellRequest(defaults, q)
		if err != nil {
			return
		}
		key := cellKey("fuzz", req)
		for _, k := range experiments.Knobs() {
			if v, err := strconv.ParseFloat(k.Get(req), 64); err == nil && (math.IsInf(v, 0) || math.IsNaN(v)) {
				t.Fatalf("query %q accepted with %s=%s", raw, k.Name, k.Get(req))
			}
		}

		canon := url.Values{"exp": {req.Spec.Experiment}, "col": {req.Spec.Column}}
		for _, k := range experiments.Knobs() {
			v := k.Get(req)
			// A resolved value is in its knob's domain except k inherited
			// from an odd kmax by a sweep experiment that never reads it;
			// that one cannot be spelled, so it stays implied.
			if scratch := *req; !k.Query() || k.Set(&scratch, v) != nil {
				continue
			}
			canon.Set(k.Name, v)
		}
		again, err := parseCellRequest(defaults, canon)
		if err != nil {
			t.Fatalf("query %q accepted, but its canonical form %q rejected: %v", raw, canon.Encode(), err)
		}
		if got := cellKey("fuzz", again); got != key {
			t.Errorf("query %q and its canonical form %q hash to different keys", raw, canon.Encode())
		}

		for _, vals := range q {
			if len(vals) > 1 {
				return // a repeated parameter takes its first value: order is meaning
			}
		}
		parts := strings.FieldsFunc(raw, func(r rune) bool { return r == '&' })
		for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
			parts[i], parts[j] = parts[j], parts[i]
		}
		rq, err := url.ParseQuery(strings.Join(parts, "&"))
		if err != nil {
			t.Fatalf("reversing %q broke it: %v", raw, err)
		}
		reversed, err := parseCellRequest(defaults, rq)
		if err != nil || cellKey("fuzz", reversed) != key {
			t.Errorf("query %q changes meaning with its parameters reversed (err=%v)", raw, err)
		}
	})
}
