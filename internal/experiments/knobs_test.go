package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// TestKnobTable pins the table's own invariants: names are unique flag-safe
// words, every default sits inside its knob's domain (k, whose default is
// kmax, excepted), Set(Get()) is the identity, no knob takes an infinite or
// NaN value, and the defaults are the paper-scaled laptop sweep
// DefaultConfig has always returned.
func TestKnobTable(t *testing.T) {
	seen := map[string]bool{}
	def := NewRequest()
	for _, k := range Knobs() {
		if seen[k.Name] || k.Name == "" || k.Name != strings.ToLower(k.Name) || k.Name == "exp" || k.Name == "col" {
			t.Errorf("knob name %q is empty, duplicated, mixed-case or reserved", k.Name)
		}
		seen[k.Name] = true
		if k.Usage == "" {
			t.Errorf("knob %s has no usage text", k.Name)
		}
		if k.Name == "k" {
			continue
		}
		r := def
		if err := k.Set(&r, k.Get(&def)); err != nil {
			t.Errorf("knob %s rejects its own default: %v", k.Name, err)
		}
		if !reflect.DeepEqual(r, def) {
			t.Errorf("knob %s: Set(Get()) changed the request: %+v -> %+v", k.Name, def, r)
		}
		// ParseFloat spells these; an infinite soak rate or horizon would
		// never terminate, so no knob may take one.
		for _, v := range []string{"Inf", "+Inf", "-inf", "NaN", "Inf,1,1,1", "1,1,1,+Inf"} {
			if err := k.Set(&r, v); err == nil {
				t.Errorf("knob %s accepts %q", k.Name, v)
			}
		}
	}
	want := Config{KMin: 4, KMax: 16, KStep: 2, Seed: 1, Epsilon: 0.1, HybridK: 10, Trials: 1}
	if got := DefaultConfig(); got != want {
		t.Errorf("DefaultConfig() = %+v; want %+v", got, want)
	}
}

// TestResolve covers the rules no single knob can state: unset fields take
// defaults (a zero that is a legal value stays), k inherits kmax and is
// checked only where it is read, and kmin may not pass kmax.
func TestResolve(t *testing.T) {
	r := Request{Config: Config{KMax: 8}, Spec: CellSpec{Experiment: "soak", Batch: 3}}
	if err := Resolve(&r); err != nil {
		t.Fatal(err)
	}
	if r.Spec.K != 8 || r.Spec.Soak.BatchSize != 3 || r.Spec.FailFrac != 0.25 || r.Config.Trials != 1 {
		t.Errorf("defaults not resolved: %+v", r)
	}
	if r.Config.Seed != 0 || r.Config.KMin != 0 {
		t.Errorf("a legal zero was overwritten: seed=%d kmin=%d", r.Config.Seed, r.Config.KMin)
	}
	for _, c := range []struct {
		req  Request
		want string
	}{
		{Request{Config: Config{KMin: 4, KMax: 7}, Spec: CellSpec{Experiment: "fig5"}}, ""},
		{Request{Config: Config{KMin: 4, KMax: 7}, Spec: CellSpec{Experiment: "faults"}}, ">= 4 and even"},
		{Request{Config: Config{KMin: 4, KMax: 7}, Spec: CellSpec{Experiment: "faults", K: 6}}, ""},
		{Request{Config: Config{KMin: 8, KMax: 4}, Spec: CellSpec{Experiment: "fig5"}}, "kmin=8 > kmax=4"},
		{Request{Config: Config{KMin: 4, KMax: 8}, Spec: CellSpec{Experiment: "fig5", Column: "zzz"}}, "no column"},
		{Request{Spec: CellSpec{Experiment: "nope"}}, "unknown experiment"},
	} {
		err := Resolve(&c.req)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("Resolve(%+v): %v", c.req.Spec, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("Resolve(%+v) = %v; want an error mentioning %q", c.req.Spec, err, c.want)
		}
	}
}
