package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"flattree/internal/experiments"
	"flattree/internal/serve"
)

// TestCLIMatchesCell pins the one-dispatch contract: for every registered
// experiment, `flatsim -tsv <exp>` prints exactly the bytes
// experiments.Cell renders for the same knobs (k=4 throughout), so the CLI,
// the determinism suite and /v1/cell run the same cell. profile's extra
// "best:" line is the one footer on stdout.
func TestCLIMatchesCell(t *testing.T) {
	flags := []string{"-tsv", "-kmax", "4", "-hybridk", "4", "-profilek", "4",
		"-eps", "0.3", "-rate", "2", "-horizon", "3"}
	for _, exp := range experiments.CellExperiments() {
		var diag bytes.Buffer
		c, err := parseArgs(append(flags[:len(flags):len(flags)], exp), &diag)
		if err != nil {
			t.Fatalf("%s: parseArgs: %v\n%s", exp, err, diag.String())
		}
		var stdout bytes.Buffer
		if err := c.run(context.Background(), exp, &stdout); err != nil {
			t.Fatalf("flatsim %s: %v", exp, err)
		}

		req, err := c.request(exp)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := experiments.Cell(context.Background(), req.Config, req.Spec)
		if err != nil {
			t.Fatalf("Cell(%s): %v", exp, err)
		}
		var want bytes.Buffer
		if err := tab.WriteTSV(&want); err != nil {
			t.Fatal(err)
		}
		want.WriteByte('\n') // the blank line that separates -tsv tables

		got := stdout.String()
		if exp == "profile" {
			i := strings.Index(got, "best: ")
			if i < 0 {
				t.Errorf("profile: no best: footer in\n%s", got)
				continue
			}
			got = got[:i]
		}
		if got != want.String() {
			t.Errorf("flatsim -tsv %s differs from Cell:\n--- flatsim\n%s--- Cell\n%s", exp, got, want.String())
		}
	}
}

// TestDomainsAgreeAcrossSurfaces feeds each knob an out-of-domain value on
// the flag path and on the /v1/cell query path: both must reject it, with
// the same message, because both run the knob's one domain predicate. The
// cross-knob rules (kmin <= kmax, a scenario's k inherited from kmax) are
// held to the same standard.
func TestDomainsAgreeAcrossSurfaces(t *testing.T) {
	srv, err := serve.New(serve.Config{StoreDir: t.TempDir(), Defaults: experiments.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// flagMessage and queryMessage strip each surface's framing from a
	// rejection, leaving the knob's own message.
	flagMessage := func(exp string, pairs ...string) string {
		t.Helper()
		var args []string
		for i := 0; i < len(pairs); i += 2 {
			args = append(args, "-"+pairs[i], pairs[i+1])
		}
		var diag bytes.Buffer
		if _, err := parseArgs(append(args, exp), &diag); err == nil {
			t.Errorf("flatsim %v %s: accepted", args, exp)
			return ""
		}
		first, _, _ := strings.Cut(diag.String(), "\n")
		if _, msg, ok := strings.Cut(first, ": "); ok && strings.HasPrefix(first, "invalid value") {
			return msg
		}
		return strings.TrimPrefix(first, "flatsim: ")
	}
	queryMessage := func(exp string, pairs ...string) string {
		t.Helper()
		q := url.Values{"exp": {exp}}
		for i := 0; i < len(pairs); i += 2 {
			q.Set(pairs[i], pairs[i+1])
		}
		resp, err := ts.Client().Get(ts.URL + "/v1/cell?" + q.Encode())
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/v1/cell?%s: status %d; want 400", q.Encode(), resp.StatusCode)
			return ""
		}
		return strings.TrimSpace(strings.TrimPrefix(string(body), "bad request: "))
	}

	outOfDomain := map[string]string{
		"kmin": "four", "kmax": "8.0", "kstep": "0", "seed": "-1", "eps": "0.5",
		"hybridk": "0", "trials": "0", "profilek": "7", "failfrac": "1", "batch": "0",
		"switchfrac": "1", "burstpods": "-1", "burstfrac": "-0.1", "convfrac": "NaN",
		"rate": "0", "horizon": "-3", "episodes": "-1", "windowcost": "0", "slo": "1.01",
		"timeout": "-1s",
	}
	for _, k := range experiments.Knobs() {
		if !k.Flag() || !k.Query() {
			continue
		}
		bad, ok := outOfDomain[k.Name]
		if !ok {
			t.Errorf("knob %s has no out-of-domain value in this test", k.Name)
			continue
		}
		flagMsg, queryMsg := flagMessage("fig5", k.Name, bad), queryMessage("fig5", k.Name, bad)
		if flagMsg != queryMsg || !strings.Contains(flagMsg, k.Name+"=") {
			t.Errorf("%s=%s: flag path says %q, query path says %q", k.Name, bad, flagMsg, queryMsg)
		}
	}

	for _, c := range []struct {
		exp   string
		pairs []string
		want  string
	}{
		{"fig5", []string{"kmin", "8", "kmax", "4"}, "kmin=8 > kmax=4"},
		{"faults", []string{"kmax", "7"}, `k="7" must be an integer >= 4 and even`},
		{"nope", nil, `unknown experiment "nope"`},
	} {
		flagMsg, queryMsg := flagMessage(c.exp, c.pairs...), queryMessage(c.exp, c.pairs...)
		if flagMsg != queryMsg || !strings.Contains(flagMsg, c.want) {
			t.Errorf("%s %v: flag path says %q, query path says %q; want both to say %q",
				c.exp, c.pairs, flagMsg, queryMsg, c.want)
		}
	}
}
