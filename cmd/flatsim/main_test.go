package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"flattree/internal/core"
	"flattree/internal/experiments"
	"flattree/internal/serve"
)

// TestCLIMatchesCell pins the one-dispatch contract: for every registered
// experiment, `flatsim -tsv <exp>` prints exactly the bytes
// experiments.Cell renders for the same knobs (k=4 throughout), so the CLI,
// the determinism suite and /v1/cell run the same cell. profile's extra
// "best:" line is the one footer on stdout.
func TestCLIMatchesCell(t *testing.T) {
	flags := []string{"-tsv", "-kmax", "4", "-k", "4", "-eps", "0.3", "-rate", "2", "-horizon", "3"}
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

	// flagMessage and queryMessage strip the flag package's or the HTTP
	// response's framing from a rejection, leaving the knob's own message.
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

	// An odd kmin or kstep is out of domain too: the sweep would skip
	// every k it lands on and print an empty or thinned table.
	outOfDomain := map[string][]string{
		"kmin": {"four", "5", "-2"}, "kmax": {"8.0"}, "kstep": {"0", "3"}, "seed": {"-1"}, "eps": {"0.5"},
		"trials": {"0"}, "k": {"5", "0"}, "failfrac": {"1"}, "batch": {"0"}, "load": {"0", "Inf"},
		"switchfrac": {"1"}, "burstpods": {"-1"}, "burstfrac": {"-0.1"}, "convfrac": {"NaN"},
		"rate": {"0"}, "horizon": {"-3"}, "episodes": {"-1"}, "windowcost": {"0"}, "slo": {"1.01"},
		"mix": {"1,2,3", "0,0,0,0"}, "timeout": {"-1s"},
	}
	for _, k := range experiments.Knobs() {
		bads, ok := outOfDomain[k.Name]
		if !ok {
			t.Errorf("knob %s has no out-of-domain value in this test", k.Name)
			continue
		}
		for _, bad := range bads {
			flagMsg, queryMsg := flagMessage("fig5", k.Name, bad), queryMessage("fig5", k.Name, bad)
			if flagMsg != queryMsg || !strings.Contains(flagMsg, k.Name+"=") {
				t.Errorf("%s=%s: flag path says %q, query path says %q", k.Name, bad, flagMsg, queryMsg)
			}
		}
	}

	for _, c := range []struct {
		exp   string
		pairs []string
		want  string
	}{
		{"fig5", []string{"kmin", "8", "kmax", "4"}, "kmin=8 > kmax=4"},
		{"faults", []string{"kmax", "7"}, `k="7" must be an integer >= 4 and even`},
		{"hybrid", []string{"k", "5"}, `k="5" must be an integer >= 4 and even`},
		{"fig5", []string{"kmin", "5", "kmax", "9"}, `kmin="5" must be an integer >= 0 and even`},
		{"fig5", []string{"kmin", "4", "kstep", "3", "kmax", "10"}, `kstep="3" must be an integer > 0 and even`},
		{"nope", nil, `unknown experiment "nope"`},
	} {
		flagMsg, queryMsg := flagMessage(c.exp, c.pairs...), queryMessage(c.exp, c.pairs...)
		if flagMsg != queryMsg || !strings.Contains(flagMsg, c.want) {
			t.Errorf("%s %v: flag path says %q, query path says %q; want both to say %q",
				c.exp, c.pairs, flagMsg, queryMsg, c.want)
		}
	}
}

// TestHelpShowsOnlyRealDefaults: -h prints a knob's default only when it
// is a value the knob accepts. k's unset 0 means kmax or the experiment's
// own size, so no default is printed for it; kmax's 16 and burstfrac's 0
// are real values and are printed.
func TestHelpShowsOnlyRealDefaults(t *testing.T) {
	var diag bytes.Buffer
	if _, err := parseArgs([]string{"-h"}, &diag); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("parseArgs(-h) = %v, want flag.ErrHelp", err)
	}
	entry := func(name string) string {
		_, rest, ok := strings.Cut(diag.String(), "\n  -"+name+" ")
		if !ok {
			t.Fatalf("-h lists no -%s:\n%s", name, diag.String())
		}
		text, _, _ := strings.Cut(rest, "\n  -")
		return text
	}
	if e := entry("k"); strings.Contains(e, "(default") {
		t.Errorf("-k shows a default it does not have: %q", e)
	}
	for name, def := range map[string]string{"kmax": "16", "burstfrac": "0"} {
		if e := entry(name); !strings.Contains(e, "(default "+def+")") {
			t.Errorf("-%s: %q, want (default %s)", name, e, def)
		}
	}
}

// TestExport: export writes the global-random flat-tree at -k, k = 4 when
// -k is unset, and a bad -exportmode or -format is rejected by parseArgs
// (exit 2) before anything is built.
func TestExport(t *testing.T) {
	ft, err := core.BuildIn(core.Params{K: 4}, core.ModeGlobalRandom)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := ft.Net().WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-k", "4", "-format", "json", "export"}, {"-format", "json", "export"}} {
		var diag bytes.Buffer
		c, err := parseArgs(args, &diag)
		if err != nil {
			t.Fatalf("%v: parseArgs: %v\n%s", args, err, diag.String())
		}
		var got bytes.Buffer
		if err := c.run(context.Background(), "export", &got); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("flatsim %v differs from core.BuildIn(k=4, global-random)'s WriteJSON", args)
		}
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-exportmode", "hybrid", "export"}, `unknown mode "hybrid"`},
		{[]string{"-format", "svg", "export"}, `unknown export format "svg"`},
	} {
		var diag bytes.Buffer
		if _, err := parseArgs(c.args, &diag); err == nil || !strings.Contains(diag.String(), c.want) {
			t.Errorf("flatsim %v: err %v, stderr %q; want a rejection mentioning %q", c.args, err, diag.String(), c.want)
		}
	}
}
