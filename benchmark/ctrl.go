package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"flattree/internal/core"
	"flattree/internal/ctrl"
	"flattree/internal/experiments"
	"flattree/internal/faults"
	"flattree/internal/graph"
	"flattree/internal/mcf"
	"flattree/internal/parallel"
	"flattree/internal/topo"
)

// fabric is a live control plane: a flat-tree model, its controller serving
// on loopback TCP, and one agent per pod speaking the real wire codec.
type fabric struct {
	ft      *core.FlatTree
	c       *ctrl.Controller
	cancels []context.CancelFunc // per-pod agent
	stopAll context.CancelFunc
	served  chan struct{}
	agents  sync.WaitGroup
}

// startFabric builds flat-tree(k) in the given uniform mode and brings up
// the controller and k registered agents, as experiments.SelfHeal and
// `flatctl demo` do. heartbeat 0 keeps the agents' default.
func startFabric(ctx context.Context, b *spanBuf, parent open, k int, mode core.Mode, heartbeat time.Duration) (*fabric, error) {
	ft, err := buildFlat(b, parent, core.Params{K: k}, mode)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sp := b.start(parent, "ctrl.register")
	defer sp.end()
	sctx, stopAll := context.WithCancel(ctx)
	f := &fabric{ft: ft, c: ctrl.NewController(ft), stopAll: stopAll, served: make(chan struct{})}
	go func() {
		defer close(f.served)
		f.c.Serve(sctx, l)
	}()
	for p := 0; p < k; p++ {
		a := ctrl.NewAgent(p, ctrl.ConfigsForPod(ft, p))
		a.HeartbeatInterval = heartbeat
		actx, cancel := context.WithCancel(sctx)
		f.cancels = append(f.cancels, cancel)
		f.agents.Add(1)
		go func() {
			defer f.agents.Done()
			_ = a.Run(actx, l.Addr().String()) // an agent's exit races teardown; liveness is checked through the controller
		}()
	}
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := f.c.WaitForAgents(wctx, k); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// stop ends every agent and the controller and waits for their goroutines.
func (f *fabric) stop() {
	f.stopAll()
	f.agents.Wait()
	f.c.Close()
	<-f.served
}

func uniform(k int, m core.Mode) []core.Mode {
	modes := make([]core.Mode, k)
	for i := range modes {
		modes[i] = m
	}
	return modes
}

// epochCycle is the conversion the convert phase repeats: every pod to
// global-random, to local-random, back to Clos.
var epochCycle = []core.Mode{core.ModeGlobalRandom, core.ModeLocalRandom, core.ModeClos}

// healFailFrac and healBatch are experiments.SelfHeal's scenario: a quarter
// of the pod agents die, one pod re-aims per dark window.
const (
	healFailFrac = 0.25
	healBatch    = 1
)

func runCtrl(ctx context.Context, e *env) error {
	// Set-up, several times for a steady setup_s: fabric built, agents
	// registered, WarmEpochs warm-up epochs. The last fabric is the one
	// measured.
	k := e.sz.ConvertK
	var f *fabric
	var setup []float64
	for i := 0; i < e.sz.SetupReps; i++ {
		if f != nil {
			f.stop()
		}
		t0 := time.Now()
		var err error
		if f, err = startFabric(ctx, nil, open{}, k, core.ModeClos, 0); err != nil {
			return err
		}
		for n := 0; n < e.sz.WarmEpochs; n++ {
			if err := f.c.Convert(ctx, uniform(k, epochCycle[n%len(epochCycle)])); err != nil {
				f.stop()
				return fmt.Errorf("warm-up epoch: %w", err)
			}
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	defer f.stop()

	// convert runs a chunk of n conversion epochs: closed loop, one epoch
	// after the other, each from the mode the one before left.
	b := e.tr.buf()
	var epochMS, planUS []float64
	convert := func(n int) error {
		root := b.start(open{}, "convert-phase")
		defer root.end()
		for ; n > 0; n-- {
			modes := uniform(k, epochCycle[len(epochMS)%len(epochCycle)])
			if e.traced() {
				// Plan alone, for ctrl.plan_us; Convert plans again itself.
				sp := b.start(root, "ctrl.plan")
				t0 := time.Now()
				_, err := f.c.Plan(modes)
				planUS = append(planUS, float64(time.Since(t0))/1e3)
				sp.end()
				if err != nil {
					return err
				}
			}
			sp := b.start(root, "ctrl.convert")
			t0 := time.Now()
			err := f.c.Convert(ctx, modes)
			epochMS = append(epochMS, time.Since(t0).Seconds()*1e3)
			sp.end()
			e.res.Attempted++
			if err != nil {
				e.res.fail(1, "epoch %d: %v", len(epochMS), err)
			}
		}
		return nil
	}

	cfg := experiments.Config{Seed: e.seed, Epsilon: 0.1, Trials: e.sz.HealTrials, Parallelism: e.sz.W}
	if e.traced() {
		if err := convert(e.sz.TracedEpochs); err != nil {
			return err
		}
		return e.ctrlTraced(ctx, cfg, epochMS, planUS)
	}

	// Every repetition is a chunk of conversion epochs, then
	// experiments.SelfHeal end to end (including the 60 ms heartbeat-deadline
	// detection of every trial), so that both phases are sampled across the
	// whole run and a slow stretch of the host cannot fall on one of them
	// alone.
	walls, allocs, anchor, err := e.reps(e.sz.Seconds, func(seed uint64) (rep, error) {
		if err := convert(e.sz.EpochChunk); err != nil {
			return rep{}, err
		}
		cfg.Seed = seed
		return healOnce(ctx, cfg, e.sz.HealK)
	})
	if err != nil {
		return err
	}
	e.res.samples("setup_s", setup)
	e.res.samples("wall_s", walls)
	e.res.samples("alloc_mb", allocs)
	e.res.samples("heal_s", walls)
	e.res.samples("epoch_p50_ms", epochMS)
	e.res.Notes = append(e.res.Notes, tailNote("conversion epoch", epochMS, "ms"))
	e.checkAnchor(anchor, healTolerance)
	return nil
}

// healOnce is one self-heal repetition: the driver call through WriteTSV.
func healOnce(ctx context.Context, cfg experiments.Config, k int) (r rep, err error) {
	r.wall, r.allocMB, err = timed(func() error {
		tab, err := experiments.SelfHeal(ctx, cfg, k, healFailFrac, healBatch)
		if err != nil {
			return err
		}
		r.tables = []*experiments.Table{tab}
		r.tsv, err = renderTSV(r.tables)
		return err
	})
	return r, err
}

// ctrlTraced finishes the traced pass: the convert-phase layers, then one
// self-heal trial driven untraced and replayed from exported functions.
func (e *env) ctrlTraced(ctx context.Context, cfg experiments.Config, epochMS, planUS []float64) error {
	cfg.Trials = 1
	driven, err := healOnce(ctx, cfg, e.sz.HealK)
	if err != nil {
		return err
	}
	var st solveStats
	windows := 0
	_, err = e.replayAgainst(driven, func(b *spanBuf, root open) ([]*experiments.Table, error) {
		tab, n, err := replayHeal(ctx, cfg, e.sz.HealK, b, root, driven.tables[0].Title, driven.tables[0].Header, &st)
		windows = n
		return []*experiments.Table{tab}, err
	})
	if err != nil {
		return err
	}
	st.check(e.res)
	e.res.Reference = fmt.Sprintf("not compared: the replayed table has one trial, the reference %d", e.sz.HealTrials)

	lt := foldLayers(e.tr.all())
	st.layers(e.res, lt)
	e.buildLayers(lt)
	e.traceLayers(lt)

	// core.convert_ms here is the in-process floor of an epoch: the same
	// three conversions on a private model, no controller, no wire.
	floor, err := convertFloorMS(e.sz.ConvertK)
	if err != nil {
		return err
	}
	e.res.layer("core.convert_ms", floor)
	es := sorted(epochMS)
	e.res.layer("ctrl.protocol_ms", quantileSorted(es, 0.5)-floor)
	e.res.layer("ctrl.epoch_p99_ms", quantileSorted(es, 0.99))
	e.res.layer("ctrl.plan_us", median(planUS))
	wire, err := wireUS(e.sz.ConvertK)
	if err != nil {
		return err
	}
	e.res.layer("ctrl.wire_us", wire)
	e.res.layer("ctrl.detect_ms", lt.ms("ctrl.detect"))
	e.res.layer("ctrl.selfheal_ms", lt.ms("ctrl.selfheal"))
	e.res.layer("ctrl.windows", float64(windows))
	e.res.layer("faults.analyze_ms", lt.ms("faults.analyze"))
	return nil
}

// convertFloorMS is the median SetUniformMode over ten epoch cycles.
func convertFloorMS(k int) (float64, error) {
	ft, err := core.Build(core.Params{K: k})
	if err != nil {
		return 0, err
	}
	var ms []float64
	for i := 0; i < 10*len(epochCycle); i++ {
		t0 := time.Now()
		if err := ft.SetUniformMode(epochCycle[i%len(epochCycle)]); err != nil {
			return 0, err
		}
		ms = append(ms, time.Since(t0).Seconds()*1e3)
	}
	return median(ms), nil
}

// wireUS times one Stage message through the codec: Marshal, WriteFrame
// into a buffer, ReadFrame, Unmarshal — what one pod's share of an epoch
// costs on the wire format alone. The message is pod 0's real plan for a
// Clos → global-random conversion.
func wireUS(k int) (float64, error) {
	ft, err := core.Build(core.Params{K: k})
	if err != nil {
		return 0, err
	}
	plan, err := ctrl.NewController(ft).Plan(uniform(k, core.ModeGlobalRandom))
	if err != nil {
		return 0, err
	}
	stage := ctrl.Stage{Epoch: 1, Entries: plan[0]}
	var buf bytes.Buffer
	var codecErr error
	us := perCallUS(1, func(int) {
		buf.Reset()
		if err := ctrl.WriteFrame(&buf, ctrl.MsgStage, ctrl.MarshalStage(stage)); err != nil {
			codecErr = err
			return
		}
		_, payload, err := ctrl.ReadFrame(&buf)
		if err == nil {
			_, err = ctrl.UnmarshalStage(payload)
		}
		if err != nil {
			codecErr = err
		}
	})
	return us, codecErr
}

// replayHeal recomputes trial 0 of experiments.SelfHeal one exported call
// at a time: live fabric with 5 ms heartbeats → kill a seeded quarter of the
// agents → WaitForFailures at the 60 ms deadline → Controller.SelfHeal →
// per stage faults.Analyze and a Solve on one pooled Solver, so each stage
// warm-starts from the one before. Stage names match the driver's table;
// windows is how many dark windows the repair executed.
func replayHeal(ctx context.Context, cfg experiments.Config, k int, b *spanBuf, root open, title string, header []string, st *solveStats) (t *experiments.Table, windows int, err error) {
	nDead := min(max(int(healFailFrac*float64(k)), 1), k-1)
	seeds := parallel.NewSeedStream(cfg.Seed)
	seed := seeds.Seed(0)

	f, err := startFabric(ctx, b, root, k, core.ModeGlobalRandom, 5*time.Millisecond)
	if err != nil {
		return nil, 0, err
	}
	defer f.stop()
	pre := f.ft.Net()
	dead := append([]int(nil), graph.NewRNG(seed).Perm(k)[:nDead]...)
	sort.Ints(dead)
	for _, p := range dead {
		f.cancels[p]()
	}
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	sp := b.start(root, "ctrl.detect")
	_, err = f.c.WaitForFailures(wctx, dead, 60*time.Millisecond)
	sp.end()
	if err != nil {
		return nil, 0, err
	}
	sp = b.start(root, "ctrl.selfheal")
	rep, err := f.c.SelfHeal(ctx, dead, ctrl.SelfHealOptions{Seed: seed, BatchSize: healBatch, RequireConnected: true})
	sp.end()
	if err != nil {
		return nil, 0, err
	}
	windows = len(rep.Windows)

	type stage struct {
		name string
		nw   *topo.Network
	}
	stages := []stage{{"pre-failure", pre}, {"failed", rep.Degraded}}
	for i, w := range rep.Windows {
		stages = append(stages, stage{fmt.Sprintf("window-%d", i+1), w.Dark})
	}
	stages = append(stages, stage{"recovered", rep.Healed})

	t = &experiments.Table{Title: title, Header: header}
	s := mcf.GetSolver()
	defer s.Release()
	for _, sg := range stages {
		// Dark windows detach servers by design; every other stage is a
		// whole network and must validate (output check 6).
		if !strings.HasPrefix(sg.name, "window-") {
			if err := validate(b, root, sg.nw); err != nil {
				return nil, 0, fmt.Errorf("%s: %w", sg.name, err)
			}
		}
		sp := b.start(root, "faults.analyze")
		an, err := faults.Analyze(sg.nw)
		sp.end()
		if err != nil {
			return nil, 0, err
		}
		lambda, approx := 0.0, false
		sp = b.start(root, "traffic.gen")
		comms := componentCommodities(sg.nw, seeds.Seed(1<<32))
		sp.end()
		if len(comms) > 0 {
			sp = b.start(root, "mcf.solve")
			res, err := s.Solve(ctx, sg.nw, comms, mcf.Options{Epsilon: cfg.Epsilon, SkipDualBound: true})
			sp.end()
			if err != nil {
				return nil, 0, err
			}
			st.add(res, len(comms))
			lambda, approx = res.Lambda, res.Approximate
		}
		aplCell := "-"
		if an.APL > 0 {
			aplCell = fmt.Sprintf("%.3f", an.APL)
		}
		t.AddRow(sg.name, "1", fmt.Sprintf("%.3f", an.LargestComponentFrac), aplCell, lambdaCell(lambda, approx))
	}
	return t, windows, nil
}

// componentCommodities is the self-heal driver's workload: a seeded
// permutation over the servers of the largest connected component, unit
// demand each (servers detached by a dark window are down, not
// partitioned).
func componentCommodities(nw *topo.Network, seed uint64) []mcf.Commodity {
	g := nw.Graph()
	servers := nw.Servers()
	seen := make([]bool, nw.N())
	var best []int
	for _, s := range servers {
		if seen[s] {
			continue
		}
		dist := g.BFS(s)
		var comp []int
		for _, sv := range servers {
			if dist[sv] >= 0 && !seen[sv] {
				seen[sv] = true
				comp = append(comp, sv)
			}
		}
		if len(comp) > len(best) {
			best = comp
		}
	}
	if len(best) < 2 {
		return nil
	}
	var comms []mcf.Commodity
	for i, p := range graph.NewRNG(seed).Perm(len(best)) {
		if i != p {
			comms = append(comms, mcf.Commodity{Src: best[i], Dst: best[p], Demand: 1})
		}
	}
	return comms
}
