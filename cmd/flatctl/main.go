// Command flatctl demonstrates the flat-tree control plane (§2.6) as
// separate controller and agent processes speaking the ctrl wire protocol
// over TCP.
//
// Usage:
//
//	flatctl serve -k 8 -listen 127.0.0.1:7447
//	    Run the centralized controller for a flat-tree(k).
//
//	flatctl agent -k 8 -pod 3 -connect 127.0.0.1:7447
//	    Run the converter agent for one pod.
//
//	flatctl demo -k 8 [-mode global-random|local-random|clos|hybrid]
//	    Run controller and all k agents in-process, perform the
//	    conversion, and print the resulting topology statistics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flattree/internal/core"
	"flattree/internal/ctrl"
	"flattree/internal/metrics"
	"flattree/internal/topo"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "agent":
		agent(os.Args[2:])
	case "demo":
		demo(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: flatctl serve|agent|demo [flags]")
	os.Exit(2)
}

func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	k := fs.Int("k", 8, "fat-tree parameter")
	listen := fs.String("listen", "127.0.0.1:7447", "controller listen address")
	mode := fs.String("mode", "global-random", "target mode once all agents register")
	fs.Parse(args)

	ft := buildFlatTree(*k)
	c := ctrl.NewController(ft)
	l, err := net.Listen("tcp", *listen)
	check(err)
	fmt.Printf("flatctl: controller for flat-tree(k=%d) on %s, waiting for %d agents\n", *k, l.Addr(), *k)
	// Ctrl-C / SIGTERM cancels the context: Serve closes the listener and
	// Close drains the per-connection goroutines, mirroring flatsim.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, 5*time.Minute)
	defer cancel()
	go c.Serve(ctx, l)
	defer c.Close()
	check(c.WaitForAgents(ctx, *k))
	fmt.Printf("flatctl: %d agents registered, converting to %s\n", c.NumAgents(), *mode)
	modes, err := parseModes(*mode, *k)
	check(err)
	start := time.Now()
	check(c.Convert(ctx, modes))
	fmt.Printf("flatctl: conversion committed at epoch %d in %v\n", c.Epoch(), time.Since(start))
	printStats(c.FlatTree())
}

func agent(args []string) {
	fs := flag.NewFlagSet("agent", flag.ExitOnError)
	k := fs.Int("k", 8, "fat-tree parameter")
	pod := fs.Int("pod", 0, "pod index this agent manages")
	connect := fs.String("connect", "127.0.0.1:7447", "controller address")
	delay := fs.Duration("apply-delay", 0, "simulated converter switching latency")
	fs.Parse(args)

	ft := buildFlatTree(*k)
	if *pod < 0 || *pod >= *k {
		check(fmt.Errorf("pod %d out of range [0,%d)", *pod, *k))
	}
	a := ctrl.NewAgent(*pod, ctrl.ConfigsForPod(ft, *pod))
	a.ApplyDelay = *delay
	fmt.Printf("flatctl: agent for pod %d connecting to %s\n", *pod, *connect)
	// Ctrl-C / SIGTERM cancels the agent's context; Run tears down its
	// connection and returns the context error, which exits 0 here — an
	// operator stopping an agent is a clean shutdown, not a failure.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := a.Run(ctx, *connect); err != nil && !errors.Is(err, context.Canceled) {
		check(err)
	}
}

func demo(args []string) {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	k := fs.Int("k", 8, "fat-tree parameter")
	mode := fs.String("mode", "global-random", "target mode: clos, global-random, local-random, hybrid")
	delay := fs.Duration("apply-delay", 5*time.Millisecond, "simulated converter switching latency")
	fs.Parse(args)

	ft := buildFlatTree(*k)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	plant, err := ctrl.StartPlant(ctx, ft, 0, *delay)
	check(err)
	defer plant.Close()
	c := plant.Controller()
	fmt.Printf("flatctl demo: flat-tree(k=%d), %d converters, %d agents\n",
		*k, len(ft.Convs), c.NumAgents())

	modes, err := parseModes(*mode, *k)
	check(err)
	start := time.Now()
	check(c.Convert(ctx, modes))
	fmt.Printf("conversion to %q committed at epoch %d in %v\n", *mode, c.Epoch(), time.Since(start))
	printStats(c.FlatTree())
}

func parseModes(mode string, k int) ([]core.Mode, error) {
	modes := make([]core.Mode, k)
	var m core.Mode
	switch mode {
	case "clos":
		m = core.ModeClos
	case "global-random":
		m = core.ModeGlobalRandom
	case "local-random":
		m = core.ModeLocalRandom
	case "hybrid":
		for p := range modes {
			if p < k/2 {
				modes[p] = core.ModeGlobalRandom
			} else {
				modes[p] = core.ModeLocalRandom
			}
		}
		return modes, nil
	default:
		return nil, fmt.Errorf("unknown mode %q", mode)
	}
	for p := range modes {
		modes[p] = m
	}
	return modes, nil
}

// buildFlatTree builds the k-pod flat-tree every subcommand manages, in
// the Clos mode the plant boots in.
func buildFlatTree(k int) *core.FlatTree {
	ft, err := core.Build(core.Params{K: k})
	check(err)
	return ft
}

func printStats(ft *core.FlatTree) {
	nw := ft.Net()
	st := nw.Stats()
	fmt.Printf("effective topology: %d links (clos=%d converter=%d side=%d)\n",
		st.Links, st.LinksByTag[topo.TagClos], st.LinksByTag[topo.TagConverter], st.LinksByTag[topo.TagSide])
	apl, err := metrics.AveragePathLength(nw)
	check(err)
	fmt.Printf("average server-pair path length: %.3f hops\n", apl)
}

func check(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "flatctl: interrupted:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "flatctl:", err)
	os.Exit(1)
}
