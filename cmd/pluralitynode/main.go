// Command pluralitynode runs one process of a networked plurality-consensus
// cluster: it binds a TCP listener, hosts its share of the node ids (round
// robin over the mesh), and executes the selected protocol by exchanging
// pull messages with its peer processes until the cluster reaches
// consensus and every local node's termination gadget halts.
//
// Examples:
//
//	pluralitynode -n 64                 # whole cluster in one process
//
//	# two processes sharing one 64-node cluster (run concurrently):
//	pluralitynode -listen 127.0.0.1:9001 -peers 127.0.0.1:9001,127.0.0.1:9002 -n 64
//	pluralitynode -listen 127.0.0.1:9002 -peers 127.0.0.1:9001,127.0.0.1:9002 -n 64
//
// Every process must be started with the same -peers list, -protocol,
// -counts/-n and -seed: the mesh derives node ownership (id mod processes)
// and the deterministic initial opinion blocks from them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"plurality/internal/node"
	"plurality/internal/protocols"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pluralitynode:", err)
		os.Exit(1)
	}
}

// run parses flags, joins the mesh and drives the local nodes to consensus.
func run(ctx context.Context, args []string, out, logw io.Writer) error {
	fs := flag.NewFlagSet("pluralitynode", flag.ContinueOnError)
	fs.SetOutput(logw)
	listen := fs.String("listen", "127.0.0.1:0", "this process's listen address")
	peers := fs.String("peers", "", "comma-separated full mesh address list, identical on every process and containing -listen; empty runs the whole cluster in this process")
	protocol := fs.String("protocol", "two-choices", "registered dynamics protocol (two-choices, voter, 3-majority, usd, j-majority:<j>)")
	n := fs.Int("n", 64, "total nodes in the cluster (all processes combined); ignored when -counts is set")
	countsFlag := fs.String("counts", "", "comma-separated initial opinion counts (e.g. 40,24); default splits -n 60/40")
	seed := fs.Uint64("seed", 1, "deterministic seed shared by every process")
	maxTime := fs.Float64("maxtime", 0, "simulated-time budget (0 = library default)")
	unit := fs.Duration("unit", node.DefaultUnit, "wall-clock duration of one simulated time unit")
	reserve := fs.Bool("reserve-port", false, "bind a free loopback port, print it and exit (for launcher scripts)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *reserve {
		return reservePort(out)
	}

	counts, err := parseCounts(*countsFlag, *n)
	if err != nil {
		return err
	}
	var total int64
	for _, c := range counts {
		total += c
	}

	_, rule, err := protocols.Lookup(*protocol)
	if err != nil {
		return err
	}

	hosts, local, err := meshHosts(*listen, *peers)
	if err != nil {
		return err
	}
	mesh, err := node.NewTCPMesh(hosts, local, int(total), *unit)
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "pluralitynode: process %d/%d listening on %s, hosting %d of %d nodes\n",
		local, len(hosts), mesh.Addr(), localCount(int(total), len(hosts), local), total)

	res, err := node.Run(ctx, node.ClusterConfig{
		Rule:    rule,
		Counts:  counts,
		Seed:    *seed,
		MaxTime: *maxTime,
		Network: mesh,
		Local:   func(id int) bool { return id%len(hosts) == local },
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "pluralitynode: consensus winner=%d time=%.3f ticks=%d msgs=%d\n",
		res.Winner, res.ConsensusTime, res.Ticks, res.Messages)
	return nil
}

// reservePort binds an ephemeral loopback port, prints its number and
// releases it — the standard bind-then-close reservation (listeners set
// SO_REUSEADDR, so the caller's immediate rebind succeeds). Launcher
// scripts use it to hand every process the same collision-free -peers list.
func reservePort(out io.Writer) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	_, port, err := net.SplitHostPort(l.Addr().String())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, port)
	return err
}

// parseCounts resolves the -counts/-n pair into the initial opinion
// histogram: an explicit comma list wins; otherwise n splits 60/40 into a
// biased two-color instance.
func parseCounts(spec string, n int) ([]int64, error) {
	if spec == "" {
		if n < 2 {
			return nil, fmt.Errorf("-n %d: need at least 2 nodes", n)
		}
		maj := (n*3 + 4) / 5 // 60%, rounded up
		return []int64{int64(maj), int64(n - maj)}, nil
	}
	parts := strings.Split(spec, ",")
	counts := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-counts %q: %w", spec, err)
		}
		counts[i] = v
	}
	return counts, nil
}

// meshHosts resolves the -listen/-peers pair into the ordered mesh list and
// this process's index in it.
func meshHosts(listen, peers string) (hosts []string, local int, err error) {
	if peers == "" {
		return []string{listen}, 0, nil
	}
	for _, h := range strings.Split(peers, ",") {
		hosts = append(hosts, strings.TrimSpace(h))
	}
	for i, h := range hosts {
		if h == listen {
			return hosts, i, nil
		}
	}
	return nil, 0, fmt.Errorf("-listen %s does not appear in -peers %s", listen, peers)
}

// localCount is the number of node ids the round-robin ownership rule
// assigns to process local out of p processes.
func localCount(n, p, local int) int {
	return (n - local + p - 1) / p
}
