package shard

import (
	"fmt"
	"net"

	"bdcc/internal/iosim"
)

// Sim is the in-process simulated remote backend: the protocol client of
// net.go talking to the worker Server of net.go — the very same two halves
// a real deployment runs, speaking the wire protocol of docs/WIRE.md —
// connected by an in-memory net.Pipe instead of a TCP socket. Nothing is
// simulated but the wire itself: the plan fragment ships as bytes at
// setup, every group unit and result batch crosses the stream
// length-framed and encoded (the remote side decodes fresh memory and
// shares none with the query's operators), the remote box runs its own
// scheduler and meters its own hash tables, and transport activity is
// charged to an iosim accountant over a network device — producing the
// modeled network time tpch.Stats.Net reports where a real deployment pays
// wall-clock time.
//
// Because both halves are the production implementations, a passing run
// over Sim is a passing run of the full wire protocol; swapping the pipe
// for a dialed connection (Dial) is the only difference between the
// simulation and a real bdccworker.
type Sim struct {
	*client
	srv *Server
}

// NewSim returns a simulated remote backend whose worker half runs its own
// pool of `workers` goroutines, charging transport activity to acct (nil
// disables network accounting).
func NewSim(workers int, acct *iosim.Accountant) *Sim {
	srv := NewServer(workers)
	local, remote := net.Pipe()
	srv.ServeConn(remote)
	cl, err := newClient(local, "sim", "", acct)
	if err != nil {
		// The handshake runs between two goroutines of this process over a
		// fresh pipe; it cannot fail without a protocol-implementation bug.
		panic(fmt.Sprintf("shard: in-process handshake failed: %v", err))
	}
	return &Sim{client: cl, srv: srv}
}

// Close implements engine.Backend: it closes the client half (joining its
// read loop) and shuts the in-process worker down (joining its session and
// in-flight unit tasks), so a closed backend leaves no goroutines behind on
// either side of the pipe.
func (s *Sim) Close() error {
	err := s.client.Close()
	s.srv.Close()
	return err
}

// Worker returns the backend's in-process worker half — its memory tracker
// and unit counters are the remote box's meters.
func (s *Sim) Worker() *Server { return s.srv }
