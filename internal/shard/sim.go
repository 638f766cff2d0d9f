package shard

import (
	"fmt"
	"net"
	"sync"

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
	srv   *Server
	ended <-chan struct{} // closes when the worker side of the session has ended
	owned bool            // srv is this backend's own, closed with it
}

// NewSim returns a simulated remote backend on a worker of its own, whose
// pool runs `workers` goroutines, charging transport activity to acct (nil
// disables network accounting). Its worker meters this backend alone.
func NewSim(workers int, acct *iosim.Accountant) *Sim {
	s := dialSim(NewServer(workers), acct)
	s.owned = true
	return s
}

// dialSim opens one session on srv over a fresh pipe.
func dialSim(srv *Server, acct *iosim.Accountant) *Sim {
	local, remote := net.Pipe()
	ended := srv.ServeConn(remote)
	cl, err := newClient(local, "sim", "", acct)
	if err != nil {
		// The handshake runs between two goroutines of this process over a
		// fresh pipe; it cannot fail without a protocol-implementation bug.
		panic(fmt.Sprintf("shard: in-process handshake failed: %v", err))
	}
	return &Sim{client: cl, srv: srv, ended: ended}
}

// fleets holds the simulated workers NewSet opens its sessions on: one
// fleet of n Servers per (n, workers), created on first use and kept for the
// life of the process, as bdccworker daemons outlive the queries that dial
// them — so a partition shipped to a fleet worker stays resident for the
// next query's set. An idle Server holds no goroutines.
var fleets struct {
	sync.Mutex
	m map[[2]int][]*Server
}

// fleet returns the n simulated workers of `workers` pool goroutines each.
func fleet(n, workers int) []*Server {
	fleets.Lock()
	defer fleets.Unlock()
	key := [2]int{n, workers}
	if fleets.m == nil {
		fleets.m = make(map[[2]int][]*Server)
	}
	if f, ok := fleets.m[key]; ok {
		return f
	}
	f := make([]*Server, n)
	for i := range f {
		f[i] = NewServer(workers)
	}
	fleets.m[key] = f
	return f
}

// Close implements engine.Backend: it closes the client half (joining its
// read loop) and joins the worker side of the session — its read loop and
// in-flight unit tasks — so a closed backend leaves no goroutines behind on
// either side of the pipe. A backend of NewSim shuts its own worker down
// too; a fleet worker lives on.
func (s *Sim) Close() error {
	err := s.client.Close()
	<-s.ended
	if s.owned {
		s.srv.Close()
	}
	return err
}

// Worker returns the backend's in-process worker half — its memory tracker
// and unit counters are the remote box's meters.
func (s *Sim) Worker() *Server { return s.srv }
