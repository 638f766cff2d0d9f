package shard

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"

	"bdcc/internal/iosim"
	"bdcc/internal/wire"
)

// Health probing: the recovery half of failover. A backend that fails is
// marked down, and — when it has a dialable address — a prober goroutine
// drives it through the down → probing → up state machine: sleep a bounded,
// jittered exponential backoff, re-dial, handshake, and prove session
// liveness with a ping round-trip before handing the fresh connection back
// to the failover set for re-admission (failover.go). Every wait and every
// dial is bound to the set's context, so closing the set (or cancelling the
// query) stops a prober mid-backoff instead of sleeping the window out.

// ProbeConfig tunes the health prober of one backend set. The zero value
// selects the defaults below.
type ProbeConfig struct {
	// Base is the first reconnect backoff; attempt n waits a jittered
	// min(Max, Base·2ⁿ). Default 100ms.
	Base time.Duration
	// Max caps the backoff growth. Default 5s (and never below Base).
	Max time.Duration
	// DialTimeout bounds each reconnect dial plus hello exchange.
	// Default wire.HandshakeTimeout.
	DialTimeout time.Duration
	// PingTimeout bounds the liveness round-trip on a fresh connection.
	// Default 2s.
	PingTimeout time.Duration
}

func (p ProbeConfig) withDefaults() ProbeConfig {
	if p.Base <= 0 {
		p.Base = 100 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 5 * time.Second
	}
	p.Max = max(p.Max, p.Base)
	if p.DialTimeout <= 0 {
		p.DialTimeout = wire.HandshakeTimeout
	}
	if p.PingTimeout <= 0 {
		p.PingTimeout = 2 * time.Second
	}
	return p
}

// backoff returns the delay before reconnect attempt `attempt` (0-based):
// full jitter over [d/2, d] where d = min(Max, Base·2^attempt). The bound
// keeps a long outage from growing unbounded waits; the jitter keeps the
// probers of many queries (all watching the same restarted worker) from
// re-dialing it in one synchronized thundering herd.
func (p ProbeConfig) backoff(attempt int, rng *rand.Rand) time.Duration {
	d := p.Max
	if attempt < 40 { // past 2^40 the shift alone exceeds any sane Max
		if e := p.Base << uint(attempt); e > 0 && e < d {
			d = e
		}
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// dialProbe is one reconnect attempt: dial, hello exchange, ping. The dial
// honours ctx (a cancelled query abandons the attempt immediately) and the
// handshake is aborted on cancellation by closing the connection under it.
func dialProbe(ctx context.Context, addr, token string, acct *iosim.Accountant, cfg ProbeConfig) (*client, error) {
	dctx, cancel := context.WithTimeout(ctx, cfg.DialTimeout)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(dctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrBackendDown, addr, err)
	}
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	cl, err := newClient(conn, addr, token, acct)
	if err != nil {
		return nil, err
	}
	if err := cl.Ping(cfg.PingTimeout); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// probeLoop is the prober goroutine of one down slot: backoff, re-dial,
// re-admit, until it succeeds or the set closes. The failover set starts at
// most one per slot (slot.probing) and joins them all on Close.
func (f *failover) probeLoop(i int) {
	s := f.slots[i]
	for attempt := 0; ; attempt++ {
		f.mu.Lock()
		d := f.probe.backoff(attempt, f.rng) // rng is not goroutine-safe
		f.mu.Unlock()
		t := time.NewTimer(d)
		select {
		case <-f.ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		cl, err := dialProbe(f.ctx, s.addr, f.token, f.acct, f.probe)
		if err != nil {
			if f.ctx.Err() != nil {
				return
			}
			continue
		}
		res := f.readmit(i, cl)
		if res == readmitOK {
			return
		}
		cl.Close()
		if res == readmitClosed {
			return
		}
		// readmitRetry: the fresh connection died during fragment preload;
		// back off and probe again.
	}
}
