package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bdcc/internal/engine"
	"bdcc/internal/expr"
	"bdcc/internal/iosim"
	"bdcc/internal/vector"
	"bdcc/internal/wire"
)

// startWorker starts an in-process worker Server on a loopback TCP listener
// and returns it with its dialable address. Cleanup closes it (idempotent,
// so tests may close earlier to simulate a crash).
func startWorker(t *testing.T, workers int) (*Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(workers)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return srv, l.Addr().String()
}

// TestFragmentCodecRoundTrip checks the plan-fragment wire form: schemas,
// keys, type, and residual reproduce exactly, and the decoded fragment
// prepares and joins like the original.
func TestFragmentCodecRoundTrip(t *testing.T) {
	probe, build := testStreams(2, 8)
	orig := &engine.Fragment{
		Probe: probe.schema, Build: build.schema,
		ProbeKeys: []string{"lkey"}, BuildKeys: []string{"rkey"},
		Type:     engine.InnerJoin,
		Residual: expr.NewCmp(expr.GT, expr.C("rpay"), expr.Float(0.75)),
	}
	buf, err := EncodeFragment(orig, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFragment(buf)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Probe) != fmt.Sprint(orig.Probe) || fmt.Sprint(got.Build) != fmt.Sprint(orig.Build) {
		t.Fatalf("schemas changed across the wire: %v / %v", got.Probe, got.Build)
	}
	if fmt.Sprint(got.ProbeKeys) != fmt.Sprint(orig.ProbeKeys) ||
		fmt.Sprint(got.BuildKeys) != fmt.Sprint(orig.BuildKeys) || got.Type != orig.Type {
		t.Fatalf("keys or type changed across the wire")
	}
	if got.Residual == nil || got.Residual.String() != orig.Residual.String() {
		t.Fatalf("residual changed across the wire: %v", got.Residual)
	}
	if err := orig.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := got.Prepare(); err != nil {
		t.Fatal(err)
	}
	u := &engine.GroupUnit{GID: 0,
		Probe: []*vector.Batch{probe.batches[0]},
		Build: []*vector.Batch{build.batches[0]},
	}
	render := func(f *engine.Fragment) (out []string) {
		if err := f.Run(u, func(b *vector.Batch) {
			for i := 0; i < b.Len(); i++ {
				row := make([]string, len(b.Cols))
				for c, col := range b.Cols {
					row[c] = col.GetString(i)
				}
				out = append(out, fmt.Sprint(row))
			}
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want, have := render(orig), render(got)
	if len(want) == 0 {
		t.Fatal("residual join produced no rows — vacuous test")
	}
	if fmt.Sprint(want) != fmt.Sprint(have) {
		t.Fatalf("decoded fragment joins differently:\n%v\n%v", have, want)
	}

	// No-residual and truncation paths.
	plain := &engine.Fragment{Probe: probe.schema, Build: build.schema,
		ProbeKeys: []string{"lkey"}, BuildKeys: []string{"rkey"}}
	buf2, err := EncodeFragment(plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := DecodeFragment(buf2)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Residual != nil {
		t.Fatal("nil residual decoded as non-nil")
	}
	for n := 0; n < len(buf); n += 3 {
		if _, err := DecodeFragment(buf[:n]); err == nil {
			t.Fatalf("truncated fragment (%d of %d bytes) decoded without error", n, len(buf))
		}
	}
}

// FuzzDecodeFragment: arbitrary bytes offered as a plan fragment decode
// cleanly or error, and a decoded join fragment prepares or errors and, once
// prepared, runs an empty unit to nothing — never a panic. Seeded with real
// fragments (an inner join with a residual, a semi join without one, a scan
// with a filter) and their truncations.
func FuzzDecodeFragment(f *testing.F) {
	probe, build := testStreams(1, 2)
	for _, frag := range []*engine.Fragment{
		{Probe: probe.schema, Build: build.schema, ProbeKeys: []string{"lkey"}, BuildKeys: []string{"rkey"},
			Residual: expr.NewAnd(expr.NewCmp(expr.GT, expr.C("rpay"), expr.Float(0.75)), expr.NewLike(expr.C("ltag"), "p1%"))},
		{Probe: probe.schema, Build: build.schema, ProbeKeys: []string{"lkey"}, BuildKeys: []string{"rkey"}, Type: engine.SemiJoin},
		{Kind: engine.FragScan, Table: "lineitem", Probe: probe.schema,
			Residual: expr.NewIn(expr.C("ltag"), expr.Str("p1"), expr.Str("p2"))},
	} {
		buf, err := EncodeFragment(frag, nil)
		if err != nil {
			f.Fatal(err)
		}
		for n := 0; n < len(buf); n += 9 {
			f.Add(buf[:n])
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frag, err := DecodeFragment(data)
		if err != nil || frag.Kind != engine.FragJoin || frag.Prepare() != nil {
			return
		}
		if err := frag.Run(&engine.GroupUnit{}, func(*vector.Batch) { t.Fatal("an empty unit emitted a batch") }); err != nil {
			t.Fatalf("an empty unit failed: %v", err)
		}
	})
}

// TestTCPBackendMatchesSerial is the loopback-TCP equivalence leg: the
// sandwich join sharded over two real bdccworker servers (dialed over
// loopback TCP, fragments and batches crossing real sockets) must
// reproduce the serial join byte-identically, and closing the set must
// leave no goroutines or connections behind.
func TestTCPBackendMatchesSerial(t *testing.T) {
	base := runtime.NumGoroutine()
	serialCtx := &engine.Context{Mem: &engine.MemTracker{}}
	serial, err := engine.Run(serialCtx, sandwich(serialCtx, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := renderRows(serial)

	srv1, addr1 := startWorker(t, 2)
	srv2, addr2 := startWorker(t, 2)
	t.Run("hash", func(t *testing.T) {
		set, err := DialSet([]string{addr1, addr2}, PaperNet())
		if err != nil {
			t.Fatal(err)
		}
		ctx := &engine.Context{Mem: &engine.MemTracker{}, Options: engine.Options{Workers: 1}}
		ctx.Backends = set.Backends()
		ctx.Cluster = set
		res, err := engine.Run(ctx, sandwich(ctx, set.Backends(), set.Route))
		if err != nil {
			t.Fatal(err)
		}
		got := renderRows(res)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("TCP-sharded run differs from serial (%d vs %d rows)", len(got), len(want))
		}
		if cur := ctx.Mem.Current(); cur != 0 {
			t.Fatalf("%d bytes still accounted after Close", cur)
		}
		if st := set.Net().Stats(); st.Runs < 64 || st.Bytes == 0 {
			t.Fatalf("loopback run recorded implausible transport stats: %+v", st)
		}
		if err := ctx.CloseBackends(); err != nil {
			t.Fatal(err)
		}
	})
	if srv1.UnitsDone()+srv2.UnitsDone() < 32 {
		t.Fatalf("workers completed %d+%d units, want 32 (one per group)",
			srv1.UnitsDone(), srv2.UnitsDone())
	}
	if srv1.UnitsDone() == 0 || srv2.UnitsDone() == 0 {
		t.Fatalf("one worker executed nothing (%d / %d) — routing is not spreading groups",
			srv1.UnitsDone(), srv2.UnitsDone())
	}
	srv1.Close()
	srv2.Close()
	if cur := srv1.Mem().Current(); cur != 0 {
		t.Fatalf("worker 1 still accounts %d bytes after close", cur)
	}
	waitGoroutines(t, base+2)
}

// TestFailoverReroutesKilledWorker is the failover acceptance test: one of
// two workers is killed mid-stream — deterministically, after completing
// its third unit — and the run must still match the serial oracle byte for
// byte, because every failed and future unit of the dead worker reroutes to
// the survivor. No goroutines or connections may leak, and the query-side
// tracker must balance.
func TestFailoverReroutesKilledWorker(t *testing.T) {
	base := runtime.NumGoroutine()
	serialCtx := &engine.Context{Mem: &engine.MemTracker{}}
	serial, err := engine.Run(serialCtx, sandwich(serialCtx, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := renderRows(serial)

	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srv1, addr1 := startWorker(t, 2)
			srv2, addr2 := startWorker(t, 2)
			var killed atomic.Bool
			srv2.OnUnitDone = func(total int64) {
				if total == 3 && !killed.Swap(true) {
					go srv2.Close() // async: Close joins the calling unit task
				}
			}
			set, err := DialSet([]string{addr1, addr2}, PaperNet())
			if err != nil {
				t.Fatal(err)
			}
			ctx := &engine.Context{Mem: &engine.MemTracker{}, Options: engine.Options{Workers: workers}}
			ctx.Backends = set.Backends()
			ctx.Cluster = set
			res, err := engine.Run(ctx, sandwich(ctx, set.Backends(), set.Route))
			if err != nil {
				t.Fatalf("run with a killed worker failed instead of failing over: %v", err)
			}
			got := renderRows(res)
			if len(got) != len(want) {
				t.Fatalf("rerouted run returns %d rows, serial %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("row %d = %s after failover, serial has %s", i, got[i], want[i])
				}
			}
			if !killed.Load() {
				t.Fatal("worker 2 was never killed — the reroute path went unexercised")
			}
			if cur := ctx.Mem.Current(); cur != 0 {
				t.Fatalf("%d bytes still accounted after failover run", cur)
			}
			if err := ctx.CloseBackends(); err != nil {
				t.Fatal(err)
			}
			srv1.Close()
			srv2.Close()
		})
	}
	waitGoroutines(t, base+2)
}

// renderBatch renders a batch's rows as display strings, for comparing
// emitted unit output against a direct fragment run.
func renderBatch(b *vector.Batch) []string {
	out := make([]string, b.Len())
	for i := range out {
		row := make([]string, len(b.Cols))
		for c, col := range b.Cols {
			row[c] = col.GetString(i)
		}
		out[i] = fmt.Sprint(row)
	}
	return out
}

// TestFailoverExhaustion checks the terminal case of a set with no
// survivors: the unit degrades gracefully, running on the coordinator's own
// copy of the fragment, byte-identical to a worker run, with the downgrade
// counted and every dead slot left probing for re-admission.
func TestFailoverExhaustion(t *testing.T) {
	base := runtime.NumGoroutine()
	frag := testFragment(t)
	probe, build := testStreams(1, 2)
	unit := func() *engine.GroupUnit {
		return &engine.GroupUnit{GID: 0,
			Probe: []*vector.Batch{probe.batches[0], probe.batches[1]},
			Build: []*vector.Batch{build.batches[0]},
		}
	}
	var want []string
	if err := frag.Run(unit(), func(b *vector.Batch) {
		want = append(want, renderBatch(b)...)
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("test unit joins to no rows — vacuous test")
	}

	t.Run("local-fallback", func(t *testing.T) {
		srv1, addr1 := startWorker(t, 1)
		srv2, addr2 := startWorker(t, 1)
		set, err := DialSet([]string{addr1, addr2}, PaperNet())
		if err != nil {
			t.Fatal(err)
		}
		srv1.Close()
		srv2.Close()
		var got []string
		done := make(chan error, 1)
		set.Backends()[0].RunGroup(unit(), frag,
			func(b *vector.Batch) { got = append(got, renderBatch(b)...) },
			func(err error) { done <- err })
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("all-down unit failed instead of degrading to the local fragment: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("unit with no surviving backends never completed")
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("local fallback produced %d rows != direct run's %d", len(got), len(want))
		}
		if n := set.LocalFallbackUnits(); n != 1 {
			t.Fatalf("local fallback recorded %d units, want 1", n)
		}
		for i, h := range set.Health() {
			if h.State != "probing" || h.Downs < 1 {
				t.Fatalf("slot %d after all-down: %+v, want probing with a down recorded", i, h)
			}
		}
		for _, b := range set.Backends() {
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})

	waitGoroutines(t, base+2)
}

// TestDialFailureIsBackendDown checks refused dials carry the reroute
// marker, and that a dead member no longer fails DialSet: its slot joins
// the set down and probing, and units preferring it route to the survivor.
func TestDialFailureIsBackendDown(t *testing.T) {
	base := runtime.NumGoroutine()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()
	if _, err := Dial(dead, nil); !errors.Is(err, ErrBackendDown) {
		t.Fatalf("dial to a dead address returned %v, want ErrBackendDown", err)
	}
	srv, addr := startWorker(t, 1)
	set, err := DialSet([]string{addr, dead}, PaperNet())
	if err != nil {
		t.Fatalf("DialSet with a dead member failed instead of admitting it down: %v", err)
	}
	if h := set.Health(); h[1].State != "probing" || h[1].Downs != 1 {
		t.Fatalf("dead member health %+v, want probing with one down transition", h[1])
	}
	frag := testFragment(t)
	probe, _ := testStreams(1, 2)
	done := make(chan error, 1)
	rows := 0
	set.Backends()[1].RunGroup(
		&engine.GroupUnit{GID: 0, Probe: []*vector.Batch{probe.batches[0]}},
		frag, func(b *vector.Batch) { rows += b.Len() }, func(err error) { done <- err })
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("unit preferring the dead slot failed instead of routing around it: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("unit preferring the dead slot never completed")
	}
	if srv.UnitsDone() != 1 {
		t.Fatalf("survivor served %d units, want the rerouted 1", srv.UnitsDone())
	}
	for _, b := range set.Backends() {
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	waitGoroutines(t, base+2)
}

// TestHelloVersionMismatch locks in the versioning rule of docs/WIRE.md: a
// worker answers a mismatched client hello with its own version and drops
// the session without executing anything.
func TestHelloVersionMismatch(t *testing.T) {
	// A peer of the previous protocol or of any other version meets a worker
	// of this one: the worker replies
	// with its real version, then drops the session.
	for _, v := range []uint16{ProtoVersion - 1, ProtoVersion + 41} {
		_, addr := startWorker(t, 1)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		hello := append(wire.Buf(), ProtoMagic...)
		hello = binary.LittleEndian.AppendUint16(hello, v)
		if err := wire.Write(conn, nil, 0, wire.TypeHello, hello); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, typ, payload, err := wire.Read(conn, nil)
		if err != nil {
			t.Fatalf("no hello reply before drop: %v", err)
		}
		if typ != wire.TypeHello || binary.LittleEndian.Uint16(payload) != ProtoVersion {
			t.Fatalf("hello reply type %d version %d, want the worker's real version %d",
				typ, binary.LittleEndian.Uint16(payload), ProtoVersion)
		}
		if _, _, _, err := wire.Read(conn, nil); err != io.EOF {
			t.Fatalf("worker kept a version-%d session open (read returned %v, want EOF)", v, err)
		}
	}
	// The other way round: this client meets a worker that answers with the
	// previous version, and refuses the session naming both.
	local, remote := net.Pipe()
	go func() {
		defer remote.Close()
		if _, _, _, err := wire.Read(remote, nil); err != nil {
			return
		}
		reply := binary.LittleEndian.AppendUint16(wire.Buf(), ProtoVersion-1)
		wire.Write(remote, nil, 0, wire.TypeHello, binary.LittleEndian.AppendUint16(reply, 1))
	}()
	_, err := newClient(local, "old-worker", "", nil)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d, this build speaks %d", ProtoVersion-1, ProtoVersion)) {
		t.Fatalf("a version-%d worker was accepted or misreported: %v", ProtoVersion-1, err)
	}
}

// TestSimWorkerMeters checks the remote box meters its own hash tables: a
// sharded run charges the worker-side tracker, not (beyond in-flight unit
// clones) the query-side one, and the worker tracker balances after the
// run.
func TestSimWorkerMeters(t *testing.T) {
	ctx := &engine.Context{Mem: &engine.MemTracker{}, Options: engine.Options{Workers: 1}}
	sim := NewSim(2, iosim.NewAccountant(PaperNet()))
	ctx.Backends = []engine.Backend{sim}
	res, err := engine.Run(ctx, sandwich(ctx, ctx.Backends, func(uint64, int64) int { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows() == 0 {
		t.Fatal("no rows — vacuous test")
	}
	if peak := sim.Worker().Mem().Peak(); peak <= 0 {
		t.Fatalf("worker-side tracker saw no hash-table memory (peak %d)", peak)
	}
	if cur := sim.Worker().Mem().Current(); cur != 0 {
		t.Fatalf("worker-side tracker still accounts %d bytes", cur)
	}
	if done := sim.Worker().UnitsDone(); done != 32 {
		t.Fatalf("worker completed %d units for 32 groups", done)
	}
	if err := sim.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHelloAuthToken locks in the auth rule: a session presenting the
// worker's shared secret works end to end, any mismatch — wrong token, or a
// token where none is configured — is dropped without a reply.
func TestHelloAuthToken(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(1)
	srv.SetAuthToken("sesame")
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	addr := l.Addr().String()

	b, err := DialToken(addr, "sesame", nil)
	if err != nil {
		t.Fatalf("matching token rejected: %v", err)
	}
	if err := b.(*client).Ping(5 * time.Second); err != nil {
		t.Fatalf("authenticated session not live: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := DialToken(addr, "wrong", nil); err == nil {
		t.Fatal("wrong token produced a session")
	}
	if _, err := Dial(addr, nil); err == nil {
		t.Fatal("missing token produced a session")
	}

	// The reverse mismatch: a tokenless worker only accepts tokenless peers.
	_, open := startWorker(t, 1)
	if _, err := DialToken(open, "extra", nil); err == nil {
		t.Fatal("unexpected token accepted by a tokenless worker")
	}
	if b, err := Dial(open, nil); err != nil {
		t.Fatalf("tokenless dial to a tokenless worker: %v", err)
	} else {
		b.Close()
	}
}

// TestFragmentContentDedupe checks the session-level fragment cache: two
// Fragment values with identical wire forms (distinct pointers, as the plan
// cache produces for repeated queries) ship one setup frame and share one
// fragment id, including via Preload.
func TestFragmentContentDedupe(t *testing.T) {
	_, addr := startWorker(t, 1)
	b, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl := b.(*client)
	defer cl.Close()
	probe, build := testStreams(1, 2)
	run := func(frag *engine.Fragment) {
		t.Helper()
		done := make(chan error, 1)
		cl.RunGroup(&engine.GroupUnit{GID: 0,
			Probe: []*vector.Batch{probe.batches[0]},
			Build: []*vector.Batch{build.batches[0]},
		}, frag, func(*vector.Batch) {}, func(err error) { done <- err })
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("unit never completed")
		}
	}
	frag1, frag2 := testFragment(t), testFragment(t)
	run(frag1)
	run(frag2)
	frag3 := testFragment(t)
	if err := cl.Preload(frag3); err != nil {
		t.Fatal(err)
	}
	cl.wmu.Lock()
	fid1, fid2, fid3, next := cl.frags[frag1], cl.frags[frag2], cl.frags[frag3], cl.nextFrag
	cl.wmu.Unlock()
	if fid1 != fid2 || fid1 != fid3 {
		t.Fatalf("identical fragments got ids %d/%d/%d, want one shared id", fid1, fid2, fid3)
	}
	if next != 1 {
		t.Fatalf("shipped %d setup frames for identical fragments, want 1", next)
	}

	// A genuinely different fragment must not alias.
	diff := testFragment(t)
	diff.Type = engine.SemiJoin
	run(diff)
	cl.wmu.Lock()
	fidDiff, next := cl.frags[diff], cl.nextFrag
	cl.wmu.Unlock()
	if fidDiff == fid1 || next != 2 {
		t.Fatalf("distinct fragment aliased (id %d vs %d, %d setups)", fidDiff, fid1, next)
	}
}
