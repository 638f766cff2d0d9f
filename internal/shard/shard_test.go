package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"bdcc/internal/engine"
	"bdcc/internal/expr"
	"bdcc/internal/vector"
	"bdcc/internal/wire"
)

// groupStream is a test operator producing a synthetic grouped stream:
// group-pure batches with non-decreasing group identifiers, the shape
// grouped scans emit. Batches are reused across Next calls (like real
// producers), so consumers must clone.
type groupStream struct {
	schema  expr.Schema
	batches []*vector.Batch
	pos     int
	out     *vector.Batch
}

func (g *groupStream) Schema() expr.Schema { return g.schema }
func (g *groupStream) Open(*engine.Context) error {
	g.pos = 0
	g.out = vector.NewBatch(g.schema.Kinds())
	return nil
}
func (g *groupStream) Close() error { return nil }
func (g *groupStream) Next() (*vector.Batch, error) {
	if g.pos >= len(g.batches) {
		return nil, nil
	}
	b := g.batches[g.pos]
	g.pos++
	g.out.Reset()
	g.out.AppendBatch(b)
	g.out.GroupID = b.GroupID
	g.out.Grouped = true
	return g.out, nil
}

// testStreams builds an aligned probe/build stream pair over `groups`
// groups: the build side has one batch per group keyed so equal keys imply
// equal groups, the probe side references build keys with skew and spans
// several batches per group.
func testStreams(groups, probePerGroup int) (probe, build *groupStream) {
	rng := rand.New(rand.NewSource(7))
	ps := expr.Schema{
		{Name: "lkey", Kind: vector.Int64},
		{Name: "lid", Kind: vector.Int64},
		{Name: "ltag", Kind: vector.String},
	}
	bs := expr.Schema{
		{Name: "rkey", Kind: vector.Int64},
		{Name: "rpay", Kind: vector.Float64},
	}
	probe = &groupStream{schema: ps}
	build = &groupStream{schema: bs}
	id := int64(0)
	for g := 0; g < groups; g++ {
		// Build: a few keys per group (key*groups+g keeps keys group-pure).
		bb := vector.NewBatch(bs.Kinds())
		bb.GroupID = uint64(g)
		bb.Grouped = true
		for k := 0; k < 8; k++ {
			bb.Cols[0].AppendInt64(int64(k*groups + g))
			bb.Cols[1].AppendFloat64(float64(k) + float64(g)*0.5)
		}
		if g%5 != 4 { // every fifth group has no build rows
			build.batches = append(build.batches, bb)
		}
		for b := 0; b < 2; b++ {
			pb := vector.NewBatch(ps.Kinds())
			pb.GroupID = uint64(g)
			pb.Grouped = true
			for i := 0; i < probePerGroup/2; i++ {
				k := rng.Int63n(10) // keys 8..9 miss the build side
				pb.Cols[0].AppendInt64(k*int64(groups) + int64(g))
				pb.Cols[1].AppendInt64(id)
				pb.Cols[2].AppendString(fmt.Sprintf("p%d", id%13))
				id++
			}
			probe.batches = append(probe.batches, pb)
		}
	}
	return probe, build
}

func sandwich(ctx *engine.Context, bks []engine.Backend, route func(uint64, int64) int) *engine.SandwichHashJoin {
	probe, build := testStreams(32, 400)
	return &engine.SandwichHashJoin{
		Left: probe, Right: build,
		LeftKeys: []string{"lkey"}, RightKeys: []string{"rkey"},
		Type:     engine.InnerJoin,
		Sched:    ctx.Scheduler(),
		Backends: bks,
		Route:    route,
	}
}

// testFragment returns a prepared fragment matching testStreams' schemas,
// for driving backends directly.
func testFragment(t *testing.T) *engine.Fragment {
	t.Helper()
	probe, build := testStreams(1, 2)
	f := &engine.Fragment{
		Probe: probe.schema, Build: build.schema,
		ProbeKeys: []string{"lkey"}, BuildKeys: []string{"rkey"},
		Type: engine.InnerJoin,
	}
	if err := f.Prepare(); err != nil {
		t.Fatal(err)
	}
	return f
}

func renderRows(r *engine.Result) []string {
	out := make([]string, r.Rows())
	for i := range out {
		out[i] = fmt.Sprint(r.Row(i))
	}
	return out
}

// waitGoroutines polls until the process goroutine count drops to at most
// want (pool workers and transport loops exit asynchronously).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("%d goroutines still alive, want ≤ %d\n%s", runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUnitCodecRoundTrip checks the group-unit wire form reproduces probe
// and build batch sets exactly, including empty build sides.
func TestUnitCodecRoundTrip(t *testing.T) {
	probe, build := testStreams(4, 40)
	u := &engine.GroupUnit{GID: 3}
	for _, b := range probe.batches[:2] {
		u.Probe = append(u.Probe, b)
	}
	u.Build = append(u.Build, build.batches[0])
	got, err := DecodeUnit(EncodeUnit(u, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.GID != u.GID || len(got.Probe) != len(u.Probe) || len(got.Build) != len(u.Build) {
		t.Fatalf("shape: got gid=%d p=%d b=%d", got.GID, len(got.Probe), len(got.Build))
	}
	for i := range u.Probe {
		if fmt.Sprint(got.Probe[i].Cols) == "" || got.Probe[i].Len() != u.Probe[i].Len() ||
			got.Probe[i].GroupID != u.Probe[i].GroupID || !got.Probe[i].Grouped {
			t.Fatalf("probe batch %d mismatch", i)
		}
	}
	if got.Bytes() != u.Bytes() {
		t.Fatalf("footprint changed across the wire: %d != %d", got.Bytes(), u.Bytes())
	}
	empty := &engine.GroupUnit{GID: 9, Probe: u.Probe[:1]}
	got2, err := DecodeUnit(EncodeUnit(empty, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got2.Build) != 0 || len(got2.Probe) != 1 {
		t.Fatalf("empty build side not preserved: p=%d b=%d", len(got2.Probe), len(got2.Build))
	}
	if _, err := DecodeUnit(EncodeUnit(u, nil)[:20]); err == nil {
		t.Fatal("truncated unit decoded without error")
	}
}

// TestRouter checks Set.Route: determinism across sets, range, that groups
// actually spread across backends, and that the routed load is recorded.
func TestRouter(t *testing.T) {
	a, b := newSet(4, nil), newSet(4, nil)
	seen := make(map[int]int64)
	for gid := uint64(0); gid < 256; gid++ {
		k := a.Route(gid, 10)
		if k < 0 || k >= 4 {
			t.Fatalf("route(%d) = %d out of range", gid, k)
		}
		if k != b.Route(gid, 10) {
			t.Fatalf("route(%d) not deterministic", gid)
		}
		seen[k]++
	}
	for k, l := range a.Loads() {
		if seen[k] == 0 {
			t.Fatalf("backend %d received no groups: %v", k, seen)
		}
		if l.Units != seen[k] || l.Bytes != 10*seen[k] {
			t.Fatalf("backend %d recorded %+v, routed %d units of 10 bytes", k, l, seen[k])
		}
	}
}

// TestShardedSandwichMatchesSerial is the package's equivalence oracle: the
// sandwich join over Sim backend sets — across shard counts and local worker
// counts, including the serial-local shards>1 shape — must reproduce the
// serial join byte-identically, with a balanced memory tracker and no leaked
// goroutines.
func TestShardedSandwichMatchesSerial(t *testing.T) {
	base := runtime.NumGoroutine()
	serialCtx := &engine.Context{Mem: &engine.MemTracker{}}
	serial, err := engine.Run(serialCtx, sandwich(serialCtx, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if serial.Rows() == 0 {
		t.Fatal("serial join returned no rows — vacuous test")
	}
	want := renderRows(serial)

	check := func(t *testing.T, ctx *engine.Context, bks []engine.Backend, route func(uint64, int64) int) {
		t.Helper()
		res, err := engine.Run(ctx, sandwich(ctx, bks, route))
		if err != nil {
			t.Fatal(err)
		}
		got := renderRows(res)
		if len(got) != len(want) {
			t.Fatalf("%d rows, serial has %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("row %d = %s, serial has %s", i, got[i], want[i])
			}
		}
		if cur := ctx.Mem.Current(); cur != 0 {
			t.Fatalf("%d bytes still accounted after Close", cur)
		}
	}

	for _, tc := range []struct{ workers, shards int }{{1, 2}, {1, 4}, {4, 2}, {4, 4}} {
		tc := tc
		// Placement is by group hash, never by size (bySize=false).
		t.Run(fmt.Sprintf("sim/workers=%d/shards=%d/bySize=false", tc.workers, tc.shards), func(t *testing.T) {
			ctx := &engine.Context{Mem: &engine.MemTracker{}, Options: engine.Options{Workers: tc.workers}}
			set := NewSet(tc.shards, tc.workers, PaperNet())
			ctx.Backends = set.Backends()
			ctx.Cluster = set
			check(t, ctx, set.Backends(), set.Route)
			if err := ctx.CloseBackends(); err != nil {
				t.Fatal(err)
			}
			st := set.Net().Stats()
			if st.Runs == 0 || st.Bytes == 0 || st.Time <= 0 {
				t.Fatalf("no network activity recorded for a sharded run: %+v", st)
			}
			loads := set.Loads()
			var units, bytes int64
			for _, l := range loads {
				units += l.Units
				bytes += l.Bytes
			}
			if units != 32 {
				t.Fatalf("router recorded %d routed units for 32 groups: %+v", units, loads)
			}
			if bytes <= 0 {
				t.Fatalf("router recorded no routed bytes: %+v", loads)
			}
		})
	}
	waitGoroutines(t, base+2)
}

// TestShardedSandwichEarlyClose checks an abandoned consumer (early Limit)
// over a sharded group pipeline: close must join every in-flight unit's
// done callback across the transport, leaving a balanced tracker and no
// goroutines on either side.
func TestShardedSandwichEarlyClose(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx := &engine.Context{Mem: &engine.MemTracker{}, Options: engine.Options{Workers: workers}}
			set := NewSet(3, workers, PaperNet())
			ctx.Backends = set.Backends()
			ctx.Cluster = set
			lim := &engine.Limit{Child: sandwich(ctx, set.Backends(), set.Route), N: 7}
			res, err := engine.Run(ctx, lim)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows() != 7 {
				t.Fatalf("limit returned %d rows, want 7", res.Rows())
			}
			if cur := ctx.Mem.Current(); cur != 0 {
				t.Fatalf("%d bytes still accounted after early close", cur)
			}
			if err := ctx.CloseBackends(); err != nil {
				t.Fatal(err)
			}
		})
	}
	waitGoroutines(t, base+2)
}

// errBackend fails every unit after `ok` successes — transport failure
// injection at the Backend seam.
type errBackend struct {
	inner engine.Backend
	ok    int
	err   error
}

func (e *errBackend) Workers() int { return e.inner.Workers() }
func (e *errBackend) Close() error { return e.inner.Close() }
func (e *errBackend) RunGroup(u *engine.GroupUnit, frag *engine.Fragment, emit func(*vector.Batch), done func(error)) {
	if e.ok <= 0 {
		// Emit a partial result first: the error arrives mid-group.
		if len(u.Probe) > 0 {
			emit(u.Probe[0].Clone())
		}
		done(e.err)
		return
	}
	e.ok--
	e.inner.RunGroup(u, frag, emit, done)
}

// TestBackendErrorMidGroupPropagates mirrors TestErrorMidStreamJoinsProducers
// at the backend seam: a backend failing mid-group must surface its error to
// the consumer, and Close must join every shard feeder and transport
// goroutine without leaks and with a balanced tracker.
func TestBackendErrorMidGroupPropagates(t *testing.T) {
	base := runtime.NumGoroutine()
	boom := errors.New("boom: shard 1 fell over")
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx := &engine.Context{Mem: &engine.MemTracker{}, Options: engine.Options{Workers: workers}}
			set := NewSet(2, workers, PaperNet())
			bks := []engine.Backend{
				set.Backends()[0],
				&errBackend{inner: set.Backends()[1], ok: 1, err: boom},
			}
			ctx.Backends = bks
			_, err := engine.Run(ctx, sandwich(ctx, bks, set.Route))
			if err == nil || !errors.Is(err, boom) {
				t.Fatalf("Run returned %v, want the injected backend error", err)
			}
			if cur := ctx.Mem.Current(); cur != 0 {
				t.Fatalf("%d bytes still accounted after backend error", cur)
			}
			if err := ctx.CloseBackends(); err != nil {
				t.Fatal(err)
			}
		})
	}
	waitGoroutines(t, base+2)
}

// TestSimWorkErrorCrossesTransport checks a work error raised on the remote
// side travels back over the byte stream (as text — error identity does not
// survive the wire) and fails only that fragment's units, as a plain,
// non-reroutable error. The error is provoked the way a real worker would
// hit it: a fragment that fails Prepare on arrival.
func TestSimWorkErrorCrossesTransport(t *testing.T) {
	base := runtime.NumGoroutine()
	s := NewSim(2, nil)
	probe, build := testStreams(1, 2)
	bad := &engine.Fragment{
		Probe: probe.schema, Build: build.schema,
		ProbeKeys: []string{"no_such_column"}, BuildKeys: []string{"rkey"},
		Type: engine.InnerJoin,
	}
	u := &engine.GroupUnit{GID: 1, Probe: []*vector.Batch{probe.batches[0]}}
	errCh := make(chan error, 1)
	s.RunGroup(u, bad,
		func(*vector.Batch) { t.Error("emit called for a failed unit") },
		func(err error) { errCh <- err },
	)
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "no_such_column") {
			t.Fatalf("done received %v, want the remote preparation error", err)
		}
		if errors.Is(err, ErrBackendDown) {
			t.Fatalf("work error %v is marked as a backend failure — failover would retry it", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("done callback never fired")
	}
	// The session survives the poisoned fragment: a healthy fragment still
	// executes on the same backend.
	good := testFragment(t)
	okCh := make(chan error, 1)
	var rows int
	s.RunGroup(u, good,
		func(b *vector.Batch) { rows += b.Len() },
		func(err error) { okCh <- err },
	)
	select {
	case err := <-okCh:
		if err != nil {
			t.Fatalf("healthy fragment after a poisoned one failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("healthy unit never completed")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base+2)
}

// TestSimMisshapenUnitIsWorkError: a unit whose batches do not have the
// fragment's columns — here one build batch of a single Float64 column, where
// the build schema has an Int64 key and a Float64 — fails as a work error on
// the worker instead of panicking its scheduler goroutine, and the session
// goes on to serve a well-formed unit.
func TestSimMisshapenUnitIsWorkError(t *testing.T) {
	base := runtime.NumGoroutine()
	s := NewSim(1, nil)
	frag := testFragment(t)
	probe, build := testStreams(1, 2)
	bad := vector.NewBatch([]vector.Kind{vector.Float64})
	bad.Cols[0].AppendFloat64(1.5)
	run := func(u *engine.GroupUnit) error {
		done := make(chan error, 1)
		s.RunGroup(u, frag, func(*vector.Batch) {}, func(err error) { done <- err })
		select {
		case err := <-done:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("unit never completed")
			return nil
		}
	}
	err := run(&engine.GroupUnit{GID: 0, Probe: []*vector.Batch{probe.batches[0]}, Build: []*vector.Batch{bad}})
	if err == nil || errors.Is(err, ErrBackendDown) {
		t.Fatalf("misshapen unit completed with %v, want a work error", err)
	}
	if err := run(&engine.GroupUnit{GID: 0, Probe: []*vector.Batch{probe.batches[0]}, Build: []*vector.Batch{build.batches[0]}}); err != nil {
		t.Fatalf("well-formed unit after a misshapen one: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, base+2)
}

// TestSimTransportCorruptionFailsFast locks in the fail-path teardown: a
// corrupt frame on the stream must break the transport, fail in-flight and
// later units promptly with an ErrBackendDown-wrapped error (done still
// fires exactly once each), and unblock any writer parked on the
// synchronous pipe so Close returns instead of hanging.
func TestSimTransportCorruptionFailsFast(t *testing.T) {
	base := runtime.NumGoroutine()
	s := NewSim(2, nil)
	// Inject garbage where the worker expects a setup or unit frame: an
	// unknown frame type makes the worker drop the session.
	if err := s.client.sess.Write(99, 42, wire.Buf()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	s.RunGroup(&engine.GroupUnit{GID: 1}, testFragment(t),
		func(*vector.Batch) {},
		func(err error) { done <- err },
	)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("unit on a corrupted transport completed without error")
		}
		if !errors.Is(err, ErrBackendDown) {
			t.Fatalf("transport failure %v does not wrap ErrBackendDown — failover would not reroute", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unit on a corrupted transport never completed — fail did not unblock the pipe")
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a corrupted transport")
	}
	waitGoroutines(t, base+2)
}

// TestSimClosedBackendFailsUnits checks the defensive path: units handed to
// a closed backend complete with an error instead of hanging.
func TestSimClosedBackendFailsUnits(t *testing.T) {
	s := NewSim(1, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	s.RunGroup(&engine.GroupUnit{}, nil, nil, func(err error) { done <- err })
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("unit on a closed backend completed without error")
		}
	case <-time.After(time.Second):
		t.Fatal("unit on a closed backend never completed")
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestSimNetAccounting checks every unit pays for its request and response
// messages: runs and bytes grow with traffic and the modeled time follows
// the device model.
func TestSimNetAccounting(t *testing.T) {
	set := NewSet(2, 2, PaperNet())
	ctx := &engine.Context{Mem: &engine.MemTracker{}, Options: engine.Options{Workers: 1}}
	ctx.Backends = set.Backends()
	ctx.Cluster = set
	if _, err := engine.Run(ctx, sandwich(ctx, set.Backends(), set.Route)); err != nil {
		t.Fatal(err)
	}
	st := set.Net().Stats()
	// 32 groups: one request frame each plus at least one response frame.
	if st.Runs < 64 {
		t.Fatalf("only %d messages recorded for 32 shipped groups", st.Runs)
	}
	if want := PaperNet().ReadTime(st.Runs, st.Bytes); st.Time != want {
		t.Fatalf("modeled net time %v, device model says %v", st.Time, want)
	}
	if ctx.NetStats().Runs != st.Runs {
		t.Fatalf("context net stats disagree with the set's accountant")
	}
	if err := ctx.CloseBackends(); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeUnit: arbitrary bytes offered as a group unit decode cleanly or
// error, never panic, and what decodes re-encodes to a unit of the same shape.
// The committed corpus has a join unit, a scan unit and an empty one.
func FuzzDecodeUnit(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := DecodeUnit(data)
		if err != nil {
			return
		}
		back, err := DecodeUnit(EncodeUnit(u, nil))
		if err != nil || back.GID != u.GID || len(back.Probe) != len(u.Probe) || len(back.Build) != len(u.Build) ||
			!slices.Equal(back.ScanRanges, u.ScanRanges) || back.Bytes() != u.Bytes() {
			t.Fatalf("a decoded unit does not survive the codec: %v", err)
		}
	})
}
