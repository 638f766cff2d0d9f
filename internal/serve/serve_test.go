package serve

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"bdcc/internal/engine"
	"bdcc/internal/expr"
	"bdcc/internal/iosim"
	"bdcc/internal/vector"
)

// stubResult builds a small multi-kind result whose values depend on the
// query name, so round-trips are checkable.
func stubResult(query string) *engine.Result {
	n := len(query)
	return &engine.Result{
		Schema: expr.Schema{
			{Name: "id", Kind: vector.Int64},
			{Name: "weight", Kind: vector.Float64},
			{Name: "tag", Kind: vector.String},
		},
		Cols: []*vector.Vector{
			{Kind: vector.Int64, I64: []int64{int64(n), int64(n) * 2}},
			{Kind: vector.Float64, F64: []float64{0.1 * float64(n), -3.75}},
			{Kind: vector.String, Str: []string{query, "x"}},
		},
	}
}

// startServer brings a daemon up on a loopback listener with a stub handler:
// queries named "block" park until release is closed; "fail" errors;
// "hungry" grows the query tracker past any test budget.
func startServer(t *testing.T, cfg Config) (*Server, string, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	if cfg.NewContext == nil {
		cfg.NewContext = func() *engine.Context { return engine.NewContext(iosim.PaperSSD()) }
	}
	if cfg.Handler == nil {
		cfg.Handler = func(ctx *engine.Context, scheme, query string) (*engine.Result, error) {
			switch {
			case query == "fail":
				return nil, errors.New("synthetic failure")
			case query == "hungry":
				ctx.Mem.Grow(1 << 20)
				defer ctx.Mem.Shrink(1 << 20)
				if err := ctx.Mem.Err(); err != nil {
					return nil, err
				}
				return stubResult(query), nil
			case strings.HasPrefix(query, "block"):
				<-release
			}
			return stubResult(query), nil
		}
	}
	s := NewServer(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return s, l.Addr().String(), release
}

func TestQueryRoundTrip(t *testing.T) {
	_, addr, _ := startServer(t, Config{Pools: 2})
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Pools() != 2 {
		t.Errorf("announced pools = %d, want 2", c.Pools())
	}
	res, err := c.Query("BDCC", "Q7")
	if err != nil {
		t.Fatal(err)
	}
	want := stubResult("Q7")
	if fmt.Sprint(res.Schema) != fmt.Sprint(want.Schema) {
		t.Errorf("schema = %v, want %v", res.Schema, want.Schema)
	}
	if res.Rows() != want.Rows() {
		t.Fatalf("rows = %d, want %d", res.Rows(), want.Rows())
	}
	for i := 0; i < want.Rows(); i++ {
		if fmt.Sprint(res.Row(i)) != fmt.Sprint(want.Row(i)) {
			t.Errorf("row %d = %v, want %v", i, res.Row(i), want.Row(i))
		}
	}
	if _, err := c.Query("BDCC", "fail"); err == nil || !strings.Contains(err.Error(), "synthetic failure") {
		t.Errorf("failed query returned %v, want the handler's error text", err)
	}
}

// TestAdmissionControl pins the gate: with one pool and a one-deep queue,
// one query runs, one queues, and the third is rejected immediately.
func TestAdmissionControl(t *testing.T) {
	s, addr, release := startServer(t, Config{Pools: 1, QueueCap: 1, QueueWait: time.Minute})
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	results := make(chan error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := c.Query("BDCC", fmt.Sprintf("block%d", i))
			results <- err
		}(i)
	}
	// Wait until one runs and one waits in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if st.Active == 1 && st.Queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached 1 active + 1 queued; stats %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	// Queue full: the third arrival must be rejected, typed as such.
	if _, err := c.Query("BDCC", "third"); !errors.Is(err, ErrRejected) {
		t.Fatalf("third query returned %v, want ErrRejected", err)
	}
	close(release)
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Errorf("blocked query failed after release: %v", err)
		}
	}
	st := s.Stats()
	if st.Admitted != 2 || st.Rejected != 1 || st.QueuedTotal != 1 || st.Done != 2 {
		t.Errorf("stats = %+v, want admitted 2, rejected 1, queued_total 1, done 2", st)
	}

	// And the same counters over the wire.
	wire, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if wire != st {
		t.Errorf("wire stats %+v != server stats %+v", wire, st)
	}
}

// TestQueueWaitExpires pins the bounded wait: a queued query is rejected
// once QueueWait passes without a pool freeing.
func TestQueueWaitExpires(t *testing.T) {
	s, addr, release := startServer(t, Config{Pools: 1, QueueCap: 4, QueueWait: 30 * time.Millisecond})
	defer close(release)
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go c.Query("BDCC", "block")
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Active != 1 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Query("BDCC", "waits"); !errors.Is(err, ErrRejected) {
		t.Fatalf("queued query returned %v, want ErrRejected after the wait expired", err)
	}
}

// TestMemBudgetRejection pins memory governance end to end: a query whose
// tracker cannot reserve against the process budget is rejected (typed),
// while the daemon keeps serving and the budget balances back to zero.
func TestMemBudgetRejection(t *testing.T) {
	s, addr, _ := startServer(t, Config{Pools: 2, MemBudget: 64 << 10, MemWait: 0})
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("BDCC", "hungry"); !errors.Is(err, ErrRejected) {
		t.Fatalf("over-budget query returned %v, want ErrRejected", err)
	}
	if res, err := c.Query("BDCC", "small"); err != nil || res.Rows() == 0 {
		t.Fatalf("daemon stopped serving after a memory rejection: %v", err)
	}
	st := s.Stats()
	if st.MemRejected == 0 {
		t.Errorf("budget recorded no rejection: %+v", st)
	}
	if st.MemReserved != 0 {
		t.Errorf("budget still holds %d bytes after all queries unwound", st.MemReserved)
	}
}

func TestAuthToken(t *testing.T) {
	_, addr, _ := startServer(t, Config{Pools: 1, AuthToken: "sesame"})
	if _, err := Dial(addr, "sesame"); err != nil {
		t.Fatalf("matching token rejected: %v", err)
	}
	if _, err := Dial(addr, "wrong"); err == nil {
		t.Fatal("wrong token accepted")
	}
	if _, err := Dial(addr, ""); err == nil {
		t.Fatal("missing token accepted")
	}
}

// TestConcurrentClients runs several sessions issuing interleaved queries
// and checks every response lands on its own request.
func TestConcurrentClients(t *testing.T) {
	_, addr, _ := startServer(t, Config{Pools: 4, QueueCap: 64, QueueWait: time.Minute})
	var wg sync.WaitGroup
	errs := make(chan error, 6*20)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr, "")
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for k := 0; k < 20; k++ {
				q := fmt.Sprintf("q-%d-%d", i, k)
				res, err := c.Query("BDCC", q)
				if err != nil {
					errs <- err
					return
				}
				if res.Cols[2].Str[0] != q {
					errs <- fmt.Errorf("response for %q carries %q", q, res.Cols[2].Str[0])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// FuzzDecodeBDCQ offers arbitrary bytes to every client-protocol payload
// decoder — the query, the result and the stats reply. Each returns an error
// or a value, never panics; a decoded query or stats reply re-encodes to the
// input, and a decoded result names every column it carries, each of the
// result's row count. Seeded with real encodings and their truncations.
func FuzzDecodeBDCQ(f *testing.F) {
	for _, enc := range [][]byte{
		encodeQuery("BDCC", "Q07", nil),
		encodeResult(stubResult("Q07"), nil),
		encodeStats(Stats{Active: 1, Queued: 2, Admitted: 3, QueuedTotal: 4, Rejected: 5, Done: 6,
			MemReserved: 7, MemPeak: 8, MemQueued: 9, MemRejected: 10}, nil),
	} {
		for n := 0; n < len(enc); n += 7 {
			f.Add(enc[:n])
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if scheme, query, err := decodeQuery(data); err == nil && string(encodeQuery(scheme, query, nil)) != string(data) {
			t.Fatalf("query %q/%q does not re-encode to its payload", scheme, query)
		}
		if st, err := decodeStats(data); err == nil && string(encodeStats(st, nil)) != string(data) {
			t.Fatalf("stats %+v do not re-encode to their payload", st)
		}
		res, err := decodeResult(data)
		if err != nil {
			return
		}
		if len(res.Schema) != len(res.Cols) {
			t.Fatalf("result names %d columns, carries %d", len(res.Schema), len(res.Cols))
		}
		for i, c := range res.Cols {
			if c.Len() != res.Rows() {
				t.Fatalf("result column %d holds %d rows of %d", i, c.Len(), res.Rows())
			}
		}
	})
}
