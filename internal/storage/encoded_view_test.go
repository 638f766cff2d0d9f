package storage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bdcc/internal/vector"
)

// dictRunsFixture builds a table of n rows with zoneFixture's schema whose
// notes keep a dictionary (a few hundred long values) while some of their
// chunks run-length-encode (long runs of one value) and some stay raw
// (one-byte values, shorter than a code).
func dictRunsFixture(t testing.TB, n int, seed int64) *Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	id := make([]int64, n)
	price := make([]float64, n)
	note := make([]string, n)
	for i := range n {
		id[i] = int64(i/50) + rng.Int63n(3)
		price[i] = float64(rng.Intn(1e6)) / 100
		switch i / 200 % 4 {
		case 0:
			note[i] = string(rune('a' + rng.Intn(3)))
		case 1:
			note[i] = fmt.Sprintf("a long dictionary value %03d", i/200)
		default:
			note[i] = fmt.Sprintf("a long dictionary value %03d", rng.Intn(300))
		}
	}
	tab, err := NewTable("z", 1<<10, NewInt64Column("id", id), NewFloat64Column("price", price), NewStringColumn("note", note))
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// sameEncoded returns an error unless got and want are the same compressed
// table chunk for chunk: each column's encoding (granularity, dictionary,
// totals, every chunk's encoding, bytes, payload and bounds, the strings it
// owns) and width, its zones with the rows holding their bounds and whether
// they are known, and a string column's offsets (strOffsets).
func sameEncoded(got, want *Table) error {
	if !got.Compressed() || !want.Compressed() || got.Rows() != want.Rows() {
		return fmt.Errorf("compressed %v / %v, %d / %d rows", got.Compressed(), want.Compressed(), got.Rows(), want.Rows())
	}
	for i, wc := range want.Cols {
		gc := got.Cols[i]
		ge, we := *gc.Enc, *wc.Enc
		if len(ge.Chunks) != len(we.Chunks) {
			return fmt.Errorf("column %s: %d chunks, want %d", wc.Name, len(ge.Chunks), len(we.Chunks))
		}
		for k := range we.Chunks {
			if !reflect.DeepEqual(ge.Chunks[k], we.Chunks[k]) {
				return fmt.Errorf("column %s: chunk %d (%s) differs from the gather's (%s)", wc.Name, k, ge.Chunks[k].Enc, we.Chunks[k].Enc)
			}
		}
		if !reflect.DeepEqual(ge, we) || math.Float64bits(gc.width) != math.Float64bits(wc.width) {
			return fmt.Errorf("column %s: encoding or width differs from the gather's", wc.Name)
		}
		if (got.known(i) == nil) != (want.known(i) == nil) || !reflect.DeepEqual(*got.zonemap(i), *want.zonemap(i)) {
			return fmt.Errorf("column %s: zones differ from the gather's", wc.Name)
		}
		if wc.Kind == vector.String && !slices.Equal(got.strOffsets(i), want.strOffsets(i)) {
			return fmt.Errorf("column %s: string offsets differ from the gather's", wc.Name)
		}
	}
	return nil
}

// TestEncodedViewMatchesGather: Encoded of a view encodes it from its runs,
// numbers a chunk at a time, and must build the very table Encoded of its
// Materialized gather builds. Chains of eight splices over compressed roots
// — one of zone extremes, one whose dictionary column has run-length and
// raw chunks — insert batches at random rows (into the second, in three
// places), with a relocation area
// re-appended or not, and prune some columns first, so that zones with
// bound rows are carried over; every third step encodes a view whose root
// is an encoded view. Then the dictionary cases (codeCases) are encoded,
// each string column from its root's codes or, where the case says so, read
// into one heap.
func TestEncodedViewMatchesGather(t *testing.T) {
	for _, c := range codeCases() {
		if c.root.Compress(); c.root.MustColumn("note").Enc.Dict == nil || c.rootRLE != (c.root.MustColumn("note").Enc.Counts[EncRLE] > 0) {
			t.Fatalf("%s: the root keeps no dictionary, or its run-length chunks are not %v", c.name, c.rootRLE)
		}
		view, err := Splice(c.root, c.root.Rows(), c.batch, c.step)
		if err != nil {
			t.Fatal(err)
		}
		got, gathered := encodedGathering(view)
		if err := sameEncoded(got, view.Materialized().Encoded()); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sameRows(t, got, view)
		if gathered[0] || gathered[1] != c.gathered {
			t.Fatalf("%s: columns read into a heap %v, want the note's %v", c.name, gathered, c.gathered)
		}
		if e := got.Cols[1].Enc; c.dict != nil && !slices.Equal(e.Dict, c.dict) || c.raw != (e.Counts[EncRaw] > 0) {
			t.Fatalf("%s: dictionary %q with %d raw chunks, want %q, raw %v", c.name, e.Dict, e.Counts[EncRaw], c.dict, c.raw)
		}
	}

	rng := rand.New(rand.NewSource(46))
	fixtures := []func(n int, seed int64) *Table{
		func(n int, seed int64) *Table { return zoneFixture(t, n, seed, 4) },
		func(n int, seed int64) *Table { return dictRunsFixture(t, n, seed) },
	}
	for f, fixture := range fixtures {
		root := fixture(4000, 1)
		root.Compress()
		for _, relocate := range []bool{false, true} {
			cur, rows, saw := root, root.Rows(), [vector.NumEncodings]int64{}
			for step := range 8 {
				b := fixture(20+rng.Intn(200), int64(10+step))
				at := randomAt(rng, rows, b.Rows())
				if f == 1 { // in three places, as arrivals land in a few cells, so that runs survive
					spots := randomAt(rng, rows, 3)
					for j := range at {
						at[j] = spots[j*3/len(at)]
					}
				}
				src := insertSrc(rows, at)
				if relocate {
					lo := rng.Intn(len(src) - 300)
					src = append(src, src[lo:lo+rng.Intn(300)]...)
				}
				view, err := Splice(cur, rows, b, spliceRuns(src, rows))
				if err != nil {
					t.Fatal(err)
				}
				if step%2 == 1 {
					view.PruneZonemap([]string{"id", "note"}[step%4/2], Interval{Lo: Bound{Set: true, I: 7, S: "b"}}, nil)
				}
				label := fmt.Sprintf("fixture %d, relocate %v, step %d", f, relocate, step)
				got := view.Encoded()
				if err := sameEncoded(got, view.Materialized().Encoded()); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameRows(t, got, view)
				for k, n := range got.Cols[2].Enc.Counts {
					saw[k] += n
				}
				if cur, rows = view, len(src); step%3 == 2 {
					cur = got
				}
			}
			if f == 1 && (saw[EncRLE] == 0 || saw[EncRaw] == 0 || saw[EncDict] == 0) {
				t.Fatalf("relocate %v: the dictionary column's chunks must take every encoding: saw %v", relocate, saw)
			}
		}
	}
}

// codeCase is a splice of batch into root (step) whose note column Encoded
// must number from the root's codes, or read into one heap (gathered); dict,
// when not nil, is the dictionary it must come out with (empty: none), raw
// whether some chunk must stay raw.
type codeCase struct {
	name        string
	root, batch *Table
	step        []Run
	gathered    bool
	dict        []string
	raw         bool
	rootRLE     bool // whether the root's note has run-length chunks
}

// notes returns a table of an id and the given notes, at the fixtures' page
// size.
func notes(vals []string) *Table {
	id := make([]int64, len(vals))
	for i := range id {
		id[i] = int64(i)
	}
	return MustNewTable("n", 1<<10, NewInt64Column("id", id), NewStringColumn("note", vals))
}

// pick returns n values drawn from alphabet.
func pick(rng *rand.Rand, n int, alphabet ...string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return out
}

// codeCases builds the cases of numbering a view's dictionary column from
// its root's codes: batch values before, between and after the root's
// entries; a root run-length chunk; a root entry no row of the view reads;
// a batch that leaves no viable dictionary; a chunk that stays raw.
func codeCases() []codeCase {
	rng := rand.New(rand.NewSource(49))
	inserted := func(root, batch *Table) []Run {
		return spliceRuns(insertSrc(root.Rows(), randomAt(rng, root.Rows(), batch.Rows())), root.Rows())
	}
	var cases []codeCase
	root, batch := notes(pick(rng, 2000, "value b", "value d", "value f")), notes(pick(rng, 90, "value a", "value c", "value d", "value g"))
	cases = append(cases, codeCase{name: "batch values around the root's", root: root, batch: batch, step: inserted(root, batch),
		dict: []string{"value a", "value b", "value c", "value d", "value f", "value g"}})

	root = notes(append(slices.Repeat([]string{"value r"}, 600), pick(rng, 1400, "value b", "value d")...))
	batch = notes(pick(rng, 60, "value r", "value b", "value e"))
	cases = append(cases, codeCase{name: "a root run-length chunk", root: root, batch: batch, step: inserted(root, batch),
		dict: []string{"value b", "value d", "value e", "value r"}, rootRLE: true})

	vals := pick(rng, 2000, "value b", "value d", "value f")
	root, batch = notes(vals), notes(pick(rng, 40, "value b", "value c"))
	var drop []Run // every root row but those of "value d", then the batch
	for i, s := range vals {
		if s != "value d" {
			drop = AppendRun(drop, 0, int32(i), 1)
		}
	}
	cases = append(cases, codeCase{name: "a root entry no row reads", root: root, batch: batch, step: AppendRun(drop, 1, 0, 40),
		dict: []string{"value b", "value c", "value f"}})

	distinct := make([]string, 300)
	for i := range distinct {
		distinct[i] = fmt.Sprintf("distinct %04d", i)
	}
	root, batch = notes(pick(rng, 1000, "xa", "xb", "xc")), notes(distinct)
	cases = append(cases, codeCase{name: "a batch that leaves no viable dictionary", root: root, batch: batch, step: inserted(root, batch),
		gathered: true, dict: []string{}, raw: true})

	long := make([]string, 300)
	for i := range long {
		long[i] = fmt.Sprintf("a long dictionary value %03d", i)
	}
	root = notes(append(pick(rng, 600, "a", "b", "c"), pick(rng, 1400, long...)...))
	batch = notes(pick(rng, 50, long[:20]...))
	cases = append(cases, codeCase{name: "a chunk that stays raw", root: root, batch: batch, step: inserted(root, batch), gathered: true, raw: true})
	return cases
}

// FuzzEncodedView decodes a compressed root and a chain of up to four
// splices of batches onto it, whose source lists keep, skip and repeat rows
// of the previous view; after a step, on an odd byte, the view's Encoded form
// becomes the next root. Over the tiny alphabet of fuzzTable's notes,
// batches bring values the root lacks, skipped rows leave root entries
// unread, and chunks flip between dictionary, run-length and raw: Encoded of
// each view, numbered from its root's codes where it can be, must be the
// table its gather encodes to.
func FuzzEncodedView(f *testing.F) {
	rng := rand.New(rand.NewSource(49))
	for range 4 {
		seed := make([]byte, 300)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		cur := fuzzTable(t, &in, 1+in.next())
		cur.Compress()
		for step := 0; step < 4 && len(in) > 0; step++ {
			b := fuzzTable(t, &in, in.next()%40)
			keep := cur.Rows() - in.next()%(cur.Rows()+1)
			var src []int32
			for len(in) > 0 && len(src) < 600 && in.next()%16 != 0 {
				if x := in.next(); x%2 == 1 && b.Rows() > 0 {
					src = append(src, int32(keep+x/2%b.Rows()))
				} else if keep > 0 {
					for r, n := x/2%keep, in.next()%60; r < keep && n > 0; r, n = r+1, n-1 {
						src = append(src, int32(r))
					}
				}
			}
			view, err := Splice(cur, keep, b, spliceRuns(src, keep))
			if err != nil {
				t.Fatal(err)
			}
			got := view.Encoded()
			if err := sameEncoded(got, view.Materialized().Encoded()); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if cur = view; in.next()%2 == 1 {
				cur = got
			}
		}
	})
}
