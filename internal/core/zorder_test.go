package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestRoundRobinMasksPaperLineitem pins the paper's Section IV LINEITEM mask
// table: four uses (D_DATE 13 bits, D_NATION 5, D_NATION 5, D_PART 13)
// round-robin interleaved at full granularity B = 36 and truncated to the
// chosen b = 20 bits must produce exactly the published masks.
func TestRoundRobinMasksPaperLineitem(t *testing.T) {
	masks, total := RoundRobinMasks([]int{13, 5, 5, 13})
	if total != 36 {
		t.Fatalf("full granularity = %d, want 36", total)
	}
	trunc := TruncateMasks(masks, total, 20)
	want := []string{
		"10001000100010001000", // D_DATE    FK_L_O
		"1000100010001000100",  // D_NATION  FK_L_O.FK_O_C.FK_C_N
		"100010001000100010",   // D_NATION  FK_L_S.FK_S_N
		"10001000100010001",    // D_PART    FK_L_P
	}
	for i, w := range want {
		if got := MaskString(trunc[i]); got != w {
			t.Errorf("LINEITEM mask %d = %s, want %s", i, got, w)
		}
	}
	if err := ValidateMasks(trunc, 20); err != nil {
		t.Errorf("truncated masks invalid: %v", err)
	}
}

// TestRoundRobinMasksPaperOrders pins the ORDERS and PARTSUPP rows of the
// paper's mask table: D_DATE/D_PART (13 bits) with D_NATION (5 bits)
// alternate until the nation dimension exhausts, then the 13-bit dimension
// fills the remaining positions consecutively; B = b = 18.
func TestRoundRobinMasksPaperOrders(t *testing.T) {
	masks, total := RoundRobinMasks([]int{13, 5})
	if total != 18 {
		t.Fatalf("full granularity = %d, want 18", total)
	}
	if got, want := MaskString(masks[0]), "101010101011111111"; got != want {
		t.Errorf("D_DATE mask = %s, want %s", got, want)
	}
	if got, want := MaskString(masks[1]), "10101010100000000"; got != want {
		t.Errorf("D_NATION mask = %s, want %s", got, want)
	}
}

// TestRoundRobinMasksSingleUse pins the single-dimension rows of the paper's
// table (NATION, SUPPLIER, CUSTOMER on 5 bits; PART on 13): one use owns
// every bit.
func TestRoundRobinMasksSingleUse(t *testing.T) {
	masks, total := RoundRobinMasks([]int{5})
	if total != 5 || MaskString(masks[0]) != "11111" {
		t.Errorf("5-bit single mask = %s (B=%d), want 11111 (5)", MaskString(masks[0]), total)
	}
	masks, total = RoundRobinMasks([]int{13})
	if total != 13 || MaskString(masks[0]) != "1111111111111" {
		t.Errorf("13-bit single mask = %s (B=%d)", MaskString(masks[0]), total)
	}
}

func TestMajorMinorMasks(t *testing.T) {
	masks, total := MajorMinorMasks([]int{3, 2})
	if total != 5 {
		t.Fatalf("total = %d, want 5", total)
	}
	if got, want := MaskString(masks[0]), "11100"; got != want {
		t.Errorf("major mask = %s, want %s", got, want)
	}
	if got, want := MaskString(masks[1]), "11"; got != want {
		t.Errorf("minor mask = %s, want %s", got, want)
	}
	if err := ValidateMasks(masks, 5); err != nil {
		t.Errorf("masks invalid: %v", err)
	}
}

// TestRoundRobinMasksProperties checks the Definition 4 constraints (cover
// all bits, no overlap) for arbitrary dimension widths.
func TestRoundRobinMasksProperties(t *testing.T) {
	prop := func(widths []uint8) bool {
		var bits []int
		total := 0
		for _, w := range widths {
			b := int(w%16) + 1
			if total+b > 60 {
				break
			}
			bits = append(bits, b)
			total += b
		}
		if len(bits) == 0 {
			return true
		}
		rr, brr := RoundRobinMasks(bits)
		mm, bmm := MajorMinorMasks(bits)
		if brr != total || bmm != total {
			return false
		}
		if ValidateMasks(rr, brr) != nil || ValidateMasks(mm, bmm) != nil {
			return false
		}
		for i, b := range bits {
			if Ones(rr[i]) != b || Ones(mm[i]) != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestScatterGatherRoundTrip checks that GatherBits inverts ScatterBits on
// the reduced bin number for random masks and bins.
func TestScatterGatherRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		b := 1 + rng.Intn(40)
		mask := rng.Uint64() & ((1 << uint(b)) - 1)
		if mask == 0 {
			continue
		}
		dimBits := Ones(mask) + rng.Intn(8)
		bin := rng.Uint64() & ((1 << uint(dimBits)) - 1)
		key := ScatterBits(bin, dimBits, mask, b)
		if key&^mask != 0 {
			t.Fatalf("scatter leaked outside mask: bin=%b dimBits=%d mask=%b key=%b", bin, dimBits, mask, key)
		}
		want := bin >> uint(dimBits-Ones(mask))
		if got := GatherBits(key, mask, b); got != want {
			t.Fatalf("gather(scatter(%b)) = %b, want %b (mask %b, b=%d)", bin, got, want, mask, b)
		}
	}
}

// TestEncodeKeyDisjointUses checks that a full key decomposes per use.
func TestEncodeKeyDisjointUses(t *testing.T) {
	masks, b := RoundRobinMasks([]int{3, 2, 4})
	dims := []int{3, 2, 4}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		bins := make([]uint64, 3)
		for i, db := range dims {
			bins[i] = rng.Uint64() & ((1 << uint(db)) - 1)
		}
		key := EncodeKey(bins, dims, masks, b)
		for i := range dims {
			want := bins[i] >> uint(dims[i]-Ones(masks[i]))
			if got := GatherBits(key, masks[i], b); got != want {
				t.Fatalf("use %d: gathered %b, want %b", i, got, want)
			}
		}
	}
}

// TestEncodeKeyZOrderMonotone checks that with round-robin interleaving,
// increasing one dimension's bin while holding the others fixed never
// decreases the key — the Z-order curve is monotone per dimension, which is
// what makes bin-range pushdown sound.
func TestEncodeKeyZOrderMonotone(t *testing.T) {
	masks, b := RoundRobinMasks([]int{4, 4})
	dims := []int{4, 4}
	for other := uint64(0); other < 16; other++ {
		var prev uint64
		for bin := uint64(0); bin < 16; bin++ {
			key := EncodeKey([]uint64{bin, other}, dims, masks, b)
			if bin > 0 && key <= prev {
				t.Fatalf("key not monotone in dimension 0 at bin=%d other=%d", bin, other)
			}
			prev = key
		}
	}
}

func TestTruncateMasksDropsMinorBits(t *testing.T) {
	masks, total := RoundRobinMasks([]int{13, 5, 5, 13})
	for b := 1; b <= total; b++ {
		trunc := TruncateMasks(masks, total, b)
		if err := ValidateMasks(trunc, b); err != nil {
			t.Fatalf("truncation to %d bits invalid: %v", b, err)
		}
		n := 0
		for _, m := range trunc {
			n += Ones(m)
		}
		if n != b {
			t.Fatalf("truncation to %d bits has %d total ones", b, n)
		}
	}
}

// refScatterBits is ScatterBits as a loop over all b key positions, major
// to minor: the definition the one-step-per-mask-bit form must reproduce.
func refScatterBits(bin uint64, dimBits int, mask uint64, b int) uint64 {
	n := Ones(mask)
	if n == 0 {
		return 0
	}
	reduced := bin
	if dimBits > n {
		reduced = bin >> uint(dimBits-n)
	}
	var key uint64
	next := n - 1 // index of the next (currently most significant unplaced) bit
	for pos := 0; pos < b; pos++ {
		bit := uint(b - 1 - pos)
		if mask&(1<<bit) == 0 {
			continue
		}
		key |= ((reduced >> uint(next)) & 1) << bit
		next--
		if next < 0 {
			break
		}
	}
	return key
}

// refGatherBits is GatherBits as a loop over all b key positions.
func refGatherBits(key uint64, mask uint64, b int) uint64 {
	var out uint64
	for pos := 0; pos < b; pos++ {
		bit := uint(b - 1 - pos)
		if mask&(1<<bit) == 0 {
			continue
		}
		out = out<<1 | ((key >> bit) & 1)
	}
	return out
}

// TestScatterGatherMatchReference holds ScatterBits and GatherBits to the
// position loops on the masks the builder makes — round-robin and
// major-minor at full granularity, and truncated to every b — with dimBits
// above, at and below ones(mask), and checks the gather(scatter) round trip.
func TestScatterGatherMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	type masked struct {
		masks []uint64
		b     int
	}
	var cases []masked
	for _, uses := range [][]int{{13, 5, 5, 13}, {3, 2, 4}, {1}, {20, 20, 22}, {7, 0, 9}} {
		for _, assign := range []func([]int) ([]uint64, int){RoundRobinMasks, MajorMinorMasks} {
			masks, full := assign(uses)
			cases = append(cases, masked{masks, full})
			for b := 1; b < full; b++ {
				cases = append(cases, masked{TruncateMasks(masks, full, b), b})
			}
		}
	}
	for _, c := range cases {
		for _, mask := range c.masks {
			n := Ones(mask)
			for _, dimBits := range []int{0, max(n-3, 0), n, n + 1, n + 9} {
				for trial := 0; trial < 20; trial++ {
					bin := rng.Uint64() & (1<<uint(dimBits) - 1)
					key := ScatterBits(bin, dimBits, mask, c.b)
					if want := refScatterBits(bin, dimBits, mask, c.b); key != want {
						t.Fatalf("ScatterBits(%b, %d, %b, %d) = %b, want %b", bin, dimBits, mask, c.b, key, want)
					}
					if got, want := GatherBits(key, mask, c.b), refGatherBits(key, mask, c.b); got != want {
						t.Fatalf("GatherBits(%b, %b, %d) = %b, want %b", key, mask, c.b, got, want)
					}
					noise := rng.Uint64() & (1<<uint(c.b) - 1)
					if got, want := GatherBits(noise, mask, c.b), refGatherBits(noise, mask, c.b); got != want {
						t.Fatalf("GatherBits(%b, %b, %d) = %b, want %b", noise, mask, c.b, got, want)
					}
					reduced := bin
					if dimBits > n {
						reduced >>= uint(dimBits - n)
					}
					if got := GatherBits(key, mask, c.b); got != reduced {
						t.Fatalf("GatherBits(ScatterBits(%b)) = %b, want %b (mask %b, dimBits %d)", bin, got, reduced, mask, dimBits)
					}
				}
			}
		}
	}
}
