package tpch

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"bdcc/internal/storage"
	"bdcc/internal/vector"
)

// Static value pools from the TPC-H specification (subset sufficient for the
// 22 queries' predicates).
var (
	regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

	// nations maps n_nationkey to (name, regionkey), per the spec's fixed
	// nation table.
	nationNames = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
		"FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
		"JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
		"ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
		"UNITED STATES",
	}
	nationRegions = []int64{0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1}

	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipModes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	instructs  = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}

	typeSyl1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyl2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyl3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}

	containerSyl1 = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
	containerSyl2 = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}

	// colors is a subset of the spec's P_NAME word pool; it includes the
	// words Q9 ("green") and Q20 ("forest") select on.
	colors = []string{
		"almond", "antique", "aquamarine", "azure", "beige", "bisque",
		"black", "blanched", "blue", "blush", "brown", "burlywood",
		"chartreuse", "chiffon", "chocolate", "coral", "cornflower",
		"cream", "cyan", "dark", "deep", "dim", "dodger", "drab", "firebrick",
		"floral", "forest", "frosted", "gainsboro", "ghost", "goldenrod",
		"green", "grey", "honeydew", "hot", "indian", "ivory", "khaki",
		"lace", "lavender", "lawn", "lemon", "light", "lime", "linen",
		"magenta", "maroon", "medium", "metallic", "midnight", "mint",
		"misty", "moccasin", "navajo", "navy", "olive", "orange", "orchid",
		"pale", "papaya", "peach", "peru", "pink", "plum", "powder", "puff",
		"purple", "red", "rose", "rosy", "royal", "saddle", "salmon",
		"sandy", "seashell", "sienna", "sky", "slate", "smoke", "snow",
		"spring", "steel", "tan", "thistle", "tomato", "turquoise", "violet",
		"wheat", "white", "yellow",
	}

	commentWords = []string{
		"carefully", "quickly", "furiously", "slyly", "blithely", "ironic",
		"regular", "express", "bold", "final", "pending", "silent", "even",
		"special", "unusual", "packages", "deposits", "requests", "accounts",
		"instructions", "theodolites", "pinto", "beans", "foxes", "ideas",
		"dependencies", "platelets", "excuses", "asymptotes", "courts",
		"sleep", "wake", "haggle", "nag", "cajole", "boost", "detect",
		"integrate", "use", "among", "across", "above", "the",
	}
)

// Dataset is a generated TPC-H database.
type Dataset struct {
	SF     float64
	Tables map[string]*storage.Table
}

// Generate produces a deterministic TPC-H dataset at the given scale factor
// with the paper's 32 KB page geometry. Key distributional properties the
// reproduction depends on are preserved from the specification:
//
//   - o_orderdate uniform in [1992-01-01, 1998-08-02] — uncorrelated with
//     orderkey, so insertion order gives the Plain scheme no date locality;
//   - l_shipdate = o_orderdate + U[1,121] — the orderdate/shipdate
//     correlation that lets MinMax indexes prune shipdate predicates once
//     BDCC clusters on D_DATE (the paper's Q6/Q12/Q20 effect);
//   - one third of customers place no orders (Q22's target population);
//   - c_phone country code = 10 + nationkey (Q22's substring predicate);
//   - a small fraction of o_comment match '%special%requests%' (Q13) and of
//     s_comment match '%Customer%Complaints%' (Q16).
func Generate(sf float64) *Dataset {
	if sf <= 0 {
		panic(fmt.Sprintf("tpch: scale factor %v must be positive", sf))
	}
	// The paper stores 100 GB TPC-H on 32 KB pages; reproduction datasets
	// are ~1000× smaller, so 4 KB logical pages keep the group-bytes-per-
	// page geometry of Algorithm 1's AR sizing comparable (see DESIGN.md).
	const pageSize = 4 << 10
	d := &Dataset{SF: sf, Tables: make(map[string]*storage.Table)}

	nSupp := scaled(10_000, sf)
	nPart := scaled(200_000, sf)
	nCust := scaled(150_000, sf)
	nOrd := scaled(1_500_000, sf)

	d.Tables["region"] = genRegion(pageSize)
	d.Tables["nation"] = genNation(pageSize)
	d.Tables["supplier"] = genSupplier(pageSize, nSupp)
	part, retail := genPart(pageSize, nPart)
	d.Tables["part"] = part
	d.Tables["partsupp"] = genPartsupp(pageSize, nPart, nSupp)
	d.Tables["customer"] = genCustomer(pageSize, nCust)
	orders, lineitem := genOrdersLineitem(pageSize, nOrd, nCust, nPart, nSupp, retail)
	d.Tables["orders"] = orders
	d.Tables["lineitem"] = lineitem
	return d
}

func scaled(base int, sf float64) int {
	n := int(float64(base) * sf)
	if n < 1 {
		n = 1
	}
	return n
}

// The order dates' window and the date that splits returnflag and
// linestatus.
var (
	dateLo    = vector.ParseDate("1992-01-01")
	dateHi    = vector.ParseDate("1998-08-02")
	statusCut = vector.ParseDate("1995-06-17")
)

// Every string column is written straight into its heap (vector.Heap.End), so
// generating allocates no string per value; heaps are presized from the row
// count and a typical value length. commentHeap is sized for n comments.
func commentHeap(n, words int) vector.Heap { return vector.MakeHeap(n, 8*words*n) }

// comment appends a pseudo-random comment to h; with probability injectProb
// the two pattern words are planted with a gap, so '%w1%w2%' LIKE predicates
// match a controlled fraction of rows.
func comment(h *vector.Heap, rng *rand.Rand, words int, injectProb float64, w1, w2 string) {
	inject := injectProb > 0 && rng.Float64() < injectProb
	at := -1
	if inject {
		at = rng.Intn(words - 1)
	}
	for i := 0; i < words; i++ {
		if i > 0 {
			h.Bytes = append(h.Bytes, ' ')
		}
		switch {
		case inject && i == at:
			h.Bytes = append(h.Bytes, w1...)
		case inject && i == at+1:
			h.Bytes = append(h.Bytes, w2...)
		default:
			h.Bytes = append(h.Bytes, commentWords[rng.Intn(len(commentWords))]...)
		}
	}
	h.End()
}

// joined appends words, space-separated, to h as one value.
func joined(h *vector.Heap, words ...string) {
	for i, w := range words {
		if i > 0 {
			h.Bytes = append(h.Bytes, ' ')
		}
		h.Bytes = append(h.Bytes, w...)
	}
	h.End()
}

// numbered appends prefix and k zero-padded to width digits to h as one
// value (fmt's "%s%0*d").
func numbered(h *vector.Heap, prefix string, k int64, width int) {
	h.Bytes = append(h.Bytes, prefix...)
	for p := int64(10); width > 1; width, p = width-1, p*10 {
		if k < p {
			h.Bytes = append(h.Bytes, '0')
		}
	}
	h.Bytes = strconv.AppendInt(h.Bytes, k, 10)
	h.End()
}

func genRegion(pageSize int64) *storage.Table {
	rng := rand.New(rand.NewSource(101))
	n := len(regionNames)
	key := make([]int64, n)
	com := commentHeap(n, 6)
	for i := 0; i < n; i++ {
		key[i] = int64(i)
		comment(&com, rng, 6, 0, "", "")
	}
	return storage.MustNewTable("region", pageSize,
		storage.NewInt64Column("r_regionkey", key),
		storage.NewStringColumn("r_name", regionNames),
		storage.NewHeapColumn("r_comment", com))
}

func genNation(pageSize int64) *storage.Table {
	rng := rand.New(rand.NewSource(102))
	n := len(nationNames)
	key := make([]int64, n)
	com := commentHeap(n, 8)
	for i := 0; i < n; i++ {
		key[i] = int64(i)
		comment(&com, rng, 8, 0, "", "")
	}
	return storage.MustNewTable("nation", pageSize,
		storage.NewInt64Column("n_nationkey", key),
		storage.NewStringColumn("n_name", nationNames),
		storage.NewInt64Column("n_regionkey", slices.Clone(nationRegions)),
		storage.NewHeapColumn("n_comment", com))
}

func genSupplier(pageSize int64, n int) *storage.Table {
	rng := rand.New(rand.NewSource(103))
	key := make([]int64, n)
	name := vector.MakeHeap(n, 18*n)
	addr := vector.MakeHeap(n, 20*n)
	nation := make([]int64, n)
	phone := vector.MakeHeap(n, 15*n)
	bal := make([]float64, n)
	com := commentHeap(n, 10)
	for i := 0; i < n; i++ {
		k := int64(i + 1)
		key[i] = k
		numbered(&name, "Supplier#", k, 9)
		addr.Bytes = append(strconv.AppendInt(append(addr.Bytes, "addr s"...), k, 10), ' ')
		addr.Append(commentWords[rng.Intn(len(commentWords))])
		nk := rng.Int63n(25)
		nation[i] = nk
		genPhone(&phone, rng, nk)
		bal[i] = float64(rng.Intn(1100000)-100000) / 100
		// The spec plants "Customer ... Complaints" in 5 of 10000 suppliers.
		comment(&com, rng, 10, 0.0005, "Customer", "Complaints")
	}
	return storage.MustNewTable("supplier", pageSize,
		storage.NewInt64Column("s_suppkey", key),
		storage.NewHeapColumn("s_name", name),
		storage.NewHeapColumn("s_address", addr),
		storage.NewInt64Column("s_nationkey", nation),
		storage.NewHeapColumn("s_phone", phone),
		storage.NewFloat64Column("s_acctbal", bal),
		storage.NewHeapColumn("s_comment", com))
}

// genPhone appends a phone number of the nation's country code to h.
func genPhone(h *vector.Heap, rng *rand.Rand, nationkey int64) {
	h.Bytes = strconv.AppendInt(h.Bytes, 10+nationkey, 10)
	h.Bytes = strconv.AppendInt(append(h.Bytes, '-'), int64(100+rng.Intn(900)), 10)
	h.Bytes = strconv.AppendInt(append(h.Bytes, '-'), int64(100+rng.Intn(900)), 10)
	h.Bytes = strconv.AppendInt(append(h.Bytes, '-'), int64(1000+rng.Intn(9000)), 10)
	h.End()
}

// genPart returns the part table and p_retailprice by part index (needed to
// derive l_extendedprice).
func genPart(pageSize int64, n int) (*storage.Table, []float64) {
	rng := rand.New(rand.NewSource(104))
	key := make([]int64, n)
	name := vector.MakeHeap(n, 36*n)
	mfgr := vector.MakeHeap(n, 14*n)
	brand := vector.MakeHeap(n, 8*n)
	ptype := vector.MakeHeap(n, 22*n)
	size := make([]int64, n)
	container := vector.MakeHeap(n, 8*n)
	retail := make([]float64, n)
	com := commentHeap(n, 4)
	for i := 0; i < n; i++ {
		k := int64(i + 1)
		key[i] = k
		// Five distinct color words, as in the spec's P_NAME.
		perm := rng.Perm(len(colors))[:5]
		joined(&name, colors[perm[0]], colors[perm[1]], colors[perm[2]], colors[perm[3]], colors[perm[4]])
		m := int64(1 + rng.Intn(5))
		numbered(&mfgr, "Manufacturer#", m, 1)
		brand.Bytes = strconv.AppendInt(append(brand.Bytes, "Brand#"...), m, 10)
		brand.Bytes = strconv.AppendInt(brand.Bytes, int64(1+rng.Intn(5)), 10)
		brand.End()
		joined(&ptype, typeSyl1[rng.Intn(6)], typeSyl2[rng.Intn(5)], typeSyl3[rng.Intn(5)])
		size[i] = int64(1 + rng.Intn(50))
		joined(&container, containerSyl1[rng.Intn(5)], containerSyl2[rng.Intn(8)])
		retail[i] = float64(90000+((k/10)%20001)+100*(k%1000)) / 100
		comment(&com, rng, 4, 0, "", "")
	}
	t := storage.MustNewTable("part", pageSize,
		storage.NewInt64Column("p_partkey", key),
		storage.NewHeapColumn("p_name", name),
		storage.NewHeapColumn("p_mfgr", mfgr),
		storage.NewHeapColumn("p_brand", brand),
		storage.NewHeapColumn("p_type", ptype),
		storage.NewInt64Column("p_size", size),
		storage.NewHeapColumn("p_container", container),
		storage.NewFloat64Column("p_retailprice", retail),
		storage.NewHeapColumn("p_comment", com))
	return t, retail
}

// psSupplierFor reproduces the spec's supplier assignment: the i-th (0..3)
// supplier of part p among s suppliers.
func psSupplierFor(p int64, i int, s int64) int64 {
	return (p+int64(i)*(s/4+(p-1)/s))%s + 1
}

func genPartsupp(pageSize int64, nPart, nSupp int) *storage.Table {
	rng := rand.New(rand.NewSource(105))
	n := nPart * 4
	pk := make([]int64, 0, n)
	sk := make([]int64, 0, n)
	avail := make([]int64, 0, n)
	cost := make([]float64, 0, n)
	com := commentHeap(n, 12)
	for p := int64(1); p <= int64(nPart); p++ {
		for i := 0; i < 4; i++ {
			pk = append(pk, p)
			sk = append(sk, psSupplierFor(p, i, int64(nSupp)))
			avail = append(avail, int64(1+rng.Intn(9999)))
			cost = append(cost, float64(100+rng.Intn(99901))/100)
			comment(&com, rng, 12, 0, "", "")
		}
	}
	return storage.MustNewTable("partsupp", pageSize,
		storage.NewInt64Column("ps_partkey", pk),
		storage.NewInt64Column("ps_suppkey", sk),
		storage.NewInt64Column("ps_availqty", avail),
		storage.NewFloat64Column("ps_supplycost", cost),
		storage.NewHeapColumn("ps_comment", com))
}

func genCustomer(pageSize int64, n int) *storage.Table {
	rng := rand.New(rand.NewSource(106))
	key := make([]int64, n)
	name := vector.MakeHeap(n, 18*n)
	addr := vector.MakeHeap(n, 12*n)
	nation := make([]int64, n)
	phone := vector.MakeHeap(n, 15*n)
	bal := make([]float64, n)
	seg := vector.MakeHeap(n, 10*n)
	com := commentHeap(n, 10)
	for i := 0; i < n; i++ {
		k := int64(i + 1)
		key[i] = k
		numbered(&name, "Customer#", k, 9)
		numbered(&addr, "addr c", k, 1)
		nk := rng.Int63n(25)
		nation[i] = nk
		genPhone(&phone, rng, nk)
		bal[i] = float64(rng.Intn(1100000)-100000) / 100
		seg.Append(segments[rng.Intn(len(segments))])
		comment(&com, rng, 10, 0, "", "")
	}
	return storage.MustNewTable("customer", pageSize,
		storage.NewInt64Column("c_custkey", key),
		storage.NewHeapColumn("c_name", name),
		storage.NewHeapColumn("c_address", addr),
		storage.NewInt64Column("c_nationkey", nation),
		storage.NewHeapColumn("c_phone", phone),
		storage.NewFloat64Column("c_acctbal", bal),
		storage.NewHeapColumn("c_mktsegment", seg),
		storage.NewHeapColumn("c_comment", com))
}

func genOrdersLineitem(pageSize int64, nOrd, nCust, nPart, nSupp int, retail []float64) (*storage.Table, *storage.Table) {
	rng := rand.New(rand.NewSource(107))
	g := &orderGen{rng: rng, nCust: nCust, nPart: nPart, nSupp: nSupp, retail: retail}
	g.date = func() int64 { return dateLo + rng.Int63n(dateHi-dateLo+1) }
	g.reserve(nOrd)
	for i := 0; i < nOrd; i++ {
		g.order(int64(i + 1))
	}
	return g.tables(pageSize)
}

// orderGen writes orders, and the lineitems of each, straight into the
// columns of the two tables. The base generator and DeltaGen share it, so an
// arrival is drawn exactly as a loaded order is, but for its date.
type orderGen struct {
	rng                 *rand.Rand
	nCust, nPart, nSupp int
	retail              []float64
	date                func() int64 // draws an o_orderdate

	oKey, oCust, oDate, oShipPrio                   []int64
	oTotal                                          []float64
	oStatus, oPrio, oClerk, oCom                    vector.Heap
	lOrd, lPart, lSupp, lNum, lShip, lCommit, lRcpt []int64
	lQty, lExt, lDisc, lTax                         []float64
	lRet, lStat, lInstr, lMode, lCom                vector.Heap
}

// reserve gives g room for nOrd orders and, as orders average four lineitems,
// for about 4·nOrd lineitems.
func (g *orderGen) reserve(nOrd int) {
	n := 4*nOrd + nOrd/16 + 16
	i64 := func(n int) []int64 { return make([]int64, 0, n) }
	f64 := func(n int) []float64 { return make([]float64, 0, n) }
	g.oKey, g.oCust, g.oDate, g.oShipPrio, g.oTotal = i64(nOrd), i64(nOrd), i64(nOrd), i64(nOrd), f64(nOrd)
	g.oStatus, g.oPrio = vector.MakeHeap(nOrd, nOrd), vector.MakeHeap(nOrd, 9*nOrd)
	g.oClerk, g.oCom = vector.MakeHeap(nOrd, 15*nOrd), commentHeap(nOrd, 8)
	g.lOrd, g.lPart, g.lSupp, g.lNum, g.lShip, g.lCommit, g.lRcpt = i64(n), i64(n), i64(n), i64(n), i64(n), i64(n), i64(n)
	g.lQty, g.lExt, g.lDisc, g.lTax = f64(n), f64(n), f64(n), f64(n)
	g.lRet, g.lStat, g.lInstr = vector.MakeHeap(n, n), vector.MakeHeap(n, n), vector.MakeHeap(n, 12*n)
	g.lMode, g.lCom = vector.MakeHeap(n, 5*n), commentHeap(n, 5)
}

// order generates the order of key ok and its lineitems.
func (g *orderGen) order(ok int64) {
	rng := g.rng
	g.oKey = append(g.oKey, ok)
	// A third of customers place no orders (custkey % 3 == 0 skipped).
	var ck int64
	for {
		ck = 1 + rng.Int63n(int64(g.nCust))
		if ck%3 != 0 || g.nCust < 3 {
			break
		}
	}
	g.oCust = append(g.oCust, ck)
	od := g.date()
	g.oDate = append(g.oDate, od)
	g.oPrio.Append(priorities[rng.Intn(5)])
	numbered(&g.oClerk, "Clerk#", int64(1+rng.Intn(1000)), 9)
	g.oShipPrio = append(g.oShipPrio, 0)
	// The spec plants "special ... requests" so Q13 excludes a small
	// fraction of orders.
	comment(&g.oCom, rng, 8, 0.02, "special", "requests")

	items := 1 + rng.Intn(7)
	var total float64
	allF, allO := true, true
	for ln := 1; ln <= items; ln++ {
		pk := 1 + rng.Int63n(int64(g.nPart))
		si := rng.Intn(4)
		sk := psSupplierFor(pk, si, int64(g.nSupp))
		qty := float64(1 + rng.Intn(50))
		ext := qty * g.retail[pk-1]
		disc := float64(rng.Intn(11)) / 100
		tax := float64(rng.Intn(9)) / 100
		ship := od + 1 + rng.Int63n(121)
		commit := od + 30 + rng.Int63n(61)
		rcpt := ship + 1 + rng.Int63n(30)
		rf := "N"
		if rcpt <= statusCut {
			if rng.Intn(2) == 0 {
				rf = "R"
			} else {
				rf = "A"
			}
		}
		ls := "F"
		if ship > statusCut {
			ls = "O"
		}
		if ls == "F" {
			allO = false
		} else {
			allF = false
		}
		g.lOrd = append(g.lOrd, ok)
		g.lPart = append(g.lPart, pk)
		g.lSupp = append(g.lSupp, sk)
		g.lNum = append(g.lNum, int64(ln))
		g.lQty = append(g.lQty, qty)
		g.lExt = append(g.lExt, ext)
		g.lDisc = append(g.lDisc, disc)
		g.lTax = append(g.lTax, tax)
		g.lRet.Append(rf)
		g.lStat.Append(ls)
		g.lShip = append(g.lShip, ship)
		g.lCommit = append(g.lCommit, commit)
		g.lRcpt = append(g.lRcpt, rcpt)
		g.lInstr.Append(instructs[rng.Intn(4)])
		g.lMode.Append(shipModes[rng.Intn(7)])
		comment(&g.lCom, rng, 5, 0, "", "")
		total += ext * (1 + tax) * (1 - disc)
	}
	switch {
	case allF:
		g.oStatus.Append("F")
	case allO:
		g.oStatus.Append("O")
	default:
		g.oStatus.Append("P")
	}
	g.oTotal = append(g.oTotal, total)
}

// tables returns the orders and lineitem tables generated so far.
func (g *orderGen) tables(pageSize int64) (orders, lineitem *storage.Table) {
	orders = storage.MustNewTable("orders", pageSize,
		storage.NewInt64Column("o_orderkey", g.oKey),
		storage.NewInt64Column("o_custkey", g.oCust),
		storage.NewHeapColumn("o_orderstatus", g.oStatus),
		storage.NewFloat64Column("o_totalprice", g.oTotal),
		storage.NewInt64Column("o_orderdate", g.oDate),
		storage.NewHeapColumn("o_orderpriority", g.oPrio),
		storage.NewHeapColumn("o_clerk", g.oClerk),
		storage.NewInt64Column("o_shippriority", g.oShipPrio),
		storage.NewHeapColumn("o_comment", g.oCom))
	lineitem = storage.MustNewTable("lineitem", pageSize,
		storage.NewInt64Column("l_orderkey", g.lOrd),
		storage.NewInt64Column("l_partkey", g.lPart),
		storage.NewInt64Column("l_suppkey", g.lSupp),
		storage.NewInt64Column("l_linenumber", g.lNum),
		storage.NewFloat64Column("l_quantity", g.lQty),
		storage.NewFloat64Column("l_extendedprice", g.lExt),
		storage.NewFloat64Column("l_discount", g.lDisc),
		storage.NewFloat64Column("l_tax", g.lTax),
		storage.NewHeapColumn("l_returnflag", g.lRet),
		storage.NewHeapColumn("l_linestatus", g.lStat),
		storage.NewInt64Column("l_shipdate", g.lShip),
		storage.NewInt64Column("l_commitdate", g.lCommit),
		storage.NewInt64Column("l_receiptdate", g.lRcpt),
		storage.NewHeapColumn("l_shipinstruct", g.lInstr),
		storage.NewHeapColumn("l_shipmode", g.lMode),
		storage.NewHeapColumn("l_comment", g.lCom))
	return orders, lineitem
}
