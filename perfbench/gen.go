package main

import (
	"encoding/csv"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// The benchmark owns its source generator instead of using the
// repository's datagen.ECommerce: CSV loading drops declared foreign
// keys, so sessions mine inclusion dependencies, and datagen's small
// overlapping integer domains make mined-IND walks explode. Here every
// key is a prefixed string (c17, o123, p9, ...) and every non-key
// column has a domain no other column shares, so mining finds exactly
// the joins listed in expectedEdges for every seed.

// Relation sizes of one generated source.
const (
	nCustomers = 200
	nOrders    = 1000
	nProducts  = 100
	nReviews   = 50
	shipRate   = 0.7
)

// table is one generated relation: unqualified header plus rows.
type table struct {
	name   string
	header []string
	rows   [][]string
}

// source is one session's generated e-commerce instance.
type source struct {
	seed   int64
	tables []table
	// chaseTitle is a product title that also occurs in Reviews, the
	// value the loop's data chase follows.
	chaseTitle string
	// Values the edit generator draws from.
	orderIDs []string
}

var (
	firstNames = []string{"Ada", "Ben", "Cleo", "Dev", "Eli", "Fay", "Gus", "Hana", "Ivo", "Jun", "Kai", "Lia"}
	lastNames  = []string{"Abbott", "Brandt", "Costa", "Dietz", "Evans", "Fujii", "Garcia", "Holm", "Ilves", "Jensen"}
	countries  = []string{"CA", "US", "DE", "JP", "BR"}
	carriers   = []string{"UPS", "DHL", "FedEx", "USPS"}
	adjectives = []string{"Amber", "Brisk", "Coral", "Dusky", "Eager", "Frosty", "Gilded", "Hollow", "Ivory", "Jolly"}
	nouns      = []string{"Kettle", "Lantern", "Mixer", "Notebook", "Pillow", "Quilt", "Router", "Satchel", "Teapot", "Umbrella"}
	// offTitles are review titles no product carries, so Reviews.title
	// is never included in Products.title and the chase stays the only
	// way to reach Reviews.
	offTitles = []string{"Vintage Gramophone", "Velvet Armchair", "Walnut Easel", "Woolen Scarf", "Wicker Basket"}
	starVals  = []string{"0.5", "1.5", "2.5", "3.5", "4.5"}
)

// genSource builds the instance for one session seed. Customer c200
// never orders and product p100 is never ordered, so neither key
// column is included in its referencing column and mining keeps those
// edges one-directional.
func genSource(seed int64) *source {
	rng := rand.New(rand.NewSource(seed))
	src := &source{seed: seed}

	cust := table{name: "Customers", header: []string{"cid", "name", "country"}}
	for i := 1; i <= nCustomers; i++ {
		name := firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))]
		cust.rows = append(cust.rows, []string{"c" + strconv.Itoa(i), name, countries[rng.Intn(len(countries))]})
	}

	prod := table{name: "Products", header: []string{"pid", "title", "price"}}
	var titles []string
	for i := 1; i <= nProducts; i++ {
		title := fmt.Sprintf("%s %s %d", adjectives[rng.Intn(len(adjectives))], nouns[rng.Intn(len(nouns))], i)
		titles = append(titles, title)
		price := fmt.Sprintf("%d.%s", 2+rng.Intn(200), []string{"49", "99"}[rng.Intn(2)])
		prod.rows = append(prod.rows, []string{"p" + strconv.Itoa(i), title, price})
	}

	orders := table{name: "Orders", header: []string{"oid", "cid", "day"}}
	lines := table{name: "OrderLines", header: []string{"lid", "oid", "pid", "qty"}}
	ships := table{name: "Shipments", header: []string{"sid", "oid", "carrier"}}
	// Line counts 1..5 in equal shares and exactly shipRate of the
	// orders shipped, shuffled: every seed has the same relation sizes,
	// so D(G) sizes (and the spill cap's bite) barely vary by seed.
	perLine := make([]int, nOrders)
	for i := range perLine {
		perLine[i] = 1 + i%5
	}
	rng.Shuffle(len(perLine), func(i, j int) { perLine[i], perLine[j] = perLine[j], perLine[i] })
	shipped := make([]bool, nOrders)
	for _, i := range rng.Perm(nOrders)[:int(shipRate*nOrders)] {
		shipped[i] = true
	}
	lid, sid := 0, 0
	for i := 1; i <= nOrders; i++ {
		oid := "o" + strconv.Itoa(i)
		src.orderIDs = append(src.orderIDs, oid)
		orders.rows = append(orders.rows, []string{oid, "c" + strconv.Itoa(1+rng.Intn(nCustomers-1)), randomDay(rng)})
		for n := perLine[i-1]; n > 0; n-- {
			lid++
			lines.rows = append(lines.rows, []string{"l" + strconv.Itoa(lid), oid,
				"p" + strconv.Itoa(1+rng.Intn(nProducts-1)), strconv.Itoa(1 + rng.Intn(5))})
		}
		if shipped[i-1] {
			sid++
			ships.rows = append(ships.rows, []string{"s" + strconv.Itoa(sid), oid, carriers[rng.Intn(len(carriers))]})
		}
	}

	revs := table{name: "Reviews", header: []string{"rid", "title", "stars"}}
	for i := 1; i <= nReviews; i++ {
		var title string
		if i%2 == 1 {
			title = offTitles[rng.Intn(len(offTitles))]
		} else {
			title = titles[rng.Intn(nProducts-1)]
			if src.chaseTitle == "" {
				src.chaseTitle = title
			}
		}
		revs.rows = append(revs.rows, []string{"r" + strconv.Itoa(i), title, starVals[rng.Intn(len(starVals))]})
	}

	src.tables = []table{cust, lines, orders, prod, revs, ships}
	return src
}

func randomDay(rng *rand.Rand) string {
	return fmt.Sprintf("2024-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28))
}

// rowCount returns the number of rows of the named relation.
func (s *source) rowCount(name string) int {
	for _, t := range s.tables {
		if t.name == name {
			return len(t.rows)
		}
	}
	return 0
}

// writeCSV writes one <Relation>.csv per table into dir.
func (s *source) writeCSV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, t := range s.tables {
		f, err := os.Create(filepath.Join(dir, t.name+".csv"))
		if err != nil {
			return err
		}
		w := csv.NewWriter(f)
		_ = w.Write(t.header)
		_ = w.WriteAll(t.rows) // WriteAll flushes; its error is checked below.
		if err := w.Error(); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", t.name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// expectedEdges is the join knowledge mining must find, as unordered
// column pairs in the form "A.x=B.y" with A.x < B.y. The last pair is
// transitive: every order has a line, so Shipments.oid is included in
// OrderLines.oid as well as in Orders.oid.
var expectedEdges = []string{
	"Customers.cid=Orders.cid",
	"OrderLines.oid=Orders.oid",
	"OrderLines.oid=Shipments.oid",
	"OrderLines.pid=Products.pid",
	"Orders.oid=Shipments.oid",
}

// edgeKey normalizes an unordered column pair.
func edgeKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "=" + b
}

// checkEdges reports an error unless the mined pairs equal
// expectedEdges exactly.
func checkEdges(got []string) error {
	sorted := append([]string(nil), got...)
	sort.Strings(sorted)
	if fmt.Sprint(sorted) != fmt.Sprint(expectedEdges) {
		return fmt.Errorf("mined join knowledge %v, want %v", sorted, expectedEdges)
	}
	return nil
}

// edit is one row edit the analysts send.
type edit struct {
	Relation string   `json:"relation"`
	Values   []string `json:"values"`
	Delete   bool     `json:"delete,omitempty"`
}

// genEdits returns n row edits against the given relations (OrderLines
// and Orders, or Reviews): about 70% inserts and 30% deletes of rows
// this stream inserted earlier and has not deleted yet. Every delete
// therefore names a row that exists when it is applied.
func genEdits(src *source, relations []string, n int) []edit {
	rng := rand.New(rand.NewSource(src.seed ^ 0x5eed))
	next := map[string]int{}
	for _, r := range relations {
		next[r] = src.rowCount(r)
	}
	var live []edit
	out := make([]edit, 0, n)
	for len(out) < n {
		if len(live) > 0 && rng.Float64() < 0.3 {
			i := rng.Intn(len(live))
			del := live[i]
			del.Delete = true
			live = append(live[:i], live[i+1:]...)
			out = append(out, del)
			continue
		}
		rel := relations[rng.Intn(len(relations))]
		next[rel]++
		id := strconv.Itoa(next[rel])
		var vals []string
		switch rel {
		case "OrderLines":
			vals = []string{"l" + id, src.orderIDs[rng.Intn(len(src.orderIDs))],
				"p" + strconv.Itoa(1+rng.Intn(nProducts-1)), strconv.Itoa(1 + rng.Intn(5))}
		case "Orders":
			vals = []string{"o" + id, "c" + strconv.Itoa(1+rng.Intn(nCustomers-1)), randomDay(rng)}
		case "Reviews":
			vals = []string{"r" + id, offTitles[rng.Intn(len(offTitles))], starVals[rng.Intn(len(starVals))]}
		default:
			panic("genEdits: no generator for " + rel)
		}
		ins := edit{Relation: rel, Values: vals}
		live = append(live, ins)
		out = append(out, ins)
	}
	return out
}
