package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"github.com/encdbdb/encdbdb/internal/workload"
)

// Table shape shared by every workload.
const (
	tableName  = "sales"
	tableRows  = 1_000_000
	rangeSize  = 100     // RS of paper §6.3
	queryPool  = 1 << 14 // pre-drawn queries; a run that exhausts them cycles
	insertPool = 1 << 17 // pre-drawn insert rows; likewise
)

const (
	createSQL   = "CREATE TABLE sales (k ED1(8), a ED5(10) BSMAX 10, b ED3(10), c ED8(12))"
	analyticSQL = "SELECT COUNT(*) FROM sales WHERE a BETWEEN ? AND ? AND b BETWEEN ? AND ? AND c BETWEEN ? AND ?"
	fetchSQL    = "SELECT k, a, b, c FROM sales WHERE k = ?"
	insertSQL   = "INSERT INTO sales VALUES (?, ?, ?, ?)"
	mergeSQL    = "MERGE TABLE sales ASYNC"
	countAllSQL = "SELECT COUNT(*) FROM sales"
)

// column is one generated plaintext column, held pointer-free so the
// benchmark's own heap costs the collector little while the program runs:
// fixed-width values in one arena, the distinct values in ascending order in
// another, and per row the rank of its value among the distinct values.
// Ranks turn a range of RS consecutive distinct values into an integer
// interval, which is what the oracle compares.
type column struct {
	name   string
	width  int
	vals   []byte
	sorted []byte
	rank   []uint32
}

func newColumn(name string, g *workload.Column) *column {
	w := g.Profile.ValueLen
	c := &column{name: name, width: w, vals: make([]byte, 0, w*len(g.Values)), sorted: make([]byte, 0, w*len(g.SortedUnique))}
	for _, v := range g.SortedUnique {
		c.sorted = append(c.sorted, v...)
	}
	c.rank = make([]uint32, len(g.Values))
	for i, v := range g.Values {
		c.vals = append(c.vals, v...)
		c.rank[i] = c.rankOf(v)
	}
	return c
}

func (c *column) value(row int) []byte        { return c.vals[row*c.width : (row+1)*c.width] }
func (c *column) distinct(r uint32) []byte    { return c.sorted[int(r)*c.width : (int(r)+1)*c.width] }
func (c *column) distinctStr(r uint32) string { return string(c.distinct(r)) }
func (c *column) nDistinct() int              { return len(c.sorted) / c.width }

// rankOf returns the position of v among the sorted distinct values.
func (c *column) rankOf(v []byte) uint32 {
	return uint32(sort.Search(c.nDistinct(), func(i int) bool { return bytes.Compare(c.distinct(uint32(i)), v) >= 0 }))
}

// slices returns the column as the [][]byte the owner's dict.Build takes.
// Equal values share one backing slice, as the generator laid them out.
func (c *column) slices() [][]byte {
	out := make([][]byte, len(c.rank))
	for i, r := range c.rank {
		out[i] = c.distinct(r)
	}
	return out
}

// postings lists, for every rank, the rows holding that value in ascending
// row order (CSR layout: rows[start[r]:start[r+1]]).
type postings struct {
	start []int
	rows  []uint32
}

func newPostings(c *column) postings {
	p := postings{start: make([]int, c.nDistinct()+1), rows: make([]uint32, len(c.rank))}
	for _, r := range c.rank {
		p.start[r+1]++
	}
	for i := 1; i < len(p.start); i++ {
		p.start[i] += p.start[i-1]
	}
	next := append([]int(nil), p.start[:c.nDistinct()]...)
	for row, r := range c.rank {
		p.rows[next[r]] = uint32(row)
		next[r]++
	}
	return p
}

func (p postings) of(lo, hi uint32) []uint32 { return p.rows[p.start[lo]:p.start[hi+1]] }

// interval is an inclusive rank range.
type interval struct{ lo, hi uint32 }

func (iv interval) has(r uint32) bool { return r >= iv.lo && r <= iv.hi }

// rangeQuery is one pre-drawn analytic query: an RS=100 range on each of
// a, b and c, as rank intervals.
type rangeQuery [3]interval

// dataset is the plaintext table (a function of tableSeed), the operations
// pre-drawn from the workload seed, and the oracle indexes.
type dataset struct {
	cols    [4]*column // k, a, b, c in schema order
	byKey   postings   // rows per k rank (fetch oracle)
	byC     postings   // rows per c rank (analytic oracle)
	ranges  []rangeQuery
	keys    []uint32    // k ranks of the fetch queries
	inserts [][4]uint32 // value ranks (k, a, b, c) of the mixed writer's rows
	plain   int         // plaintext bytes of the loaded table
}

func newDataset(seed int64) (*dataset, error) {
	ds := &dataset{}
	profiles := [4]workload.Profile{
		{Name: "K", Rows: tableRows, Unique: 1000, ValueLen: 8},
		workload.C2().Scaled(tableRows),
		workload.C2().Scaled(tableRows),
		workload.C1().Scaled(tableRows),
	}
	var gens [3]*workload.QueryGen
	for j, name := range []string{"k", "a", "b", "c"} {
		g := workload.Generate(profiles[j], tableSeed+int64(j))
		ds.cols[j] = newColumn(name, g)
		if j > 0 {
			q, err := workload.NewQueryGen(g, rangeSize, seed+10+int64(j))
			if err != nil {
				return nil, fmt.Errorf("query generator for %s: %w", name, err)
			}
			gens[j-1] = q
		}
		ds.plain += len(ds.cols[j].vals)
	}
	ds.byKey = newPostings(ds.cols[0])
	ds.byC = newPostings(ds.cols[3])

	ds.ranges = make([]rangeQuery, queryPool)
	for i := range ds.ranges {
		for j, g := range gens {
			r := g.Next()
			c := ds.cols[j+1]
			ds.ranges[i][j] = interval{lo: c.rankOf(r.Start), hi: c.rankOf(r.End)}
		}
	}
	rng := rand.New(rand.NewSource(seed + 20))
	ds.keys = make([]uint32, queryPool)
	for i := range ds.keys {
		ds.keys[i] = uint32(rng.Intn(ds.cols[0].nDistinct()))
	}
	// Insert rows draw each column's value from that column's own rows, so
	// they follow the loaded distributions.
	ds.inserts = make([][4]uint32, insertPool)
	for i := range ds.inserts {
		for j, c := range ds.cols {
			ds.inserts[i][j] = c.rank[rng.Intn(tableRows)]
		}
	}
	return ds, nil
}

// rangeArgs returns the SQL arguments of analytic query i.
func (ds *dataset) rangeArgs(i int) []any {
	q := &ds.ranges[i%len(ds.ranges)]
	args := make([]any, 0, 6)
	for j, iv := range q {
		c := ds.cols[j+1]
		args = append(args, c.distinctStr(iv.lo), c.distinctStr(iv.hi))
	}
	return args
}

// insertArgs returns the SQL arguments of insert i.
func (ds *dataset) insertArgs(i int) []any {
	ins := &ds.inserts[i%len(ds.inserts)]
	args := make([]any, 4)
	for j, c := range ds.cols {
		args[j] = c.distinctStr(ins[j])
	}
	return args
}

// keyArg returns the SQL argument of fetch query i.
func (ds *dataset) keyArg(i int) string { return ds.cols[0].distinctStr(ds.keys[i%len(ds.keys)]) }

// countBase is the oracle COUNT of analytic query i over the loaded rows.
func (ds *dataset) countBase(i int) int {
	q := &ds.ranges[i%len(ds.ranges)]
	a, b := ds.cols[1].rank, ds.cols[2].rank
	n := 0
	for _, row := range ds.byC.of(q[2].lo, q[2].hi) {
		if q[0].has(a[row]) && q[1].has(b[row]) {
			n++
		}
	}
	return n
}

// insertMatches reports whether insert j satisfies analytic query i.
func (ds *dataset) insertMatches(i, j int) bool {
	q := &ds.ranges[i%len(ds.ranges)]
	ins := &ds.inserts[j%len(ds.inserts)]
	return q[0].has(ins[1]) && q[1].has(ins[2]) && q[2].has(ins[3])
}

// checkKeyRows compares the decrypted rows of fetch query i with the
// oracle: the rows holding that key, in RecordID order.
func (ds *dataset) checkKeyRows(i int, got [][]string) error {
	kr := ds.keys[i%len(ds.keys)]
	want := ds.byKey.of(kr, kr)
	if len(got) != len(want) {
		return fmt.Errorf("%w: fetch %d returned %d rows, oracle has %d", errWrongAnswer, i, len(got), len(want))
	}
	for n, row := range want {
		if len(got[n]) != len(ds.cols) {
			return fmt.Errorf("%w: fetch %d row %d has %d cells", errWrongAnswer, i, n, len(got[n]))
		}
		for j, c := range ds.cols {
			if got[n][j] != string(c.value(int(row))) {
				return fmt.Errorf("%w: fetch %d row %d column %s differs from the oracle", errWrongAnswer, i, n, c.name)
			}
		}
	}
	return nil
}

// countCheck is one non-timed COUNT query with its oracle answer.
type countCheck struct {
	sql   string
	args  []any
	count int
}

// singleColumnChecks returns one COUNT per range column of analytic query i
// with its oracle count, so the correctness check also covers non-empty
// answers (the three-way conjunctions are mostly empty).
func (ds *dataset) singleColumnChecks(i int) []countCheck {
	q := &ds.ranges[i%len(ds.ranges)]
	args := ds.rangeArgs(i)
	var out []countCheck
	for j, iv := range q {
		c := ds.cols[j+1]
		n := 0
		for _, r := range c.rank {
			if iv.has(r) {
				n++
			}
		}
		out = append(out, countCheck{
			sql:   fmt.Sprintf("SELECT COUNT(*) FROM sales WHERE %s BETWEEN ? AND ?", c.name),
			args:  args[2*j : 2*j+2],
			count: n,
		})
	}
	return out
}
