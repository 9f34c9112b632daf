package main

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"time"

	encdbdb "github.com/encdbdb/encdbdb"
	"github.com/encdbdb/encdbdb/internal/av"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/ridset"
)

// replayTimes are per-query means of the in-process replays of captured
// queries, in milliseconds.
type replayTimes struct {
	selectMS, renderMS, dictSearchMS, scanMS, decryptMS float64
	rowsOut, cells                                      float64
}

// replay re-runs captured queries in process, layer by layer: the engine's
// Select as captured and as a count, the enclave's dictionary search of
// each filter range over the imported main split, the attribute-vector
// kernel over that split with what the search returned, and the proxy's
// decryption of the captured result cells.
func replay(ctx context.Context, p *provider, master encdbdb.Key, qs []*capturedQuery) (replayTimes, error) {
	var rt replayTimes
	if len(qs) == 0 {
		return rt, nil
	}
	eng := p.engine()
	encl := eng.Enclave()
	schema, err := eng.Schema(tableName)
	if err != nil {
		return rt, err
	}
	splits := make(map[string]*dict.Split)
	ciphers := make(map[string]*pae.Cipher)
	for j, def := range schema.Columns {
		splits[def.Name] = p.splits[j]
		k, err := pae.Derive(master, tableName, def.Name)
		if err != nil {
			return rt, err
		}
		if ciphers[def.Name], err = pae.NewCipher(k); err != nil {
			return rt, err
		}
	}
	var sel, count, search, scan, decrypt time.Duration
	for _, c := range qs {
		t := time.Now()
		res, err := eng.Select(ctx, c.q)
		d := time.Since(t)
		if err != nil {
			return rt, fmt.Errorf("engine replay: %w", err)
		}
		sel += d
		rt.rowsOut += float64(res.Count)
		if c.q.CountOnly {
			count += d // a count renders nothing
		} else {
			cq := c.q
			cq.CountOnly = true
			t = time.Now()
			if _, err := eng.Select(ctx, cq); err != nil {
				return rt, fmt.Errorf("engine count replay: %w", err)
			}
			count += time.Since(t)
		}
		var preds []scanPred
		for _, f := range c.q.Filters {
			def, _ := schema.Column(f.Column)
			s := splits[f.Column]
			meta := enclave.ColumnMeta{Table: tableName, Column: def.Name, Kind: def.Kind, MaxLen: def.MaxLen}
			var results []enclave.SearchResult
			for _, r := range f.Ranges {
				t = time.Now()
				res, err := encl.DictSearch(meta, s, s.EncRndOffset, r)
				search += time.Since(t)
				if err != nil {
					return rt, fmt.Errorf("dictionary search replay: %w", err)
				}
				results = append(results, res)
			}
			preds = append(preds, newScanPred(s, results))
		}
		scan += fusedScan(preds)
		for ci, cells := range c.cells {
			ciph := ciphers[projection(c.q, schema)[ci]]
			t = time.Now()
			for _, cell := range cells {
				if _, err := ciph.Decrypt(cell); err != nil {
					return rt, fmt.Errorf("decrypt replay: %w", err)
				}
			}
			decrypt += time.Since(t)
			rt.cells += float64(len(cells))
		}
	}
	n := float64(len(qs))
	rt.selectMS = ms(sel) / n
	rt.renderMS = (ms(sel) - ms(count)) / n
	rt.dictSearchMS = ms(search) / n
	rt.scanMS = ms(scan) / n
	rt.decryptMS = ms(decrypt) / n
	rt.rowsOut /= n
	rt.cells /= n
	return rt, nil
}

// scanPred is one filter's attribute-vector predicate over the imported main
// split: ValueID ranges from a sorted or rotated dictionary search, or a
// ValueID bitmap from an unsorted one.
type scanPred struct {
	v      *av.Vector
	ranges []av.Range
	set    []uint64 // non-nil for unsorted dictionaries
	cost   int
}

func newScanPred(s *dict.Split, results []enclave.SearchResult) scanPred {
	p := scanPred{v: s.Packed()}
	if s.Kind.Order() == dict.OrderUnsorted {
		p.set = make([]uint64, (p.v.DictLen()+63)/64)
		for _, res := range results {
			for _, id := range res.IDs {
				p.set[id/64] |= 1 << (id % 64)
			}
		}
		p.cost = s.Len() * len(results)
		return p
	}
	for _, res := range results {
		for _, r := range res.Ranges {
			p.ranges = append(p.ranges, av.Range{Lo: r.Lo, Hi: r.Hi})
		}
	}
	p.cost = bits.Len(uint(s.Len())) * len(results)
	return p
}

// fusedScan times the attribute-vector kernels the way the engine's fused
// scan runs them: one accumulator over the main store, predicates ANDed in
// cheapest-dictionary-search-first order (the engine's plan cost), each
// group skipped once it is empty. It runs on one core; the engine may split
// the groups across workers.
func fusedScan(preds []scanPred) time.Duration {
	if len(preds) == 0 {
		return 0
	}
	sort.SliceStable(preds, func(a, b int) bool { return preds[a].cost < preds[b].cost })
	rows := preds[0].v.Len()
	acc := ridset.Full(rows)
	groups := (rows + av.GroupRows - 1) / av.GroupRows
	t := time.Now()
	for _, p := range preds {
		var more bool
		if p.set != nil {
			more = p.v.ScanBitsetInto(acc, 0, groups, p.set)
		} else {
			more = p.v.ScanRangesInto(acc, 0, groups, p.ranges)
		}
		if !more {
			break
		}
	}
	return time.Since(t)
}

// projection resolves a query's rendered columns (empty = schema order).
func projection(q engine.Query, schema engine.Schema) []string {
	if len(q.Project) > 0 {
		return q.Project
	}
	var out []string
	for _, def := range schema.Columns {
		out = append(out, def.Name)
	}
	return out
}

// encryptInserts times the proxy-side encryption of insert rows: one PAE
// encryption per column, as the proxy does before shipping a row. It returns
// the mean in microseconds per row.
func encryptInserts(master encdbdb.Key, ds *dataset, n int) (float64, error) {
	if n == 0 {
		return 0, nil
	}
	var ciphers [4]*pae.Cipher
	for j, c := range ds.cols {
		k, err := pae.Derive(master, tableName, c.name)
		if err != nil {
			return 0, err
		}
		if ciphers[j], err = pae.NewCipher(k); err != nil {
			return 0, err
		}
	}
	var total time.Duration
	for i := 0; i < n; i++ {
		ins := &ds.inserts[i%len(ds.inserts)]
		t := time.Now()
		for j, c := range ds.cols {
			if _, err := ciphers[j].Encrypt(c.distinct(ins[j])); err != nil {
				return 0, err
			}
		}
		total += time.Since(t)
	}
	return float64(total) / float64(time.Microsecond) / float64(n), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
