package bench

import (
	"context"
	"fmt"
	"net"
	"sync"
	"text/tabwriter"
	"time"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/wire"
	"github.com/encdbdb/encdbdb/internal/workload"
)

// remoteWorkers is the concurrent-client fan-in of the remote experiment.
const remoteWorkers = 8

// remotePoolSize is the connection count of the pooled mode.
const remotePoolSize = 4

// remoteConn is the client surface the experiment drives; *wire.Client and
// *wire.Pool both implement it.
type remoteConn interface {
	Select(ctx context.Context, q engine.Query) (*engine.Result, error)
	Insert(ctx context.Context, table string, row engine.Row) error
	InsertBatch(ctx context.Context, table string, rows []engine.Row) error
	Close() error
}

// Remote measures the wire layer's query-dispatch path: aggregate
// throughput and p99 latency of 8 concurrent workers issuing point queries
// against a loopback provider over (a) one multiplexed connection with all
// calls in flight at once and (b) a 4-connection pool, reported relative to
// (a). Tables are kept small so the protocol, not
// the engine scan, dominates — this is a dispatch benchmark, the engine
// side is covered by -exp concurrency. A final section measures the
// batched-insert bulk-load fast path against per-row round trips.
func Remote(cfg Config) error {
	rows := cfg.Rows[0]
	if rows > 128 {
		rows = 128
	}
	col := workload.Generate(workload.C2().Scaled(rows), cfg.Seed)
	def := defFor(dict.ED1, col.Profile.ValueLen, cfg.BSMax, false)

	sys, err := newSystem()
	if err != nil {
		return err
	}
	// The 2-table workload: worker w targets table w%2, so the per-table
	// locks see cross-table traffic like a real multi-tenant provider.
	tables := [2]string{"rem0", "rem1"}
	var filters [2][]engine.Filter
	for i, table := range tables {
		if err := sys.loadTable(table, def, col.Values, cfg.Seed); err != nil {
			return err
		}
		gen, err := workload.NewQueryGen(col, cfg.RangeSizes[0], cfg.Seed+int64(i))
		if err != nil {
			return err
		}
		if filters[i], err = sys.prepareFilters(table, def, gen, cfg.Queries); err != nil {
			return err
		}
	}

	srv := wire.NewServer(sys.db, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(ln) //nolint:errcheck // ends with Close
	defer srv.Close()
	addr := ln.Addr().String()

	// run drives remoteWorkers goroutines of cfg.Queries count-only selects
	// each through conn, returning aggregate ops/s and the p99 latency.
	run := func(conn remoteConn) (float64, float64, error) {
		var wg sync.WaitGroup
		lats := make([][]float64, remoteWorkers)
		errc := make(chan error, remoteWorkers)
		start := time.Now()
		for w := 0; w < remoteWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ti := w % 2
				lat := make([]float64, 0, cfg.Queries)
				for i := 0; i < cfg.Queries; i++ {
					f := filters[ti][i%len(filters[ti])]
					q := engine.Query{Table: tables[ti], Filters: []engine.Filter{f}, CountOnly: true}
					t0 := time.Now()
					if _, err := conn.Select(context.Background(), q); err != nil {
						errc <- err
						return
					}
					lat = append(lat, float64(time.Since(t0).Microseconds()))
				}
				lats[w] = lat
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		close(errc)
		for err := range errc {
			return 0, 0, err
		}
		var all []float64
		for _, l := range lats {
			all = append(all, l...)
		}
		return float64(len(all)) / elapsed, workload.Percentile(all, 0.99), nil
	}

	modes := []struct {
		name string
		dial func() (remoteConn, error)
	}{
		{"multiplexed, 1 conn", func() (remoteConn, error) { return wire.Dial(addr) }},
		{fmt.Sprintf("pooled, %d conns", remotePoolSize), func() (remoteConn, error) { return wire.DialPool(addr, remotePoolSize) }},
	}
	tw := tabwriter.NewWriter(cfg.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "client mode\tthroughput\tp99 latency\tvs 1 conn\n")
	var base float64
	for _, m := range modes {
		conn, err := m.dial()
		if err != nil {
			return err
		}
		ops, p99, err := run(conn)
		conn.Close()
		if err != nil {
			return err
		}
		if base == 0 {
			base = ops
		}
		fmt.Fprintf(tw, "%s\t%.0f ops/s\t%s\t%.2fx\n", m.name, ops, ms(p99), ops/base)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	cfg.printf("(%d concurrent workers, 2 tables x %d rows, ED1, RS=%d, count-only point queries)\n",
		remoteWorkers, rows, cfg.RangeSizes[0])
	return remoteBulkLoad(cfg, sys, addr, def, col)
}

// remoteBulkLoad measures the proxy's bulk-load path: n per-row Insert
// round trips versus one batched InsertBatch round trip into a fresh
// delta-only table.
func remoteBulkLoad(cfg Config, sys *system, addr string, def engine.ColumnDef, col *workload.Column) error {
	n := 4 * cfg.Queries
	if n > len(col.Values) {
		n = len(col.Values)
	}
	conn, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()

	load := func(table string, batched bool) (float64, error) {
		if err := sys.db.CreateTable(engine.Schema{Table: table, Columns: []engine.ColumnDef{def}}); err != nil {
			return 0, err
		}
		cipher, err := sys.cipher(table, def.Name)
		if err != nil {
			return 0, err
		}
		rows := make([]engine.Row, n)
		for i := range rows {
			v, err := cipher.Encrypt(col.Values[i])
			if err != nil {
				return 0, err
			}
			rows[i] = engine.Row{def.Name: v}
		}
		start := time.Now()
		if batched {
			if err := conn.InsertBatch(context.Background(), table, rows); err != nil {
				return 0, err
			}
		} else {
			for _, row := range rows {
				if err := conn.Insert(context.Background(), table, row); err != nil {
					return 0, err
				}
			}
		}
		return float64(n) / time.Since(start).Seconds(), nil
	}

	perRow, err := load("remload_seq", false)
	if err != nil {
		return err
	}
	batched, err := load("remload_batch", true)
	if err != nil {
		return err
	}
	cfg.printf("bulk load, %d rows: per-row Insert %.0f rows/s, InsertBatch %.0f rows/s (%.2fx)\n",
		n, perRow, batched, batched/perRow)
	return nil
}
