// Command perfbench is the repository's end-to-end benchmark: SQL in at the
// trusted proxy, decrypted rows out, against an in-process provider reached
// over loopback TCP through the wire client. See README.md.
//
//	bash perfbench/run.sh --workload analytic --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result object; the line before it
// is the full report (host, sample counts, every metric with its unit).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	encdbdb "github.com/encdbdb/encdbdb"
	"github.com/encdbdb/encdbdb/internal/pae"
)

// commit is stamped by run.sh from the checkout's git revision, if any.
var commit = "unknown"

const (
	// tableSeed fixes the table and its dictionaries' random draws across
	// runs: the draws change what every query on a dictionary costs (see
	// README.md), so a table drawn per run would make the spread between
	// runs measure the draw rather than the program.
	tableSeed = 1
	setupReps = 3   // setups per untraced run; setup_s is their median
	exactK    = 128 // traced queries whose counts are averaged (a fixed set)
	workDir   = ".bench_build"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "analytic, fetch or mixed")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the queries and insert rows")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer split instead of the end-to-end measurement")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case o.workload != "analytic" && o.workload != "fetch" && o.workload != "mixed":
		return o, fmt.Errorf("unknown workload %q", o.workload)
	case o.seconds < 1:
		return o, errors.New("--seconds must be at least 1")
	case trace != 0 && trace != 1:
		return o, errors.New("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	o, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ds, err := newDataset(o.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{o: o, ds: ds, key: seededKey(o.seed)}
	ctx := context.Background()
	if o.trace {
		err = b.traced(ctx)
	} else {
		err = b.untraced(ctx)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return b.print(stdout)
}

// seededKey derives the owner's master key from the seed.
func seededKey(seed int64) encdbdb.Key {
	k := make(encdbdb.Key, pae.KeySize)
	rand.New(rand.NewSource(seed)).Read(k)
	return k
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench holds one run's inputs and what it measured.
type bench struct {
	o   options
	ds  *dataset
	key encdbdb.Key

	t       tally
	metrics map[string]metric // the gated set: the result line's metrics
	extra   map[string]metric // reported, not gated
	report  map[string]any
}

func (b *bench) set(name string, v float64, unit string) {
	if b.metrics == nil {
		b.metrics = make(map[string]metric)
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func (b *bench) setExtra(name string, v float64, unit string) {
	if b.extra == nil {
		b.extra = make(map[string]metric)
	}
	b.extra[name] = metric{Value: v, Unit: unit}
}

func (b *bench) note(k string, v any) {
	if b.report == nil {
		b.report = make(map[string]any)
	}
	b.report[k] = v
}

// dataDir returns a fresh WAL directory inside the working tree for the
// mixed workload, or "" for the in-memory ones.
func (b *bench) dataDir() (string, error) {
	if b.o.workload != "mixed" {
		return "", nil
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(workDir, "wal-")
}

func (b *bench) conns() int {
	if b.o.workload == "mixed" {
		return 2
	}
	return 1
}

// untraced is the end-to-end measurement: setupReps setups, then one
// workload run of --seconds on the last provider.
func (b *bench) untraced(ctx context.Context) error {
	var (
		setups, builds, imports []float64
		p                       *provider
		dir                     string
	)
	for r := 0; r < setupReps; r++ {
		d, err := b.dataDir()
		if err != nil {
			return err
		}
		pp, tm, err := openProvider(b.ds, b.key, providerConfig{conns: b.conns(), dataDir: d})
		if err != nil {
			os.RemoveAll(d)
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, tm.total.Seconds())
		builds = append(builds, tm.build.Seconds())
		imports = append(imports, tm.imp.Seconds())
		if r == setupReps-1 {
			p, dir = pp, d
			break
		}
		err = pp.close()
		os.RemoveAll(d)
		if err != nil {
			return fmt.Errorf("setup: close: %w", err)
		}
	}
	defer os.RemoveAll(dir)
	b.set("setup_s", median(setups), "s")
	b.note("setup_s_samples", setups)
	b.note("setup_build_s_samples", builds)
	b.note("setup_import_s_samples", imports)

	rd, err := newReader(ctx, p, p.clients[0], b.ds, b.o.workload == "fetch")
	if err != nil {
		p.close()
		return err
	}
	rd.warmup(ctx, &b.t)
	dur := time.Duration(b.o.seconds) * time.Second
	var (
		lat  *samples
		rows = tableRows
	)
	if b.o.workload == "mixed" {
		w, err := newWriter(ctx, p, p.clients[1], b.ds)
		if err != nil {
			p.close()
			return err
		}
		var ws []windowed
		lat, ws = b.mixedLoop(ctx, rd, nil, w, dur)
		checkWindows(b.ds, ws, &b.t)
		rows += int(w.acked.Load())
		b.insertMetrics(w, dur)
	} else {
		lat = b.readLoop(ctx, rd, nil, dur)
	}
	b.queryMetrics(lat, dur)
	if err := b.storage(p, rows); err != nil {
		p.close()
		return err
	}
	return b.finish(ctx, p, dir, rows)
}

// readLoop is the closed loop of one client over the pre-drawn queries.
// With tr set, every other query goes through the traced reader.
func (b *bench) readLoop(ctx context.Context, rd *reader, tr *tracedReader, dur time.Duration) *samples {
	lat := &samples{}
	start := time.Now()
	deadline := start.Add(dur)
	for i := 0; time.Now().Before(deadline); i++ {
		b.t.attempted++
		r := rd
		var (
			d   time.Duration
			n   int
			err error
		)
		if tr != nil && i%2 == 0 {
			r = tr.r
			d, n, err = tr.query(ctx, i)
		} else {
			d, n, err = rd.query(ctx, i)
			if tr != nil {
				tr.plain = append(tr.plain, ms(d))
			}
		}
		if err == nil {
			err = r.check(i, n)
		}
		if err != nil {
			b.t.fail(err)
			continue
		}
		lat.add(start, d)
	}
	return lat
}

// mixedLoop runs the writer beside a closed-loop reader until the deadline.
// With tr set, every other reader query goes through the traced reader.
func (b *bench) mixedLoop(ctx context.Context, rd *reader, tr *tracedReader, w *writer, dur time.Duration) (*samples, []windowed) {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.run(ctx, start, deadline)
	}()
	lat := &samples{}
	var ws []windowed
	for i := 0; time.Now().Before(deadline); i++ {
		b.t.attempted++
		lo := w.acked.Load()
		var (
			d   time.Duration
			n   int
			err error
		)
		if tr != nil && i%2 == 0 {
			d, n, err = tr.query(ctx, i)
		} else {
			d, n, err = rd.query(ctx, i)
			if tr != nil {
				tr.plain = append(tr.plain, ms(d))
			}
		}
		hi := w.sent.Load()
		if err != nil {
			b.t.fail(err)
			continue
		}
		ws = append(ws, windowed{i: i, count: n, lo: lo, hi: hi})
		lat.add(start, d)
	}
	wg.Wait()
	b.t.add(w.t)
	return lat, ws
}

func (b *bench) queryMetrics(lat *samples, dur time.Duration) {
	p50, tail, rate := lat.windowStats(dur)
	b.set("query_p50_ms", median(p50), "ms")
	b.set("query_p99_ms", median(tail), "ms")
	b.set("query_qps", median(rate), "1/s")
	b.note("query_samples", len(lat.ms))
	b.note("query_window_p50_ms", p50)
	b.note("query_window_tail_ms", tail)
	b.note("query_window_qps", rate)
	b.note("query_ms_quartiles", quartiles(lat.ms))
}

func (b *bench) insertMetrics(w *writer, dur time.Duration) {
	p50, tail, rate := w.lat.windowStats(dur)
	b.setExtra("insert_p50_ms", median(p50), "ms")
	b.setExtra("insert_p99_ms", median(tail), "ms")
	b.setExtra("insert_rps", median(rate), "1/s")
	b.note("insert_samples", len(w.lat.ms))
	b.note("insert_window_p50_ms", p50)
	b.note("insert_window_tail_ms", tail)
	b.note("insert_window_rps", rate)
	b.note("insert_ms_quartiles", quartiles(w.lat.ms))
}

// storage reports provider bytes per plaintext byte of the rows it holds.
func (b *bench) storage(p *provider, rows int) error {
	sb, err := p.db.StorageBytes(tableName)
	if err != nil {
		return err
	}
	plain := b.ds.plain + (rows-tableRows)*rowBytes
	b.set("storage_ratio", float64(sb)/float64(plain), "ratio")
	return nil
}

// finish closes the provider; for the mixed workload it then reopens the
// data directory and checks that recovery kept every acknowledged row.
func (b *bench) finish(ctx context.Context, p *provider, dir string, rows int) error {
	if dir != "" {
		if err := p.waitMerges(ctx); err != nil {
			p.close()
			return err
		}
	}
	if err := p.close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if dir != "" {
		b.t.attempted++
		if err := reopenCheck(ctx, dir, b.key, rows); err != nil {
			b.t.fail(err)
		}
	}
	return nil
}

// print writes the report line and the result line, and returns the exit
// code: 0 only when every operation succeeded with a correct answer.
func (b *bench) print(w io.Writer) int {
	all := make(map[string]metric, len(b.metrics)+len(b.extra)+1)
	for k, v := range b.metrics {
		all[k] = v
	}
	for k, v := range b.extra {
		all[k] = v
	}
	failRatio := 0.0
	if b.t.attempted > 0 {
		failRatio = float64(b.t.failed) / float64(b.t.attempted)
	}
	all["fail_ratio"] = metric{Value: failRatio, Unit: "ratio"}
	b.note("workload", b.o.workload)
	b.note("seed", b.o.seed)
	b.note("table_seed", tableSeed)
	b.note("seconds", b.o.seconds)
	b.note("trace", b.o.trace)
	b.note("host", map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
	})
	b.note("metrics", all)
	if len(b.t.errs) > 0 {
		b.note("errors", b.t.errs)
	}
	correct := b.t.failed == 0
	enc := json.NewEncoder(w)
	enc.Encode(map[string]any{"report": b.report})
	enc.Encode(map[string]any{
		"correct":   correct,
		"attempted": b.t.attempted,
		"failed":    b.t.failed,
		"metrics":   b.metrics,
	})
	if !correct {
		return 1
	}
	return 0
}
