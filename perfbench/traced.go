package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/encdbdb/encdbdb/internal/sqlparse"
)

// tracedReader runs queries through a reader whose Session sits on the
// traced executor, wrapping each in a root span that carries the counts
// taken at the Session boundary.
type tracedReader struct {
	r    *reader
	x    *tracedExec
	p    *provider
	conn int // this reader's connection, in accept order

	n      int       // traced queries so far
	traced []float64 // ms per traced query
	plain  []float64 // ms per interleaved untraced query
}

func (t *tracedReader) query(ctx context.Context, i int) (time.Duration, int, error) {
	t.x.capture = t.n < exactK
	defer func() { t.x.capture = false }()
	enc0, by0, pa0 := t.p.db.EnclaveStats(), t.p.counter.bytes(t.conn), sqlparse.ParseCount()
	root := t.x.tr.beginRoot("query")
	d, n, err := t.r.query(ctx, i)
	t.x.tr.endRoot()
	enc1, by1, pa1 := t.p.db.EnclaveStats(), t.p.counter.bytes(t.conn), sqlparse.ParseCount()
	s := &t.x.tr.spans[root]
	s.Ecalls = enc1.ECalls - enc0.ECalls
	s.Decryptions = enc1.Decryptions - enc0.Decryptions
	s.Loads = enc1.Loads - enc0.Loads
	s.Bytes = by1 - by0
	s.Parses = pa1 - pa0
	s.Rows = n
	t.n++
	t.traced = append(t.traced, ms(d))
	return d, n, err
}

// traced is the per-layer run: one traced setup, then --seconds in which
// every other reader query goes through the traced executor (the rest give
// the untraced baseline under the same conditions), metrics scrapes around
// the phase, and in-process replays of the first captured queries.
func (b *bench) traced(ctx context.Context) error {
	dir, err := b.dataDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	p, tm, err := openProvider(b.ds, b.key, providerConfig{conns: b.conns(), dataDir: dir, traced: true})
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	b.set("dict.build_s", tm.build.Seconds(), "s")
	b.set("wire.import_s", tm.imp.Seconds(), "s")

	fetch := b.o.workload == "fetch"
	rd, err := newReader(ctx, p, p.clients[0], b.ds, fetch)
	if err != nil {
		p.close()
		return err
	}
	epoch := time.Now()
	rx := &tracedExec{inner: p.clients[0], tr: newTracer(epoch)}
	trr, err := newReader(ctx, p, rx, b.ds, fetch)
	if err != nil {
		p.close()
		return err
	}
	rd.warmup(ctx, &b.t)
	trr.warmup(ctx, &b.t)
	rx.tr.spans = rx.tr.spans[:0]
	tr := &tracedReader{r: trr, x: rx, p: p}

	h := p.db.MetricsHandler()
	before, enc0 := scrape(h), p.db.EnclaveStats()
	dur := time.Duration(b.o.seconds) * time.Second
	tracers := map[string]*tracer{"reader": rx.tr}
	var (
		lat     *samples
		w       *writer
		backlog float64
		rows    = tableRows
	)
	if b.o.workload == "mixed" {
		wx := &tracedExec{inner: p.clients[1], tr: newTracer(epoch)}
		tracers["writer"] = wx.tr
		if w, err = newWriter(ctx, p, wx, b.ds); err != nil {
			p.close()
			return err
		}
		w.tr = wx.tr
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			backlog = sampleMax(h, "encdbdb_engine_merge_backlog_rows", stop)
		}()
		var ws []windowed
		lat, ws = b.mixedLoop(ctx, rd, tr, w, dur)
		close(stop)
		wg.Wait()
		checkWindows(b.ds, ws, &b.t)
		rows += int(w.acked.Load())
	} else {
		lat = b.readLoop(ctx, rd, tr, dur)
	}
	d := scrapeDelta{before: before, after: scrape(h)}
	enc1 := p.db.EnclaveStats()
	b.note("query_samples", len(lat.ms))
	b.note("traced_query_samples", len(tr.traced))

	rt, err := replay(ctx, p, b.key, rx.captured)
	if err != nil {
		p.close()
		return err
	}
	b.layerMetrics(tr, w, d, enc1.ECalls-enc0.ECalls, enc1.Decryptions-enc0.Decryptions, enc1.Loads-enc0.Loads, rt)
	b.set("engine.backlog_rows_max", backlog, "rows")
	if w != nil {
		us, err := encryptInserts(b.key, b.ds, min(int(w.acked.Load()), 4096))
		if err != nil {
			p.close()
			return err
		}
		b.set("proxy.encrypt_us_per_insert", us, "us")
	} else {
		b.set("proxy.encrypt_us_per_insert", 0, "us")
	}
	path, err := writeSpans(filepath.Join(workDir, "traces"), fmt.Sprintf("%s-seed%d.json", b.o.workload, b.o.seed), tracers)
	if err != nil {
		p.close()
		return err
	}
	b.note("spans_file", path)
	return b.finish(ctx, p, dir, rows)
}

// layerMetrics derives the per-layer split from the reader's root spans,
// the writer's, the scrape delta over the phase and the replays.
func (b *bench) layerMetrics(tr *tracedReader, w *writer, d scrapeDelta, ecalls, decs, loads uint64, rt replayTimes) {
	kids := tr.x.tr.children()
	var (
		e2e, self, client float64
		n                 int
		exact             [5]float64 // ecalls, decryptions, loads, bytes, parses of the first exactK
		k                 int
	)
	for i := range tr.x.tr.spans {
		s := &tr.x.tr.spans[i]
		if s.Parent >= 0 || s.Name != "query" {
			continue
		}
		n++
		total := ms(s.dur())
		var inExec time.Duration
		for _, dur := range kids[s.ID] {
			inExec += dur
		}
		e2e += total
		self += total - ms(inExec)
		client += ms(kids[s.ID]["exec.select"])
		if k < exactK {
			k++
			exact[0] += float64(s.Ecalls)
			exact[1] += float64(s.Decryptions)
			exact[2] += float64(s.Loads)
			exact[3] += float64(s.Bytes)
			exact[4] += float64(s.Parses)
		}
	}
	perN := func(v float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}
	e2e, self, client = perN(e2e, n), perN(self, n), perN(client, n)
	serverSel := d.meanMS("encdbdb_wire_request_seconds", `{op="select"}`, `{op="select_stream"}`)
	b.set("proxy.self_ms", self, "ms")
	b.set("proxy.parses_per_query", perN(exact[4], k), "count")
	b.set("proxy.cells_decrypted_per_query", rt.cells, "count")
	b.set("proxy.decrypt_ms", rt.decryptMS, "ms")
	b.set("wire.client_ms.select", client, "ms")
	b.set("wire.server_ms.select", serverSel, "ms")
	b.set("wire.self_ms.select", client-serverSel, "ms")
	b.set("wire.bytes_per_query", perN(exact[3], k), "bytes")
	b.set("engine.select_ms", rt.selectMS, "ms")
	b.set("engine.render_ms", rt.renderMS, "ms")
	b.set("engine.rows_scanned_per_query", perN(d.get("encdbdb_engine_scan_rows_total"), int(d.get("encdbdb_engine_selects_total"))), "rows")
	b.set("engine.rows_out_per_query", rt.rowsOut, "rows")
	b.set("engine.merge_s", perN(d.get("encdbdb_engine_merge_seconds_sum"), int(d.get("encdbdb_engine_merge_seconds_count"))), "s")
	b.set("enclave.dict_search_ms", rt.dictSearchMS, "ms")
	b.set("av.scan_ms", rt.scanMS, "ms")
	b.set("trace.unattributed_ms", e2e-(self+client-serverSel+rt.selectMS), "ms")
	overhead := 0.0
	if p := quantile(tr.plain, 0.5); p > 0 {
		overhead = (quantile(tr.traced, 0.5) - p) / p * 100
	}
	b.set("trace.overhead_pct", overhead, "%")

	ops := b.t.attempted
	var (
		inserts   int
		insClient float64
	)
	if w != nil {
		inserts = int(w.acked.Load())
		var ni int
		wk := w.tr.children()
		for i := range w.tr.spans {
			if s := &w.tr.spans[i]; s.Parent < 0 && s.Name == "insert" {
				ni++
				insClient += ms(wk[s.ID]["exec.insert"])
			}
		}
		insClient = perN(insClient, ni)
	}
	serverIns := d.meanMS("encdbdb_wire_request_seconds", `{op="insert"}`)
	b.set("wire.client_ms.insert", insClient, "ms")
	b.set("wire.server_ms.insert", serverIns, "ms")
	b.set("wire.self_ms.insert", insClient-serverIns, "ms")
	b.set("wire.rejected_per_op", perN(d.get("encdbdb_wire_rejected_total", "encdbdb_wire_rate_limited_total"), ops), "ratio")
	if w == nil {
		// A single closed-loop client: per-query enclave deltas are exact.
		b.set("enclave.ecalls_per_op", perN(exact[0], k), "count")
		b.set("enclave.decryptions_per_op", perN(exact[1], k), "count")
		b.set("enclave.loads_per_op", perN(exact[2], k), "count")
	} else {
		// Reader, writer and merges share the enclave: phase totals per op.
		b.set("enclave.ecalls_per_op", perN(float64(ecalls), ops), "count")
		b.set("enclave.decryptions_per_op", perN(float64(decs), ops), "count")
		b.set("enclave.loads_per_op", perN(float64(loads), ops), "count")
	}
	b.set("wal.fsyncs_per_insert", perN(d.get("encdbdb_wal_fsync_seconds_count"), inserts), "count")
	b.set("wal.fsync_ms", d.meanMS("encdbdb_wal_fsync_seconds"), "ms")
	b.set("wal.bytes_per_insert", perN(d.get("encdbdb_wal_appended_bytes_total"), inserts), "bytes")
}

// sampleMax scrapes one gauge every 50ms until stop closes and returns the
// largest value seen.
func sampleMax(h http.Handler, series string, stop <-chan struct{}) float64 {
	var hi float64
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		if v := scrape(h)[series]; v > hi {
			hi = v
		}
		select {
		case <-stop:
			return hi
		case <-tick.C:
		}
	}
}
