package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/proxy"
)

// span is one timed call at a layer boundary. Root spans ("query",
// "insert") wrap one Session or Stmt call; their children are the Executor
// calls the proxy made for it. Counts taken at the root's boundary ride on
// the root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for roots
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`

	Ecalls      uint64 `json:"ecalls,omitempty"`
	Decryptions uint64 `json:"decryptions,omitempty"`
	Loads       uint64 `json:"loads,omitempty"`
	Bytes       int64  `json:"bytes,omitempty"`
	Parses      uint64 `json:"parses,omitempty"`
	Rows        int    `json:"rows,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records the spans of one client goroutine in memory. It is not
// safe for concurrent use: the mixed workload gives its reader and writer
// one tracer each.
type tracer struct {
	epoch time.Time
	spans []span
	root  int // the open root span, -1 between operations
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<15), root: -1}
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.epoch)) }

// beginRoot opens the span of one Session/Stmt call.
func (t *tracer) beginRoot(name string) int {
	t.root = t.begin(name, -1)
	return t.root
}

func (t *tracer) endRoot() {
	t.end(t.root)
	t.root = -1
}

// children returns, per root span, the summed duration of its children by
// name.
func (t *tracer) children() map[int]map[string]time.Duration {
	out := make(map[int]map[string]time.Duration)
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent < 0 {
			continue
		}
		m := out[s.Parent]
		if m == nil {
			m = make(map[string]time.Duration)
			out[s.Parent] = m
		}
		m[s.Name] += s.dur()
	}
	return out
}

// capturedQuery is one provider-side query the traced proxy sent, with
// copies of the ciphertext cells it received, for the in-process replays.
type capturedQuery struct {
	q     engine.Query
	cells [][][]byte // per result column
}

// tracedExec decorates the wire client: every Executor call becomes a child
// span of the open root span, and while capture is set the queries and their
// result cells are kept for replay. It implements the same optional fast
// paths as the client, so the proxy takes the same code path through it.
type tracedExec struct {
	inner interface {
		proxy.Executor
		proxy.StreamExecutor
		proxy.BatchInserter
	}
	tr       *tracer
	capture  bool
	captured []*capturedQuery
}

var (
	_ proxy.Executor       = (*tracedExec)(nil)
	_ proxy.StreamExecutor = (*tracedExec)(nil)
	_ proxy.BatchInserter  = (*tracedExec)(nil)
)

func (x *tracedExec) span(name string) func() {
	i := x.tr.begin(name, x.tr.root)
	return func() { x.tr.end(i) }
}

func (x *tracedExec) Schema(table string) (engine.Schema, error) {
	defer x.span("exec.schema")()
	return x.inner.Schema(table)
}

func (x *tracedExec) CreateTable(s engine.Schema) error {
	defer x.span("exec.create_table")()
	return x.inner.CreateTable(s)
}

func (x *tracedExec) DropTable(name string) error {
	defer x.span("exec.drop_table")()
	return x.inner.DropTable(name)
}

func (x *tracedExec) Select(ctx context.Context, q engine.Query) (*engine.Result, error) {
	end := x.span("exec.select")
	res, err := x.inner.Select(ctx, q)
	end()
	if x.capture && err == nil {
		c := &capturedQuery{q: q}
		for _, col := range res.Columns {
			c.cells = append(c.cells, col.Cells)
		}
		x.captured = append(x.captured, c)
	}
	return res, err
}

func (x *tracedExec) SelectStream(ctx context.Context, q engine.Query) (engine.ResultStream, error) {
	end := x.span("exec.select")
	st, err := x.inner.SelectStream(ctx, q)
	end()
	if err != nil {
		return nil, err
	}
	ts := &tracedStream{inner: st, x: x}
	if x.capture {
		ts.c = &capturedQuery{q: q}
		x.captured = append(x.captured, ts.c)
	}
	return ts, nil
}

func (x *tracedExec) Insert(ctx context.Context, table string, row engine.Row) error {
	defer x.span("exec.insert")()
	return x.inner.Insert(ctx, table, row)
}

func (x *tracedExec) InsertBatch(ctx context.Context, table string, rows []engine.Row) error {
	defer x.span("exec.insert")()
	return x.inner.InsertBatch(ctx, table, rows)
}

func (x *tracedExec) Delete(ctx context.Context, table string, filters []engine.Filter) (int, error) {
	defer x.span("exec.delete")()
	return x.inner.Delete(ctx, table, filters)
}

func (x *tracedExec) Update(ctx context.Context, table string, filters []engine.Filter, set engine.Row) (int, error) {
	defer x.span("exec.update")()
	return x.inner.Update(ctx, table, filters, set)
}

func (x *tracedExec) Merge(ctx context.Context, table string) error {
	defer x.span("exec.merge")()
	return x.inner.Merge(ctx, table)
}

func (x *tracedExec) MergeAsync(ctx context.Context, table string) (bool, error) {
	defer x.span("exec.merge")()
	return x.inner.MergeAsync(ctx, table)
}

func (x *tracedExec) MergeStatus(ctx context.Context, table string) (engine.MergeInfo, error) {
	defer x.span("exec.merge_status")()
	return x.inner.MergeStatus(ctx, table)
}

// tracedStream times each chunk fetch as a child span of the open root.
type tracedStream struct {
	inner engine.ResultStream
	x     *tracedExec
	c     *capturedQuery
}

func (s *tracedStream) Next() (*engine.Result, error) {
	end := s.x.span("exec.select")
	chunk, err := s.inner.Next()
	end()
	if err == nil && s.c != nil {
		// Chunk cells alias pooled frame buffers that recycle on the next
		// call, so the capture copies them; the copy is its own span and
		// counts as neither proxy nor wire time.
		defer s.x.span("bench.capture")()
		if s.c.cells == nil {
			s.c.cells = make([][][]byte, len(chunk.Columns))
		}
		for ci, col := range chunk.Columns {
			for _, cell := range col.Cells {
				s.c.cells[ci] = append(s.c.cells[ci], append([]byte(nil), cell...))
			}
		}
	}
	return chunk, err
}

func (s *tracedStream) Count() int { return s.inner.Count() }

func (s *tracedStream) Close() error {
	defer s.x.span("exec.select")()
	return s.inner.Close()
}

// scrape reads the provider's metrics in the text exposition format into
// series name (with labels) -> value.
func scrape(h http.Handler) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := make(map[string]float64)
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// scrapeDelta is the change of series between two scrapes.
type scrapeDelta struct{ before, after map[string]float64 }

func (d scrapeDelta) get(series ...string) float64 {
	var v float64
	for _, s := range series {
		v += d.after[s] - d.before[s]
	}
	return v
}

// meanMS is the mean of a latency histogram's observations between the two
// scrapes, in milliseconds, over the given label sets (0 when none).
func (d scrapeDelta) meanMS(family string, labels ...string) float64 {
	if len(labels) == 0 {
		labels = []string{""}
	}
	var sum, n float64
	for _, l := range labels {
		sum += d.get(family + "_sum" + l)
		n += d.get(family + "_count" + l)
	}
	if n == 0 {
		return 0
	}
	return sum / n * 1000
}

// writeSpans writes every recorded span as JSON to dir/name.
func writeSpans(dir, name string, tracers map[string]*tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	out := make(map[string][]span, len(tracers))
	for k, t := range tracers {
		out[k] = t.spans
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
