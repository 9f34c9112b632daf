package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/encdbdb/encdbdb/internal/bufpool"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
)

// binEncode runs enc twice — once against the counting sink, once against a
// real writer — and fails if the two passes disagree, mirroring the check
// muxWriter performs on every frame.
func binEncode(t testing.TB, enc func(binSink)) []byte {
	t.Helper()
	var c binCounter
	enc(&c)
	var out bytes.Buffer
	bw := bufio.NewWriter(&out)
	var w binWriter
	w.reset(bw)
	enc(&w)
	if err := w.err(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.n != c.n || out.Len() != c.n {
		t.Fatalf("sized %d bytes, wrote %d (flushed %d)", c.n, w.n, out.Len())
	}
	return out.Bytes()
}

func binRequestCases() map[string]*request {
	return map[string]*request{
		"point_select": {
			Op:    opSelect,
			Table: "accounts",
			Query: engine.Query{
				Table: "accounts",
				Filters: []engine.Filter{{
					Column: "balance",
					Ranges: []enclave.EncRange{
						{Start: []byte{1, 2, 3}, End: []byte{9}, StartIncl: true},
						{Start: nil, End: []byte{}, EndIncl: true},
					},
				}},
				Project: []string{"balance", "owner"},
			},
		},
		"count_only": {
			Op:    opSelect,
			Query: engine.Query{Table: "t", CountOnly: true},
		},
		"insert": {
			Op:    opInsert,
			Table: "t",
			Row:   engine.Row{"a": []byte("x"), "b": nil, "c": {}},
		},
		"update": {
			Op:    opUpdate,
			Table: "t",
			Filters: []engine.Filter{{
				Column: "k",
				Ranges: []enclave.EncRange{{Start: []byte{7}, End: []byte{7}, StartIncl: true, EndIncl: true}},
			}},
			Set: engine.Row{"v": []byte("new")},
		},
		"create_table": {
			Op: opCreateTable,
			Schema: engine.Schema{Table: "t", Columns: []engine.ColumnDef{
				{Name: "c", Kind: dict.ED1, MaxLen: 8, Plain: true},
				{Name: "d", Kind: dict.ED5, MaxLen: 32, BSMax: 4},
			}},
		},
		"batch": {
			Op: opBatch,
			Subs: []request{
				{Op: opInsert, Table: "t", Row: engine.Row{"c": []byte("v")}},
				{Op: opRows, Table: "t"},
			},
		},
		"cancel": {Op: opCancel, Cancel: 1 << 40},
		"quote":  {Op: opQuote, Nonce: []byte("nonce")},
		"provision": {
			Op:     opProvision,
			Sealed: enclave.SealedKey{OwnerPublicKey: bytes.Repeat([]byte{3}, 32), Ciphertext: []byte("sealed master key")},
		},
		"import_column": {
			Op:     opImportColumn,
			Table:  "t",
			Column: "c",
			Split: dict.SplitData{
				Kind: dict.ED5, MaxLen: 8, BSMax: 3,
				EncRndOffset: []byte{1, 2, 3},
				AV:           []uint32{0, 2, 1, 1 << 20},
				Head:         []dict.EntryRef{{Off: 0, Len: 2}, {Off: 2, Len: 0}, {Off: 2, Len: 1 << 31}},
				Tail:         []byte("abc"),
			},
		},
	}
}

func TestBinRequestRoundTrip(t *testing.T) {
	for name, req := range binRequestCases() {
		t.Run(name, func(t *testing.T) {
			raw := binEncode(t, func(s binSink) { encRequest(s, req) })
			var d binReader
			d.reset(raw)
			got := new(request)
			var in intern
			decRequest(&d, got, &in)
			if err := d.err(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, req) {
				t.Errorf("round trip:\n got %+v\nwant %+v", got, req)
			}
		})
	}
}

// TestBinRequestPooledReuse decodes different requests into the same pooled
// envelope, interleaved with resetRequest, proving that retained capacity
// from an earlier decode never leaks into a later one.
func TestBinRequestPooledReuse(t *testing.T) {
	req := new(request)
	var in intern
	cases := binRequestCases()
	// Two passes so every case also decodes into capacity left by every
	// other case at least once.
	for pass := 0; pass < 2; pass++ {
		for name, want := range cases {
			raw := binEncode(t, func(s binSink) { encRequest(s, want) })
			resetRequest(req)
			var d binReader
			d.reset(raw)
			decRequest(&d, req, &in)
			if err := d.err(); err != nil {
				t.Fatalf("pass %d %s: %v", pass, name, err)
			}
			// Normalize the pooled envelope's retained-capacity artifacts
			// ([:0] slices and cleared maps read equal but not DeepEqual to
			// their nil counterparts).
			got := *req
			if len(got.Row) == 0 {
				got.Row = nil
			}
			if len(got.Set) == 0 {
				got.Set = nil
			}
			if len(got.Filters) == 0 {
				got.Filters = nil
			}
			if len(got.Subs) == 0 {
				got.Subs = nil
			}
			if len(got.Query.Filters) == 0 {
				got.Query.Filters = nil
			}
			if len(got.Query.Project) == 0 {
				got.Query.Project = nil
			}
			if len(got.Schema.Columns) == 0 {
				got.Schema.Columns = nil
			}
			want2 := *want
			if !reflect.DeepEqual(&got, &want2) {
				t.Errorf("pass %d %s:\n got %+v\nwant %+v", pass, name, &got, &want2)
			}
		}
	}
}

func binResponseCases() map[string]*response {
	return map[string]*response{
		"ack":   {N: 3},
		"error": {Err: "wire: server busy"},
		"result": {
			N: 2,
			Result: &engine.Result{
				Count:     2,
				RecordIDs: []uint32{5, 1 << 20},
				Columns: []engine.ResultColumn{{
					Table:  "t",
					Column: "c",
					Cells:  [][]byte{[]byte("aa"), nil, {}},
				}},
			},
		},
		"schema": {
			Schema: engine.Schema{Table: "t", Columns: []engine.ColumnDef{
				{Name: "c", Kind: dict.ED1, MaxLen: 8, Plain: true},
			}},
		},
		"tables": {Tables: []string{"a", "b"}},
		"merge": {
			Merge: engine.MergeInfo{
				Generation: 7, Merging: true, MainRows: 100, DeltaRows: 3,
				DeltaBytes: 4096, SealedRuns: 2, Merges: 6, LastError: "boom",
			},
		},
		"batch": {Subs: []response{{N: 1}, {Err: "bad"}}},
		"chunk": {
			N:      10,
			More:   true,
			Result: &engine.Result{Count: 1, Columns: []engine.ResultColumn{{Table: "t", Column: "c", Cells: [][]byte{[]byte("v")}}}},
		},
		"quote": {
			Quote: enclave.Quote{
				Measurement: enclave.Measure("codec-test"),
				PublicKey:   bytes.Repeat([]byte{7}, 32),
				Nonce:       []byte("nonce"),
				MAC:         bytes.Repeat([]byte{9}, 32),
			},
		},
	}
}

func TestBinResponseRoundTrip(t *testing.T) {
	for name, resp := range binResponseCases() {
		t.Run(name, func(t *testing.T) {
			raw := binEncode(t, func(s binSink) { encResponse(s, resp) })
			var d binReader
			d.reset(raw)
			got := new(response)
			aliases := decResponse(&d, got)
			if err := d.err(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, resp) {
				t.Errorf("round trip:\n got %+v\nwant %+v", got, resp)
			}
			wantAliases := resp.Result != nil
			for i := range resp.Subs {
				if resp.Subs[i].Result != nil {
					wantAliases = true
				}
			}
			if aliases != wantAliases {
				t.Errorf("aliases = %v, want %v", aliases, wantAliases)
			}
		})
	}
}

// TestBinDecodeCorrupt feeds every truncation of valid messages, plus
// trailing garbage and length bombs, to the decoder: each must return
// errCorruptFrame-wrapped errors, never panic or succeed.
func TestBinDecodeCorrupt(t *testing.T) {
	req := binRequestCases()["point_select"]
	raw := binEncode(t, func(s binSink) { encRequest(s, req) })
	for n := 0; n < len(raw); n++ {
		var d binReader
		d.reset(raw[:n])
		got := new(request)
		var in intern
		decRequest(&d, got, &in)
		if d.err() == nil {
			t.Errorf("truncation at %d decoded cleanly", n)
		}
	}
	// Trailing garbage: the frame and message boundary must coincide.
	var d binReader
	d.reset(append(append([]byte{}, raw...), 0x00))
	got := new(request)
	var in intern
	decRequest(&d, got, &in)
	if d.err() == nil {
		t.Error("trailing garbage accepted")
	}
	// Nested batches: a sub-request or sub-response carrying its own subs
	// is malformed, which also bounds the decoder's recursion.
	nested := &request{Op: opBatch, Subs: []request{{Op: opBatch, Subs: []request{{Op: opRows}}}}}
	d.reset(binEncode(t, func(s binSink) { encRequest(s, nested) }))
	resetRequest(got)
	decRequest(&d, got, &in)
	if d.err() == nil {
		t.Error("nested batch request accepted")
	}
	nestedResp := &response{Subs: []response{{Subs: []response{{N: 1}}}}}
	d.reset(binEncode(t, func(s binSink) { encResponse(s, nestedResp) }))
	decResponse(&d, new(response))
	if d.err() == nil {
		t.Error("nested batch response accepted")
	}
	// Length bomb: a huge count must fail the remaining-bytes bound, not
	// drive a huge allocation.
	bomb := []byte{byte(opSelect), 0, 0, 0, reqHasFilters, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	d.reset(bomb)
	resetRequest(got)
	decRequest(&d, got, &in)
	if d.err() == nil {
		t.Error("length bomb accepted")
	}
}

// TestMuxWriterV3Frames exercises the full frame path: sendRequest /
// sendResponse on a writer, then readPooled + decode, for a data-plane op
// whose fields alias the frame and for a control op whose fields are
// copied out of it.
func TestMuxWriterV3Frames(t *testing.T) {
	var buf bytes.Buffer
	mw := newMuxWriter(&buf)

	cases := binRequestCases()
	reqs := []*request{cases["point_select"], cases["import_column"]}
	for i, req := range reqs {
		if err := mw.sendRequest(uint64(7+i), req); err != nil {
			t.Fatal(err)
		}
	}
	pfr := frameReader{r: &buf}
	var in intern
	for i, want := range reqs {
		id, fb, err := pfr.readPooled()
		if err != nil {
			t.Fatal(err)
		}
		if id != uint64(7+i) {
			t.Fatalf("id = %d, want %d", id, 7+i)
		}
		req, err := decodeRequest(fb, &in)
		if err != nil {
			t.Fatal(err)
		}
		// A pooled envelope keeps emptied slices where want has nil ones,
		// so compare only the fields each op carries.
		if req.Op != want.Op || (want.Op == opSelect && !reflect.DeepEqual(req.Query, want.Query)) ||
			!reflect.DeepEqual(req.Split, want.Split) {
			t.Errorf("decoded %+v, want %+v", req, want)
		}
		split := req.Split
		// The imported split outlives its request: scribbling over the
		// released frame buffer must not reach it.
		releaseRequest(req, nil)
		clear(fb.B)
		bufpool.Put(fb)
		if !reflect.DeepEqual(split, want.Split) {
			t.Errorf("split changed with its frame buffer: %+v", split)
		}
	}

	resps := binResponseCases()
	if err := mw.sendResponse(9, resps["result"]); err != nil {
		t.Fatal(err)
	}
	if err := mw.sendResponse(10, resps["quote"]); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		id      uint64
		resp    *response
		aliases bool
	}{{9, resps["result"], true}, {10, resps["quote"], false}} {
		id, fb, err := pfr.readPooled()
		if err != nil || id != want.id {
			t.Fatalf("response frame: id=%d err=%v", id, err)
		}
		var d binReader
		d.reset(fb.B)
		got := new(response)
		if aliases := decResponse(&d, got); aliases != want.aliases {
			t.Errorf("id %d: aliases = %v, want %v", id, aliases, want.aliases)
		}
		if err := d.err(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want.resp) {
			t.Errorf("response round trip:\n got %+v\nwant %+v", got, want.resp)
		}
	}
}

// TestInternBounded verifies the per-connection string cache stops growing
// at its cap but keeps answering correctly, so a peer inventing identifiers
// cannot grow server memory.
func TestInternBounded(t *testing.T) {
	var in intern
	for i := 0; i < 2*internLimit; i++ {
		s := fmt.Sprintf("col%d", i)
		if got := in.get([]byte(s)); got != s {
			t.Fatalf("get(%q) = %q", s, got)
		}
	}
	if len(in.m) > internLimit {
		t.Errorf("intern map grew to %d entries, cap is %d", len(in.m), internLimit)
	}
	if got := in.get([]byte("col1")); got != "col1" {
		t.Errorf("cached lookup = %q", got)
	}
	if got := in.get(nil); got != "" {
		t.Errorf("get(nil) = %q", got)
	}
}
