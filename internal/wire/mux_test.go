package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/encdbdb/encdbdb/internal/bufpool"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
)

// startPlainServer hosts a plaintext-only engine (no enclave needed) behind
// a real wire server on a loopback port.
func startPlainServer(t testing.TB, opts ...ServerOption) (*Server, string) {
	t.Helper()
	srv := NewServer(engine.New(nil), t.Logf, opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // ends with Close
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func plainSchema(table string) engine.Schema {
	return engine.Schema{Table: table, Columns: []engine.ColumnDef{
		{Name: "c", Kind: dict.ED1, MaxLen: 8, Plain: true},
	}}
}

// fakeMuxServer accepts one connection, completes the hello exchange, and
// hands the connection to serve. It returns the listener address.
func fakeMuxServer(t *testing.T, serve func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		var hello [5]byte
		if _, err := io.ReadFull(conn, hello[:]); err != nil {
			conn.Close()
			return
		}
		if err := writeHello(conn, protoVersion); err != nil {
			conn.Close()
			return
		}
		serve(conn)
	}()
	return ln.Addr().String()
}

// fakePeer scripts the server side of a connection frame by frame.
type fakePeer struct {
	fr frameReader
	mw *muxWriter
	in intern
}

func newFakePeer(conn net.Conn) *fakePeer {
	return &fakePeer{fr: frameReader{r: conn}, mw: newMuxWriter(conn)}
}

// next reads and decodes one request. The request and its frame buffer are
// left to the garbage collector.
func (p *fakePeer) next() (uint64, *request, error) {
	id, buf, err := p.fr.readPooled()
	if err != nil {
		return 0, nil, err
	}
	req, err := decodeRequest(buf, &p.in)
	return id, req, err
}

// TestDialNegotiatesMultiplexed checks the hello: the server answers a
// client's hello with the magic and this build's version, and Dial's
// connection carries calls.
func TestDialNegotiatesMultiplexed(t *testing.T) {
	_, addr := startPlainServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeHello(conn, protoVersion); err != nil {
		t.Fatal(err)
	}
	if ver, err := readHello(conn); err != nil || ver != protoVersion {
		t.Fatalf("server hello = version %d, %v; want %d", ver, err, protoVersion)
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Tables(); err != nil {
		t.Fatalf("Tables: %v", err)
	}
}

// TestServerRefusesBadHello: a connection that opens with a hello naming
// another version, with no hello at all (an old lock-step client's first
// frame), or with garbage is closed without a reply, and the server keeps
// serving fresh clients after each.
func TestServerRefusesBadHello(t *testing.T) {
	_, addr := startPlainServer(t)
	var oldHello bytes.Buffer
	if err := writeHello(&oldHello, 3); err != nil {
		t.Fatal(err)
	}
	for name, opening := range map[string][]byte{
		"old_version": oldHello.Bytes(),
		// A lock-step client's first frame: a 4-byte length, then a
		// self-contained gob document.
		"no_hello": {0, 0, 0, 9, 0x07, 0xff, 0x81, 0x03, 0x01, 0x01, 0x07, 0x72, 0x65},
		"garbage":  []byte("GET / HTTP/1.1\r\n\r\n"),
	} {
		t.Run(name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(opening); err != nil {
				t.Fatal(err)
			}
			if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			n, err := io.ReadFull(conn, make([]byte, 5))
			if n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("read %d bytes, err = %v; want the server to close without a reply", n, err)
			}
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Tables(); err != nil {
				t.Fatalf("Tables after a refused hello: %v", err)
			}
		})
	}
}

// TestDialRejectsOtherVersion: Dial against a server that answers with
// another protocol version fails, and does not redial.
func TestDialRejectsOtherVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readHello(conn); err != nil {
			return
		}
		if err := writeHello(conn, 3); err != nil {
			return
		}
		io.Copy(io.Discard, conn) //nolint:errcheck // until the client hangs up
	}()
	if c, err := Dial(ln.Addr().String()); err == nil {
		c.Close()
		t.Fatal("Dial accepted a server answering protocol version 3")
	}
	<-served
	// Any redial would be waiting in the accept queue by now.
	if err := ln.(*net.TCPListener).SetDeadline(time.Now().Add(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if conn, err := ln.Accept(); err == nil {
		conn.Close()
		t.Fatal("Dial redialed after the version mismatch")
	}
}

func TestMultiplexedConcurrentCalls(t *testing.T) {
	_, addr := startPlainServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable(plainSchema("mux")); err != nil {
		t.Fatal(err)
	}
	const callers = 32
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if i%2 == 0 {
					if err := c.Insert(context.Background(), "mux", engine.Row{"c": []byte("v")}); err != nil {
						errs <- err
						return
					}
				} else if _, err := c.Rows("mux"); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	n, err := c.Rows("mux")
	if err != nil || n != (callers/2)*20 {
		t.Fatalf("rows = %d, %v, want %d", n, err, (callers/2)*20)
	}
}

// TestMidStreamDropFailsAllPending verifies that a connection dying with
// many calls in flight completes every pending caller with an error — none
// hang, none panic.
func TestMidStreamDropFailsAllPending(t *testing.T) {
	received := make(chan struct{}, 64)
	addr := fakeMuxServer(t, func(conn net.Conn) {
		// Swallow requests without answering, then drop the connection
		// mid-stream once several calls are pending.
		p := newFakePeer(conn)
		for i := 0; i < 4; i++ {
			if _, _, err := p.next(); err != nil {
				break
			}
			received <- struct{}{}
		}
		conn.Close()
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Tables()
		}(i)
	}
	wg.Wait() // the test would time out if any caller hung
	for i, err := range errs {
		if err == nil {
			t.Errorf("caller %d returned nil error on a dead connection", i)
		}
	}
	// Calls after the failure must fail fast, not hang.
	if _, err := c.Rows("x"); err == nil {
		t.Error("call on poisoned client succeeded")
	}
}

// TestOversizedFrameClientSide: a server announcing an oversized frame must
// poison the client with ErrFrameTooLarge instead of allocating 1 GiB.
func TestOversizedFrameClientSide(t *testing.T) {
	addr := fakeMuxServer(t, func(conn net.Conn) {
		var hdr [12]byte
		hdr[0] = 0xFF // ~4 GiB announced
		hdr[1] = 0xFF
		hdr[2] = 0xFF
		hdr[3] = 0xFF
		if _, _, err := newFakePeer(conn).next(); err != nil {
			return
		}
		conn.Write(hdr[:]) //nolint:errcheck
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Tables(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestOversizedFrameServerSide: an oversized frame on a multiplexed
// connection drops that connection but not the server.
func TestOversizedFrameServerSide(t *testing.T) {
	_, addr := startPlainServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeHello(conn, protoVersion); err != nil {
		t.Fatal(err)
	}
	if _, err := readHello(conn); err != nil {
		t.Fatal(err)
	}
	var hdr [12]byte
	hdr[0] = 0xFF
	hdr[1] = 0xFF
	hdr[2] = 0xFF
	hdr[3] = 0xFF
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	// The server must drop this connection...
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept the connection after an oversized frame")
	}
	// ...while still serving fresh clients.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Tables(); err != nil {
		t.Fatalf("Tables after oversized frame: %v", err)
	}
}

// TestAnnouncedFrameServerSide: a peer that announces a maximum-size frame
// and then hangs up makes the server allocate in proportion to the bytes
// it sent, not the size it announced; the connection is dropped and the
// server keeps serving fresh clients.
func TestAnnouncedFrameServerSide(t *testing.T) {
	_, addr := startPlainServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeHello(conn, protoVersion); err != nil {
		t.Fatal(err)
	}
	if _, err := readHello(conn); err != nil {
		t.Fatal(err)
	}
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[:4], maxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	// The server drops the connection once the frame comes up short...
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("read %d bytes, err = %v; want the server to drop the connection", n, err)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 16<<20 {
		t.Fatalf("a %d-byte frame announcement cost %d bytes of allocation", maxFrame, d)
	}
	// ...while still serving fresh clients.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Tables(); err != nil {
		t.Fatalf("Tables after a short frame: %v", err)
	}
}

// TestImportColumnLargeFrame imports a 1M-row split, whose frame is larger
// than the biggest pooled buffer, and checks the provider serves it.
func TestImportColumnLargeFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row import")
	}
	_, addr := startPlainServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable(plainSchema("big")); err != nil {
		t.Fatal(err)
	}
	const rows = 1_000_000
	col := make([][]byte, rows)
	for i := range col {
		col[i] = fmt.Appendf(nil, "v%04d", i%1000)
	}
	split, err := dict.Build(col, dict.Params{Kind: dict.ED1, MaxLen: 8, Plain: true, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	var size binCounter
	encRequest(&size, &request{Op: opImportColumn, Table: "big", Column: "c", Split: split.Data()})
	if size.n <= bufpool.MaxSize {
		t.Fatalf("import frame is %d bytes, want more than %d", size.n, bufpool.MaxSize)
	}
	if err := c.ImportColumn("big", "c", split.Data()); err != nil {
		t.Fatalf("ImportColumn: %v", err)
	}
	if n, err := c.Rows("big"); err != nil || n != rows {
		t.Fatalf("Rows = %d, %v; want %d", n, err, rows)
	}
	res, err := c.Select(context.Background(), engine.Query{Table: "big", CountOnly: true, Filters: []engine.Filter{
		engine.SingleRange("c", enclave.EncRange{Start: []byte("v0007"), End: []byte("v0007"), StartIncl: true, EndIncl: true}),
	}})
	if err != nil || res.Count != rows/1000 {
		t.Fatalf("Select count = %v, %v; want %d", res, err, rows/1000)
	}
}

// TestUnknownResponseID: a response whose ID matches no in-flight request is
// discarded and the connection stays usable — that is exactly the shape a
// late answer to a context-cancelled (abandoned) call has, so it must not
// poison the stream.
func TestUnknownResponseID(t *testing.T) {
	addr := fakeMuxServer(t, func(conn net.Conn) {
		p := newFakePeer(conn)
		id, _, err := p.next()
		if err != nil {
			return
		}
		// A stray ID the client never issued, then the real answer.
		p.mw.sendResponse(999_999, &response{N: 7})             //nolint:errcheck
		p.mw.sendResponse(id, &response{Tables: []string{"t"}}) //nolint:errcheck
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tables, err := c.Tables()
	if err != nil || len(tables) != 1 {
		t.Fatalf("Tables = %v, %v; want [t], nil (stray response must be discarded)", tables, err)
	}
}

// TestDuplicateResponseID: the first response wins; the duplicate is
// indistinguishable from an abandoned call's late answer and is discarded
// without disturbing later calls.
func TestDuplicateResponseID(t *testing.T) {
	addr := fakeMuxServer(t, func(conn net.Conn) {
		p := newFakePeer(conn)
		id, _, err := p.next()
		if err != nil {
			return
		}
		p.mw.sendResponse(id, &response{N: 1}) //nolint:errcheck
		p.mw.sendResponse(id, &response{N: 2}) //nolint:errcheck
		// Serve the follow-up call normally.
		id2, _, err := p.next()
		if err != nil {
			return
		}
		p.mw.sendResponse(id2, &response{N: 3}) //nolint:errcheck
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n, err := c.Rows("t")
	if err != nil || n != 1 {
		t.Fatalf("first call = %d, %v; want 1, nil", n, err)
	}
	if n, err := c.Rows("t"); err != nil || n != 3 {
		t.Fatalf("call after duplicate response id = %d, %v; want 3, nil", n, err)
	}
}

// TestServerCloseDrainsInFlight closes the server while multiplexed
// requests are dispatched; worker goroutines must drain cleanly and late
// responses on the closed connection must not panic (regression test, run
// under -race in CI).
func TestServerCloseDrainsInFlight(t *testing.T) {
	srv, addr := startPlainServer(t, WithConnWorkers(8))
	setup, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	if err := setup.CreateTable(plainSchema("drain")); err != nil {
		t.Fatal(err)
	}
	const clients = 3
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := c.Insert(context.Background(), "drain", engine.Row{"c": []byte("v")}); err != nil {
					return // server went away: expected
				}
				if _, err := c.Rows("drain"); err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let requests pile in flight
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait() // all clients observed the shutdown; nothing hung or panicked
}

func TestClientCloseFailsPending(t *testing.T) {
	addr := fakeMuxServer(t, func(conn net.Conn) {
		// Never answer; just hold the connection open.
		io.Copy(io.Discard, conn) //nolint:errcheck
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Tables()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrClientClosed) {
		t.Fatalf("pending call err = %v, want ErrClientClosed", err)
	}
}

func TestBatchInsert(t *testing.T) {
	_, addr := startPlainServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable(plainSchema("b")); err != nil {
		t.Fatal(err)
	}
	rows := make([]engine.Row, 100)
	for i := range rows {
		rows[i] = engine.Row{"c": []byte(fmt.Sprintf("r%03d", i))}
	}
	if err := c.InsertBatch(context.Background(), "b", rows); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Rows("b"); err != nil || n != 100 {
		t.Fatalf("rows = %d, %v", n, err)
	}
	if err := c.InsertBatch(context.Background(), "b", nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestBatchAbortsAfterFailure(t *testing.T) {
	_, addr := startPlainServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateTable(plainSchema("ba")); err != nil {
		t.Fatal(err)
	}
	subs := []request{
		{Op: opInsert, Table: "ba", Row: engine.Row{"c": []byte("ok")}},
		{Op: opInsert, Table: "missing", Row: engine.Row{"c": []byte("x")}},
		{Op: opInsert, Table: "ba", Row: engine.Row{"c": []byte("skipped")}},
	}
	resps, err := c.callBatch(context.Background(), subs)
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].Err != "" {
		t.Errorf("sub 0 err = %q", resps[0].Err)
	}
	if resps[1].Err == "" {
		t.Error("sub 1 (missing table) succeeded")
	}
	if resps[2].Err != errBatchAborted {
		t.Errorf("sub 2 err = %q, want %q", resps[2].Err, errBatchAborted)
	}
	if n, _ := c.Rows("ba"); n != 1 {
		t.Errorf("rows = %d, want 1 (the statement after the failure must not apply)", n)
	}
}

func TestBatchRejectsNesting(t *testing.T) {
	_, addr := startPlainServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resps, err := c.callBatch(context.Background(), []request{{Op: opBatch}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resps[0].Err, "nested batch") {
		t.Fatalf("err = %q, want nested batch rejection", resps[0].Err)
	}
}

func TestPoolConcurrent(t *testing.T) {
	_, addr := startPlainServer(t)
	p, err := DialPool(addr, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Size() != 3 {
		t.Fatalf("size = %d", p.Size())
	}
	if err := p.CreateTable(plainSchema("pool")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if err := p.Insert(context.Background(), "pool", engine.Row{"c": []byte("v")}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n, err := p.Rows("pool"); err != nil || n != 160 {
		t.Fatalf("rows = %d, %v", n, err)
	}
}

// TestPoolRedialsBrokenConnection: a poisoned pooled connection must not
// keep degrading its rotation slot — the pool redials it in place.
func TestPoolRedialsBrokenConnection(t *testing.T) {
	_, addr := startPlainServer(t)
	p, err := DialPool(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.clients[0].fail(errors.New("simulated mid-stream drop"))
	p.clients[1].fail(errors.New("simulated mid-stream drop"))
	for i := 0; i < 6; i++ {
		if _, err := p.Tables(); err != nil {
			t.Fatalf("call %d after poisoning: %v", i, err)
		}
	}
	// After Close no redialing happens and calls fail.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Tables(); err == nil {
		t.Fatal("call on closed pool succeeded")
	}
}

func TestDialPoolRejectsBadSize(t *testing.T) {
	if _, err := DialPool("127.0.0.1:1", 0); err == nil {
		t.Fatal("pool of size 0 accepted")
	}
}
