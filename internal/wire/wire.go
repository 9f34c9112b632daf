// Package wire implements the network protocol between the trusted side
// (data owner, proxy) and the untrusted DBaaS provider (paper Fig. 2): a
// length-prefixed, multiplexed binary protocol over TCP.
//
// A connection opens with a five-byte hello in each direction (see
// helloMagic) naming the protocol version; the server closes any connection
// whose hello is missing or names a version other than its own. After the
// hello every frame carries a connection-unique request ID, so a client
// keeps many calls in flight over one connection and the server answers
// them out of order as its per-request workers finish. Frame payloads use
// the hand-rolled binary codec in codec.go: frames encode directly into the
// connection's buffered writer and decode with zero reflection into pooled
// objects whose data-plane byte fields alias pooled frame buffers
// (internal/bufpool).
//
// The server applies admission control per connection: a bounded dispatch
// queue (WithQueueDepth) sheds excess requests immediately with
// ErrServerBusy instead of queueing them, an optional per-request deadline
// (WithRequestTimeout) bounds how long an admitted request may run — queue
// wait included — and Close drains: accepted requests finish and their
// responses are delivered before connections close. With WithMetrics the
// server additionally exports per-op request/error/latency families plus
// connection, byte, and admission-outcome counters on a metrics.Registry.
//
// The protocol carries only what the paper's attacker may see anyway:
// attestation quotes, sealed keys, schemas, PAE-encrypted query ranges,
// ciphertext cells and plaintext ValueID structures. EncDBDB's protocol
// "runs in one round and only encrypts the values in the query" (paper
// §6.3); every operation here is likewise a single request/response
// round trip — multiplexing changes how many rounds share a connection,
// not what any single round reveals.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"github.com/encdbdb/encdbdb/internal/bufpool"
)

// maxFrame caps a frame at 1 GiB to bound allocations from a malicious or
// corrupted peer.
const maxFrame = 1 << 30

// ErrFrameTooLarge is returned when a peer announces an oversized frame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// protoVersion is the one protocol version this build speaks. Versions 1–3
// were earlier builds' protocols (lock-step gob, multiplexed gob, and the
// binary codec behind a per-frame codec byte); 4 dropped that byte.
const protoVersion = 4

// helloMagic opens a connection: each side sends these four bytes plus its
// protocol version byte before its first frame. Read as the big-endian
// length prefix an old lock-step peer expects (0x45444232 ≈ 1.08 GiB), they
// exceed maxFrame, so such a peer drops the connection instead of
// misparsing the stream.
var helloMagic = [4]byte{'E', 'D', 'B', '2'}

// writeHello sends the magic and a version byte.
func writeHello(w io.Writer, version byte) error {
	var h [5]byte
	copy(h[:], helloMagic[:])
	h[4] = version
	_, err := w.Write(h[:])
	return err
}

// readHello consumes the peer's hello and returns its version byte.
func readHello(r io.Reader) (byte, error) {
	var h [5]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, err
	}
	if [4]byte(h[:4]) != helloMagic {
		return 0, errors.New("wire: bad hello magic")
	}
	return h[4], nil
}

// op identifies a request type. Values are stable: they are the first byte
// of every request body.
type op uint8

const (
	opQuote op = iota + 1
	opProvision
	opSchema
	opCreateTable
	opDropTable
	opSelect
	opInsert
	opDelete
	opUpdate
	opMerge
	opImportColumn
	opTables
	opRows
	opStorageBytes
	opBatch // carries N sub-requests executed server-side in one round trip
	opMergeAsync
	opMergeStatus
	// opSelectStream answers with chunked result frames (response.More
	// marks non-final chunks) under the request's ID; opCancel asks the
	// server to cancel the in-flight request named by request.Cancel.
	opSelectStream
	opCancel
)

// frameHeaderSize is the length of a frame header: a 4-byte big-endian
// payload length, then the 8-byte big-endian request ID.
const frameHeaderSize = 12

// frameReader reads frames, each into its own buffer whose ownership passes
// to the caller (see readPooled).
type frameReader struct {
	r io.Reader
	// hdr is the frame-header scratch. A stack array would escape into the
	// reader's ReadFull call and cost one allocation per frame; a field
	// escapes once with the frameReader.
	hdr [frameHeaderSize]byte
}

// readPooled reads one frame. Ownership of the returned buffer transfers to
// the caller, who must bufpool.Put it once nothing references the payload —
// so a decoded request can keep aliasing its frame while later frames are
// already being read.
//
// Frames up to bufpool.MaxSize are read into a pooled buffer of the
// announced size. Larger frames grow their buffer as the bytes arrive, so
// a peer that announces a large frame and sends less costs an allocation
// proportional to what it sent, not to what it announced.
func (fr *frameReader) readPooled() (uint64, *bufpool.Buf, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(fr.hdr[:4])
	id := binary.BigEndian.Uint64(fr.hdr[4:])
	if n > maxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	if n <= bufpool.MaxSize {
		buf := bufpool.Get(int(n))
		if _, err := io.ReadFull(fr.r, buf.B); err != nil {
			bufpool.Put(buf)
			return 0, nil, fmt.Errorf("wire: short frame: %w", err)
		}
		return id, buf, nil
	}
	var b bytes.Buffer
	b.Grow(bufpool.MaxSize)
	if _, err := b.ReadFrom(io.LimitReader(fr.r, int64(n))); err != nil {
		return 0, nil, fmt.Errorf("wire: short frame: %w", err)
	}
	if b.Len() != int(n) {
		return 0, nil, fmt.Errorf("wire: short frame: %w", io.ErrUnexpectedEOF)
	}
	return id, bufpool.Unpooled(b.Bytes()), nil
}

// errWriterBroken poisons a connection whose outbound stream can no longer
// be trusted: a partial frame, an encoder failure, or a size divergence.
var errWriterBroken = errors.New("wire: connection encoder broken")

// muxWriter is the send direction of a connection: messages are framed
// with their request ID and written under a mutex. The binary codec encodes
// straight into the buffered writer with no scratch copy — each message is
// sized by a counting pass first, so the frame header can be written before
// the payload. Bursts coalesce: a writer flushes the buffered stream only
// when no other writer is queued behind it (group commit), so N concurrent
// in-flight requests cost far fewer than N syscalls.
type muxWriter struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	counter binCounter
	wr      binWriter
	hdr     [frameHeaderSize]byte // frame-header scratch; see frameReader.hdr
	waiters atomic.Int32
	broken  bool
}

func newMuxWriter(w io.Writer) *muxWriter {
	return &muxWriter{bw: bufio.NewWriter(w)}
}

// lock acquires the write lock, registering as a waiter so the holder skips
// its flush (group commit). It fails without blocking future writers when
// the stream is already broken.
func (mw *muxWriter) lock() error {
	mw.waiters.Add(1)
	mw.mu.Lock()
	mw.waiters.Add(-1)
	if mw.broken {
		mw.mu.Unlock()
		return errWriterBroken
	}
	return nil
}

// unlockFlush completes a send made under lock: a failed send poisons the
// stream, a successful one flushes unless another writer is queued behind
// it (that writer flushes for the whole group; the chain always terminates
// at a writer that observes zero waiters).
func (mw *muxWriter) unlockFlush(err error) error {
	defer mw.mu.Unlock()
	if err != nil {
		mw.broken = true
		return err
	}
	if mw.waiters.Load() > 0 {
		return nil
	}
	return mw.bw.Flush()
}

// beginLocked writes the frame header for the message just sized by
// mw.counter and arms mw.wr to emit it. Callers hold mw.mu.
func (mw *muxWriter) beginLocked(id uint64) error {
	n := mw.counter.n
	if n > maxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(mw.hdr[:4], uint32(n))
	binary.BigEndian.PutUint64(mw.hdr[4:], id)
	if _, err := mw.bw.Write(mw.hdr[:]); err != nil {
		return err
	}
	mw.wr.reset(mw.bw)
	return nil
}

// endLocked verifies the emit pass produced exactly the bytes the sizing
// pass announced. A divergence means the encoder is buggy; the frame header
// on the wire is now a lie, so the caller poisons the connection.
func (mw *muxWriter) endLocked() error {
	if err := mw.wr.err(); err != nil {
		return err
	}
	if mw.wr.n != mw.counter.n {
		return fmt.Errorf("wire: binary encoder divergence: sized %d bytes, wrote %d", mw.counter.n, mw.wr.n)
	}
	return nil
}

// sendRequest writes one request frame: sized by a counting pass, then
// emitted directly into the buffered writer.
func (mw *muxWriter) sendRequest(id uint64, req *request) error {
	if err := mw.lock(); err != nil {
		return err
	}
	mw.counter.reset()
	encRequest(&mw.counter, req)
	err := mw.beginLocked(id)
	if err == nil {
		encRequest(&mw.wr, req)
		err = mw.endLocked()
	}
	return mw.unlockFlush(err)
}

// sendResponse writes one response frame.
func (mw *muxWriter) sendResponse(id uint64, resp *response) error {
	if err := mw.lock(); err != nil {
		return err
	}
	mw.counter.reset()
	encResponse(&mw.counter, resp)
	err := mw.beginLocked(id)
	if err == nil {
		encResponse(&mw.wr, resp)
		err = mw.endLocked()
	}
	return mw.unlockFlush(err)
}
