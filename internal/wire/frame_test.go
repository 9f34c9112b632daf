package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/encdbdb/encdbdb/internal/bufpool"
)

// writeRawFrame writes one frame — header and payload — as a peer would.
func writeRawFrame(w io.Writer, id uint64, payload []byte) error {
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint64(hdr[4:], id)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func TestFrameRoundTrip(t *testing.T) {
	f := func(id uint64, payload []byte) bool {
		var buf bytes.Buffer
		if err := writeRawFrame(&buf, id, payload); err != nil {
			return false
		}
		fr := &frameReader{r: &buf}
		gotID, got, err := fr.readPooled()
		if err != nil {
			return false
		}
		defer bufpool.Put(got)
		return gotID == id && bytes.Equal(got.B, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 1}) // ~4 GiB announced
	fr := &frameReader{r: &buf}
	if _, _, err := fr.readPooled(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := writeRawFrame(&buf, 1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, n := range []int{0, 2, frameHeaderSize - 1, frameHeaderSize, len(raw) - 1} {
		fr := &frameReader{r: bytes.NewReader(raw[:n])}
		if _, _, err := fr.readPooled(); err == nil {
			t.Errorf("truncated frame at %d accepted", n)
		}
	}
}

func TestReadFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeRawFrame(&buf, 9, nil); err != nil {
		t.Fatal(err)
	}
	fr := &frameReader{r: &buf}
	id, got, err := fr.readPooled()
	if err != nil {
		t.Fatal(err)
	}
	if id != 9 || len(got.B) != 0 {
		t.Errorf("frame = id %d payload %v", id, got.B)
	}
	bufpool.Put(got)
	if _, _, err := fr.readPooled(); err != io.EOF {
		t.Errorf("second read err = %v, want EOF", err)
	}
}

// TestFrameReaderReusesBuffer: once a frame's buffer is released, the next
// frame of the same size class is read into a recycled buffer rather than
// a fresh allocation.
func TestFrameReaderReusesBuffer(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := writeRawFrame(&buf, uint64(i), []byte("hello")); err != nil {
			t.Fatal(err)
		}
	}
	fr := &frameReader{r: &buf}
	_, first, err := fr.readPooled()
	if err != nil {
		t.Fatal(err)
	}
	bufpool.Put(first)
	misses := bufpool.Default.Stats().Misses
	for i := 0; i < 2; i++ {
		_, p, err := fr.readPooled()
		if err != nil {
			t.Fatal(err)
		}
		if string(p.B) != "hello" {
			t.Fatalf("payload = %q", p.B)
		}
		bufpool.Put(p)
	}
	if got := bufpool.Default.Stats().Misses; got != misses {
		t.Fatalf("steady-state frame reads missed the pool %d times", got-misses)
	}
}

// TestFrameReaderCapGuard covers frames above the pool's largest class: a
// real one is read intact across several buffer growths, and a header that
// announces a huge frame but delivers only a few bytes costs an allocation
// bounded by what arrived, not by what was announced.
func TestFrameReaderCapGuard(t *testing.T) {
	big := make([]byte, 3*bufpool.MaxSize+7)
	for i := range big {
		big[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := writeRawFrame(&buf, 5, big); err != nil {
		t.Fatal(err)
	}
	fr := &frameReader{r: &buf}
	id, got, err := fr.readPooled()
	if err != nil || id != 5 || !bytes.Equal(got.B, big) {
		t.Fatalf("big frame: id %d, %d bytes, %v", id, len(got.B), err)
	}
	bufpool.Put(got)

	var lie bytes.Buffer
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[:4], maxFrame)
	lie.Write(hdr[:])
	lie.WriteString("only a few bytes")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fr = &frameReader{r: &lie}
	if _, _, err := fr.readPooled(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want a short-frame error", err)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > 16<<20 {
		t.Fatalf("a %d-byte announcement cost %d bytes of allocation", maxFrame, d)
	}
}
