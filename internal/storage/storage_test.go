package storage_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/proxy"
	"github.com/encdbdb/encdbdb/internal/storage"
)

// newStack builds a proxy+engine+enclave stack and returns the pieces needed
// to open a second database against the same master key.
func newStack(t testing.TB) (*proxy.Proxy, *engine.DB, pae.Key) {
	t.Helper()
	plat, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	encl, err := plat.Launch(enclave.Config{Identity: "storage-test"})
	if err != nil {
		t.Fatal(err)
	}
	master := pae.MustGen()
	sealed, err := enclave.SealKey(encl.Quote(nil), master)
	if err != nil {
		t.Fatal(err)
	}
	if err := encl.Provision(sealed); err != nil {
		t.Fatal(err)
	}
	db := engine.New(encl)
	p, err := proxy.New(master, db)
	if err != nil {
		t.Fatal(err)
	}
	return p, db, master
}

// cloneStack opens a fresh database + proxy sharing the master key, as after
// a server restart.
func cloneStack(t testing.TB, master pae.Key) (*proxy.Proxy, *engine.DB) {
	t.Helper()
	plat, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	encl, err := plat.Launch(enclave.Config{Identity: "storage-test"})
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := enclave.SealKey(encl.Quote(nil), master)
	if err != nil {
		t.Fatal(err)
	}
	if err := encl.Provision(sealed); err != nil {
		t.Fatal(err)
	}
	db := engine.New(encl)
	p, err := proxy.New(master, db)
	if err != nil {
		t.Fatal(err)
	}
	return p, db
}

func seed(t testing.TB, p *proxy.Proxy) {
	t.Helper()
	mustExec(t, p, "CREATE TABLE t1 (fname ED5(16) BSMAX 3, city ED1(16), note PLAIN ED3(20))")
	rows := [][3]string{
		{"Hans", "Berlin", "b2b"},
		{"Jessica", "Waterloo", "vip"},
		{"Archie", "Karlsruhe", "b2b"},
	}
	for _, r := range rows {
		mustExec(t, p, fmt.Sprintf("INSERT INTO t1 VALUES ('%s', '%s', '%s')", r[0], r[1], r[2]))
	}
	// One deleted row exercises validity persistence.
	mustExec(t, p, "DELETE FROM t1 WHERE fname = 'Hans'")
}

func mustExec(t testing.TB, p *proxy.Proxy, sql string) *proxy.Result {
	t.Helper()
	res, err := p.Execute(context.Background(), sql)
	if err != nil {
		t.Fatalf("Execute(%q): %v", sql, err)
	}
	return res
}

func TestRoundTripInMemory(t *testing.T) {
	p, db, master := newStack(t)
	seed(t, p)
	snap, err := db.Snapshot("t1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := storage.WriteTable(&buf, snap); err != nil {
		t.Fatalf("WriteTable: %v", err)
	}
	got, err := storage.ReadTable(&buf)
	if err != nil {
		t.Fatalf("ReadTable: %v", err)
	}

	p2, db2 := cloneStack(t, master)
	if err := db2.Restore(got); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	res := mustExec(t, p2, "SELECT fname, city, note FROM t1 WHERE fname >= 'A'")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v, want 2 (Hans deleted)", res.Rows)
	}
	for _, r := range res.Rows {
		if r[0] == "Hans" {
			t.Error("deleted row resurrected after restore")
		}
	}
}

func TestSaveLoadFiles(t *testing.T) {
	p, db, master := newStack(t)
	seed(t, p)
	path := filepath.Join(t.TempDir(), "t1.encdb")
	if err := storage.SaveTable(db, "t1", path); err != nil {
		t.Fatalf("SaveTable: %v", err)
	}
	_, db2 := cloneStack(t, master)
	if err := storage.LoadTable(db2, path); err != nil {
		t.Fatalf("LoadTable: %v", err)
	}
	n, err := db2.Rows("t1")
	if err != nil || n != 3 {
		t.Errorf("rows = %d (%v), want 3", n, err)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	p, db, _ := newStack(t)
	seed(t, p)
	snap, err := db.Snapshot("t1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := storage.WriteTable(&buf, snap); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	t.Run("bit flip", func(t *testing.T) {
		for _, pos := range []int{20, len(raw) / 2, len(raw) - 10} {
			bad := append([]byte(nil), raw...)
			bad[pos] ^= 0x40
			if _, err := storage.ReadTable(bytes.NewReader(bad)); err == nil {
				t.Errorf("corruption at %d not detected", pos)
			}
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 4, len(raw) / 2, len(raw) - 1} {
			if _, err := storage.ReadTable(bytes.NewReader(raw[:n])); err == nil {
				t.Errorf("truncation to %d not detected", n)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[0] = 'X'
		if _, err := storage.ReadTable(bytes.NewReader(bad)); !errors.Is(err, storage.ErrBadMagic) {
			t.Errorf("err = %v, want ErrBadMagic", err)
		}
	})
}

func TestLoadTableMissingFile(t *testing.T) {
	_, db, _ := newStack(t)
	if err := storage.LoadTable(db, filepath.Join(t.TempDir(), "nope.encdb")); err == nil {
		t.Error("missing file not reported")
	}
}

func TestSnapshotUnknownTable(t *testing.T) {
	_, db, _ := newStack(t)
	if _, err := db.Snapshot("nope"); !errors.Is(err, engine.ErrNoSuchTable) {
		t.Errorf("err = %v, want ErrNoSuchTable", err)
	}
}

func TestRestoreRejectsExistingTable(t *testing.T) {
	p, db, _ := newStack(t)
	seed(t, p)
	snap, err := db.Snapshot("t1")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Restore(snap); !errors.Is(err, engine.ErrTableExists) {
		t.Errorf("err = %v, want ErrTableExists", err)
	}
}

func TestRestoreRejectsTamperedSplitRefs(t *testing.T) {
	p, db, master := newStack(t)
	seed(t, p)
	// seed leaves every row in the delta; merge so the main split has head
	// entries to tamper with.
	if err := db.Merge(context.Background(), "t1"); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	snap, err := db.Snapshot("t1")
	if err != nil {
		t.Fatal(err)
	}
	// An out-of-range entry reference must be rejected before it can cause
	// out-of-bounds access.
	if len(snap.Columns[0].Main.Head) == 0 {
		t.Fatal("merged snapshot has no main head entries")
	}
	snap.Columns[0].Main.Head[0].Len = 1 << 30
	_, db2 := cloneStack(t, master)
	if err := db2.Restore(snap); err == nil {
		t.Error("tampered head reference accepted")
	}
	if got := db2.Tables(); len(got) != 0 {
		t.Errorf("half-restored table left behind: %v", got)
	}
}

// TestFormatMatrix proves every storage format generation loads into the
// current in-memory representation unchanged: version 1 (unpacked uint32
// AVs), version 2 (uniform bit-packed words) and the current version 3
// (bit-packed words plus per-block FoR/RLE encoding metadata) all restore
// databases that answer queries identically to the live original, with every
// split's codes surviving bit-for-bit. This is the v1/v2 → v3 upgrade path:
// a server that persisted under an older format and restarts on the current
// binary must see no behavioral difference.
func TestFormatMatrix(t *testing.T) {
	p, db, master := newStack(t)
	seed(t, p)
	// Enough rows that the bit-packed layout's fixed per-column header is
	// dwarfed by the attribute vector itself.
	for i := 0; i < 256; i++ {
		mustExec(t, p, fmt.Sprintf("INSERT INTO t1 VALUES ('P%03d', 'C%02d', 'n%d')", i, i%16, i%4))
	}
	// Merge so the main stores (the part whose layout changed) hold data;
	// keep one post-merge insert so delta persistence is exercised too.
	if err := db.Merge(context.Background(), "t1"); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	mustExec(t, p, "INSERT INTO t1 VALUES ('Zoe', 'Aachen', 'vip')")

	snap, err := db.Snapshot("t1")
	if err != nil {
		t.Fatal(err)
	}
	files := []struct {
		name  string
		write func(w *bytes.Buffer) error
	}{
		{"v1", func(w *bytes.Buffer) error { return storage.WriteTableV1(w, snap) }},
		{"v2", func(w *bytes.Buffer) error { return storage.WriteTableV2(w, snap) }},
		{"v3", func(w *bytes.Buffer) error { return storage.WriteTable(w, snap) }},
	}
	bufs := make(map[string]*bytes.Buffer, len(files))
	for _, f := range files {
		var buf bytes.Buffer
		if err := f.write(&buf); err != nil {
			t.Fatalf("write %s: %v", f.name, err)
		}
		bufs[f.name] = &buf
	}
	// The packed formats must beat the unpacked one on this data set.
	for _, packed := range []string{"v2", "v3"} {
		if bufs[packed].Len() >= bufs["v1"].Len() {
			t.Errorf("%s file (%d bytes) not smaller than v1 file (%d bytes)",
				packed, bufs[packed].Len(), bufs["v1"].Len())
		}
	}

	queries := []string{
		"SELECT fname, city, note FROM t1 WHERE fname >= 'A'",
		"SELECT city FROM t1 WHERE city = 'Waterloo'",
		"SELECT COUNT(*) FROM t1 WHERE note = 'b2b'",
	}
	for _, f := range files {
		t.Run(f.name, func(t *testing.T) {
			got, err := storage.ReadTable(bytes.NewReader(bufs[f.name].Bytes()))
			if err != nil {
				t.Fatalf("ReadTable(%s): %v", f.name, err)
			}
			for i, cs := range got.Columns {
				want := snap.Columns[i].Main.AV
				if len(cs.Main.AV) != len(want) {
					t.Fatalf("column %q: %d AV codes, want %d", cs.Name, len(cs.Main.AV), len(want))
				}
				for j, vid := range cs.Main.AV {
					if vid != want[j] {
						t.Fatalf("column %q: AV[%d] = %d, want %d", cs.Name, j, vid, want[j])
					}
				}
			}

			p2, db2 := cloneStack(t, master)
			if err := db2.Restore(got); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			for _, q := range queries {
				want := mustExec(t, p, q)
				got := mustExec(t, p2, q)
				if want.Count != got.Count || len(want.Rows) != len(got.Rows) {
					t.Fatalf("%q: restored answered %d rows/count %d, original %d/%d",
						q, len(got.Rows), got.Count, len(want.Rows), want.Count)
				}
				for i := range want.Rows {
					for j := range want.Rows[i] {
						if want.Rows[i][j] != got.Rows[i][j] {
							t.Errorf("%q: row %d col %d = %q, want %q", q, i, j, got.Rows[i][j], want.Rows[i][j])
						}
					}
				}
			}
		})
	}
}

// TestRoundTripLargeTail round-trips a main split whose dictionary tail is
// larger than the decoder's 1 MiB read chunk, so decoding it must grow the
// buffer across several chunks.
func TestRoundTripLargeTail(t *testing.T) {
	db := engine.New(nil)
	schema := engine.Schema{Table: "big", Columns: []engine.ColumnDef{
		{Name: "c", Kind: dict.ED9, MaxLen: 64, Plain: true},
	}}
	if err := db.CreateTable(schema); err != nil {
		t.Fatal(err)
	}
	rows := make([]engine.Row, 40000)
	for i := range rows {
		rows[i] = engine.Row{"c": fmt.Appendf(nil, "%064d", i)}
	}
	ctx := context.Background()
	if err := db.InsertBatch(ctx, "big", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Merge(ctx, "big"); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot("big")
	if err != nil {
		t.Fatal(err)
	}
	tail := snap.Columns[0].Main.Tail
	if len(tail) <= 2<<20 {
		t.Fatalf("tail is %d bytes, want > 2 MiB", len(tail))
	}
	var buf bytes.Buffer
	if err := storage.WriteTable(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := storage.ReadTable(&buf)
	if err != nil {
		t.Fatalf("ReadTable: %v", err)
	}
	if !bytes.Equal(got.Columns[0].Main.Tail, tail) {
		t.Fatal("dictionary tail changed across the round trip")
	}
	db2 := engine.New(nil)
	if err := db2.Restore(got); err != nil {
		t.Fatal(err)
	}
	if n, err := db2.Rows("big"); err != nil || n != len(rows) {
		t.Fatalf("restored rows = %d, %v; want %d", n, err, len(rows))
	}
}

func TestRoundTripEmptyTable(t *testing.T) {
	p, db, master := newStack(t)
	mustExec(t, p, "CREATE TABLE empty (c ED1(8))")
	snap, err := db.Snapshot("empty")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := storage.WriteTable(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := storage.ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p2, db2 := cloneStack(t, master)
	if err := db2.Restore(got); err != nil {
		t.Fatal(err)
	}
	// The restored empty table must accept inserts and queries.
	mustExec(t, p2, "INSERT INTO empty VALUES ('x')")
	res := mustExec(t, p2, "SELECT COUNT(*) FROM empty")
	if res.Count != 1 {
		t.Errorf("count = %d, want 1", res.Count)
	}
}
