package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	encdbdb "github.com/encdbdb/encdbdb"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/pae"
)

// providerConfig selects how a provider is opened.
type providerConfig struct {
	conns   int    // client connections (1 or 2)
	dataDir string // WAL directory; empty keeps the provider in memory
	traced  bool   // metrics registry on, byte-counting listener
}

// provider is an in-process EncDBDB provider served over loopback TCP, with
// the trusted proxy's client connections to it.
type provider struct {
	db      *encdbdb.Database
	ln      net.Listener
	counter *countingListener // nil unless traced
	served  chan error
	clients []*encdbdb.Client
	owner   *encdbdb.DataOwner
	splits  []*dict.Split // traced runs: owner-side splits as imported, schema order
}

// setupTiming splits one setup into its owner-side dictionary build and its
// ImportColumn calls; total runs from Open to serving.
type setupTiming struct {
	total, build, imp time.Duration
}

// openProvider opens a provider, provisions its enclave over the wire,
// creates the table, and loads it with owner-built splits.
func openProvider(ds *dataset, key encdbdb.Key, cfg providerConfig) (*provider, setupTiming, error) {
	var tm setupTiming
	var values [4][][]byte // the owner's column input, prepared before timing
	for j, c := range ds.cols {
		values[j] = c.slices()
	}
	start := time.Now()
	opts := encdbdb.Options{EnableMetrics: cfg.traced, DataDir: cfg.dataDir}
	if cfg.dataDir != "" {
		opts.SyncPolicy = "always"
	}
	db, err := encdbdb.Open(opts)
	if err != nil {
		return nil, tm, err
	}
	p := &provider{db: db, served: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, tm, err
	}
	p.ln = ln
	if cfg.traced {
		p.counter = &countingListener{Listener: ln}
		p.ln = p.counter
	}
	go func() { p.served <- db.Serve(p.ln, logf) }()
	if err := p.load(values, key, cfg, &tm); err != nil {
		p.close()
		return nil, tm, err
	}
	tm.total = time.Since(start)
	return p, tm, nil
}

func (p *provider) load(values [4][][]byte, key encdbdb.Key, cfg providerConfig, tm *setupTiming) error {
	for i := 0; i < cfg.conns; i++ {
		c, err := encdbdb.Dial(p.ln.Addr().String())
		if err != nil {
			return err
		}
		p.clients = append(p.clients, c)
	}
	owner, err := encdbdb.NewDataOwnerWithKey(key)
	if err != nil {
		return err
	}
	p.owner = owner
	if err := owner.ProvisionClient(p.clients[0], encdbdb.Measurement(encdbdb.DefaultEnclaveIdentity)); err != nil {
		return err
	}
	sess, err := owner.RemoteSession(p.clients[0])
	if err != nil {
		return err
	}
	if _, err := sess.ExecContext(context.Background(), createSQL); err != nil {
		return err
	}
	schema, err := p.clients[0].Schema(tableName)
	if err != nil {
		return err
	}
	for j, def := range schema.Columns {
		t := time.Now()
		split, err := buildSplit(key, def, values[j], tableSeed+100+int64(j))
		if err != nil {
			return fmt.Errorf("build %s: %w", def.Name, err)
		}
		tm.build += time.Since(t)
		t = time.Now()
		if err := p.clients[0].ImportColumn(tableName, def.Name, split.Data()); err != nil {
			return fmt.Errorf("import %s: %w", def.Name, err)
		}
		tm.imp += time.Since(t)
		if cfg.traced {
			p.splits = append(p.splits, split)
		}
	}
	return nil
}

// buildSplit runs the owner's EncDB operation for one column with its random
// draws (bucket sizes, rotation, shuffles) taken from seed, so dictionary
// shapes — and with them every enclave count — repeat.
func buildSplit(master encdbdb.Key, def engine.ColumnDef, values [][]byte, seed int64) (*dict.Split, error) {
	k, err := pae.Derive(master, tableName, def.Name)
	if err != nil {
		return nil, err
	}
	c, err := pae.NewCipher(k)
	if err != nil {
		return nil, err
	}
	return dict.Build(values, dict.Params{
		Kind: def.Kind, MaxLen: def.MaxLen, BSMax: def.BSMax,
		Cipher: c, Rand: rand.New(rand.NewSource(seed)),
	})
}

// engine returns the provider's embedded engine, for in-process replays.
func (p *provider) engine() *engine.DB { return p.db.Executor().(*engine.DB) }

// waitMerges blocks until no background merge is running, so the provider
// closes on a quiescent table.
func (p *provider) waitMerges(ctx context.Context) error {
	for {
		info, err := p.engine().MergeStatus(ctx, tableName)
		if err != nil {
			return err
		}
		if !info.Merging {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// close shuts the provider down and waits for its server loop to exit.
func (p *provider) close() error {
	var errs []error
	for _, c := range p.clients {
		errs = append(errs, c.Close())
	}
	errs = append(errs, p.db.Close())
	// Closing the listener too ends Serve even if it had not yet registered
	// its server when Close ran; after a normal Close it is already closed.
	p.ln.Close()
	if err := <-p.served; err != nil {
		errs = append(errs, fmt.Errorf("serve: %w", err))
	}
	return errors.Join(errs...)
}

// logf forwards provider log lines to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "provider: "+format+"\n", args...)
}

// countingListener counts the bytes each accepted connection carries, in
// accept order — the byte counters of the traced run.
type countingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c}
	l.mu.Lock()
	l.conns = append(l.conns, cc)
	l.mu.Unlock()
	return cc, nil
}

// bytes returns the bytes read plus written on the i-th accepted connection.
func (l *countingListener) bytes(i int) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i >= len(l.conns) {
		return 0
	}
	return l.conns[i].n.Load()
}

type countingConn struct {
	net.Conn
	n atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

// Write counts before writing, so a response's bytes are counted by the
// time the peer can have read them; a short write takes back the rest.
func (c *countingConn) Write(b []byte) (int, error) {
	c.n.Add(int64(len(b)))
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n - len(b)))
	return n, err
}
