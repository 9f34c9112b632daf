package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	encdbdb "github.com/encdbdb/encdbdb"
)

const (
	warmupOps  = 20          // untimed, checked operations before measuring,
	warmupTime = time.Second // repeated for at least this long
	mergeEvery = 20_000      // acknowledged inserts between MERGE TABLE ... ASYNC
	rowBytes   = 8 + 10 + 10 + 12
)

var errWrongAnswer = errors.New("wrong answer")

// tally counts attempted and failed operations of one goroutine and keeps
// the first few errors.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// reader runs one workload's queries through one Session: the ad-hoc
// analytic COUNT, or the prepared fetch drained through its Rows cursor.
type reader struct {
	ds    *dataset
	fetch bool
	sess  *encdbdb.Session
	stmt  *encdbdb.Stmt
	rows  [][]string // the last fetch's decrypted rows
}

func newReader(ctx context.Context, p *provider, exec encdbdb.Executor, ds *dataset, fetch bool) (*reader, error) {
	sess, err := p.owner.RemoteSession(exec)
	if err != nil {
		return nil, err
	}
	r := &reader{ds: ds, fetch: fetch, sess: sess}
	if fetch {
		if r.stmt, err = sess.Prepare(ctx, fetchSQL); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// query runs pre-drawn query i and returns its latency, from the SQL call to
// the last decrypted row, and its answer: the COUNT, or the number of rows
// fetched (kept in r.rows for checking).
func (r *reader) query(ctx context.Context, i int) (time.Duration, int, error) {
	if !r.fetch {
		args := r.ds.rangeArgs(i)
		t := time.Now()
		res, err := r.sess.ExecContext(ctx, analyticSQL, args...)
		d := time.Since(t)
		if err != nil {
			return d, 0, err
		}
		return d, res.Count, nil
	}
	arg := r.ds.keyArg(i)
	r.rows = r.rows[:0]
	t := time.Now()
	rows, err := r.stmt.Query(ctx, arg)
	if err != nil {
		return time.Since(t), 0, err
	}
	for rows.Next() {
		r.rows = append(r.rows, rows.Row())
	}
	err = rows.Err()
	rows.Close()
	d := time.Since(t)
	return d, len(r.rows), err
}

// check compares the answer of query i over the loaded table with the
// oracle.
func (r *reader) check(i, count int) error {
	if r.fetch {
		return r.ds.checkKeyRows(i, r.rows)
	}
	if want := r.ds.countBase(i); count != want {
		return fmt.Errorf("%w: analytic query %d counted %d, oracle %d", errWrongAnswer, i, count, want)
	}
	return nil
}

// warmup runs untimed, checked operations so connections, caches, the
// proxy's cipher cache and the heap are settled before measuring. The analytic reader also
// checks one single-column COUNT per range column, whose answers are
// non-empty.
func (r *reader) warmup(ctx context.Context, t *tally) {
	if !r.fetch {
		for _, c := range r.ds.singleColumnChecks(queryPool - 1) {
			t.attempted++
			res, err := r.sess.ExecContext(ctx, c.sql, c.args...)
			if err == nil && res.Count != c.count {
				err = fmt.Errorf("%w: %s counted %d, oracle %d", errWrongAnswer, c.sql, res.Count, c.count)
			}
			if err != nil {
				t.fail(err)
			}
		}
	}
	runtime.GC() // collect the setup's garbage before anything is timed
	start := time.Now()
	for w := 0; w < warmupOps || time.Since(start) < warmupTime; w++ {
		i := queryPool - 1 - w%warmupOps
		t.attempted++
		_, n, err := r.query(ctx, i)
		if err == nil {
			err = r.check(i, n)
		}
		if err != nil {
			t.fail(err)
		}
	}
}

// windowed is one mixed-workload COUNT with the insert prefix it must see:
// at least every insert acknowledged before it was sent, at most every
// insert sent before it returned.
type windowed struct {
	i, count int
	lo, hi   int64
}

// writer is the mixed workload's single client inserting pre-drawn rows
// through a prepared statement, with a MERGE TABLE ... ASYNC after every
// mergeEvery acknowledged inserts.
type writer struct {
	ds    *dataset
	sess  *encdbdb.Session
	stmt  *encdbdb.Stmt
	tr    *tracer // nil when untraced
	sent  atomic.Int64
	acked atomic.Int64
	lat   samples // acknowledged inserts
	t     tally
}

func newWriter(ctx context.Context, p *provider, exec encdbdb.Executor, ds *dataset) (*writer, error) {
	sess, err := p.owner.RemoteSession(exec)
	if err != nil {
		return nil, err
	}
	w := &writer{ds: ds, sess: sess}
	if w.stmt, err = sess.Prepare(ctx, insertSQL); err != nil {
		return nil, err
	}
	return w, nil
}

// run inserts until the deadline. It stops at the first failure, so the
// acknowledged inserts always form a prefix of the pre-drawn rows.
func (w *writer) run(ctx context.Context, start, deadline time.Time) {
	for i := 0; time.Now().Before(deadline); i++ {
		args := w.ds.insertArgs(i)
		w.sent.Add(1)
		w.t.attempted++
		if w.tr != nil {
			w.tr.beginRoot("insert")
		}
		t := time.Now()
		_, err := w.stmt.Exec(ctx, args...)
		d := time.Since(t)
		if w.tr != nil {
			w.tr.endRoot()
		}
		if err != nil {
			w.t.fail(fmt.Errorf("insert %d: %w", i, err))
			return
		}
		w.lat.add(start, d)
		if w.acked.Add(1)%mergeEvery != 0 {
			continue
		}
		w.t.attempted++
		if w.tr != nil {
			w.tr.beginRoot("merge")
		}
		_, err = w.sess.ExecContext(ctx, mergeSQL)
		if w.tr != nil {
			w.tr.endRoot()
		}
		if err != nil {
			w.t.fail(fmt.Errorf("merge after insert %d: %w", i, err))
			return
		}
	}
}

// checkWindows verifies each concurrent COUNT against the oracle: the loaded
// rows plus the matching inserts of its window's lower and upper prefix.
func checkWindows(ds *dataset, ws []windowed, t *tally) {
	for _, w := range ws {
		base := ds.countBase(w.i)
		lo, hi := base, base
		for j := int64(0); j < w.hi; j++ {
			if ds.insertMatches(w.i, int(j)) {
				if j < w.lo {
					lo++
				}
				hi++
			}
		}
		if w.count < lo || w.count > hi {
			t.fail(fmt.Errorf("%w: mixed query %d counted %d, oracle allows [%d, %d]", errWrongAnswer, w.i, w.count, lo, hi))
		}
	}
}

// reopenCheck reopens a closed provider from its data directory and checks
// that recovery kept every loaded and acknowledged row.
func reopenCheck(ctx context.Context, dir string, key encdbdb.Key, want int) error {
	db, err := encdbdb.Open(encdbdb.Options{DataDir: dir, SyncPolicy: "always"})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer db.Close()
	owner, err := encdbdb.NewDataOwnerWithKey(key)
	if err != nil {
		return err
	}
	if err := owner.Provision(db); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	sess, err := owner.Session(db)
	if err != nil {
		return err
	}
	res, err := sess.ExecContext(ctx, countAllSQL)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	if res.Count != want {
		return fmt.Errorf("%w: reopened table has %d rows, want %d", errWrongAnswer, res.Count, want)
	}
	return nil
}
