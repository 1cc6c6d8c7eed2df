package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/store"
)

// tracerRef is the tracer the long-lived seams (store backends, HTTP
// handlers) record into; nil between traced phases.
type tracerRef struct{ p atomic.Pointer[Tracer] }

func (r *tracerRef) get() *Tracer   { return r.p.Load() }
func (r *tracerRef) set(tr *Tracer) { r.p.Store(tr) }

// tracedBackend wraps a store.Backend — the blob seam under the store
// and the journal — recording a "<prefix>.read" or "<prefix>.write" span
// per blob read or written. mutate, when non-nil, rewrites every blob
// before it is written: the fault-injection hook.
type tracedBackend struct {
	store.Backend
	prefix string
	ref    *tracerRef
	mutate func(name string, data []byte) []byte
}

func (b *tracedBackend) Read(name string) ([]byte, error) {
	t0 := time.Now()
	data, err := b.Backend.Read(name)
	b.ref.get().Record(b.prefix+".read", 0, 0, t0, time.Now())
	return data, err
}

func (b *tracedBackend) Write(name string, data []byte) error {
	if b.mutate != nil {
		data = b.mutate(name, data)
	}
	t0 := time.Now()
	err := b.Backend.Write(name, data)
	b.ref.get().Record(b.prefix+".write", 0, 0, t0, time.Now())
	return err
}

// openTracedDir opens a local-directory backend wrapped in tracing.
func openTracedDir(root, prefix string, ref *tracerRef, mutate func(string, []byte) []byte) (*tracedBackend, error) {
	be, err := store.OpenDir(root, nil)
	if err != nil {
		return nil, err
	}
	return &tracedBackend{Backend: be, prefix: prefix, ref: ref, mutate: mutate}, nil
}

// unsyncedDir is the backend serve-mixed seeds its cold set through: a
// DirBackend whose Write puts the blob where DirBackend would, without
// the per-blob fsync and directory sync. Seeding prepares the input; it
// is not the write path under test, and a few hundred fsyncs in a row
// would make set-up time a reading of the disk's flush latency. The
// seed is flushed once, with one sync, after the last blob.
type unsyncedDir struct {
	*store.DirBackend
	root string
}

func (b unsyncedDir) Write(name string, data []byte) error {
	p := filepath.Join(b.root, filepath.FromSlash(name))
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	return os.WriteFile(p, data, 0o644)
}

// removeScratch deletes a workload's scratch directory and flushes the
// filesystem, so the journal commit of thousands of unlinks lands here
// rather than on the next set-up's or the next run's first fsyncs.
func removeScratch(dir string) {
	if dir == "" {
		return
	}
	os.RemoveAll(dir)
	syscall.Sync()
}

// leaseCount reads how many leases a lease response granted.
func leaseCount(body []byte) int {
	var resp struct {
		Leases []json.RawMessage `json:"leases"`
	}
	if json.Unmarshal(body, &resp) != nil {
		return 0
	}
	return len(resp.Leases)
}

// captureWriter keeps a copy of the response body.
type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *captureWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

// tracedDispatch wraps the coordinator's handler on the benchmark's own
// listener, timing each lease request ("dispatch.lease" when it granted
// work, "dispatch.poll_empty" when it did not) and each completion
// ("dispatch.complete") as handler time. The worker's idle time is read
// from the same requests: a "dispatch.idle" span runs from the start of
// a lease poll that came back empty to the start of the next poll.
func tracedDispatch(ref *tracerRef, h http.Handler) http.Handler {
	var (
		mu        sync.Mutex
		idleSince time.Time // start of the last empty poll; zero when busy
	)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := ref.get()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		switch {
		case r.URL.Path == "/v1/shards/lease":
			mu.Lock()
			if !idleSince.IsZero() {
				tr.Record("dispatch.idle", 0, 0, idleSince, t0)
				idleSince = time.Time{}
			}
			mu.Unlock()
			cw := &captureWriter{ResponseWriter: w}
			h.ServeHTTP(cw, r)
			name := "dispatch.lease"
			if leaseCount(cw.buf.Bytes()) == 0 {
				name = "dispatch.poll_empty"
				mu.Lock()
				idleSince = t0
				mu.Unlock()
			}
			tr.Record(name, 0, 0, t0, time.Now())
		case strings.HasSuffix(r.URL.Path, "/complete"):
			h.ServeHTTP(w, r)
			tr.Record("dispatch.complete", 0, 0, t0, time.Now())
		default:
			h.ServeHTTP(w, r)
		}
	})
}
