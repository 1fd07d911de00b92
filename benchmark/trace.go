package main

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed step of a traced journey. Every request or job gets one
// trace id; its spans link to their parent by span id. Spans stay in memory
// and are written out once, as NDJSON, when the run ends.
type span struct {
	Trace  string             `json:"trace"`
	ID     string             `json:"id"`
	Parent string             `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Start  time.Time          `json:"start"`
	DurNS  int64              `json:"duration_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.DurNS) }

// recorder collects spans from the client loops and the server-side
// handler wrappers. It is nil when tracing is off, and every method is a
// no-op on a nil recorder.
type recorder struct {
	mu    sync.Mutex
	spans []span
	index map[string]int // trace + "/" + name → position in spans
}

func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.index == nil {
		r.index = make(map[string]int)
	}
	r.index[s.Trace+"/"+s.Name] = len(r.spans)
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// find returns the latest span of one trace with the given name.
func (r *recorder) find(trace, name string) (span, bool) {
	if r == nil {
		return span{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.index[trace+"/"+name]
	if !ok {
		return span{}, false
	}
	return r.spans[i], true
}

// write stores every span as one JSON object per line.
func (r *recorder) write(path string) error {
	if r == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	return f.Close()
}

// randHex returns n random bytes in hex.
func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		panic(err)
	}
	return hex.EncodeToString(b)
}

// newTrace starts a trace: a fresh W3C trace id and the root span id.
func newTrace() (trace, root string) { return randHex(16), randHex(8) }

// traceparent renders the W3C trace-context header naming parent as the
// caller's span.
func traceparent(trace, parent string) string {
	return "00-" + trace + "-" + parent + "-01"
}

// parseTraceparent extracts the trace and parent span ids from a W3C
// traceparent header.
func parseTraceparent(h string) (trace, parent string, ok bool) {
	parts := strings.Split(h, "-")
	if len(parts) != 4 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return "", "", false
	}
	return parts[1], parts[2], true
}

// timed wraps an http.Handler so every request carrying a traceparent
// header records one span named name, parented to the caller's span. The
// wrapper rewrites the header so the next handler down parents to it.
// Requests without the header pass straight through.
func timed(name string, rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, parent, ok := parseTraceparent(r.Header.Get("traceparent"))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		id := randHex(8)
		r.Header.Set("traceparent", traceparent(trace, id))
		start := time.Now()
		next.ServeHTTP(w, r)
		rec.add(span{Trace: trace, ID: id, Parent: parent, Name: name, Start: start, DurNS: time.Since(start).Nanoseconds()})
	})
}
