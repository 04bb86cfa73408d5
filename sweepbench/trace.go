package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/fabric"
)

// Instrumentation for the traced run. Everything here wraps the program's
// public surfaces from outside: a CPU profile split by the pprof "phase"
// label seu already sets, runtime/metrics deltas, a timing BlobStore, and a
// timing wrapper around the fabric coordinator's HTTP handler.

// phaseCPU splits a gzipped CPU profile's sampled CPU time by the value of
// its "phase" label ("" = unlabelled). Only the fields needed are decoded:
// Profile.sample (2), Profile.string_table (6), Sample.value (2),
// Sample.label (3), Label.key (1) and Label.str (2).
func phaseCPU(profile []byte) (map[string]time.Duration, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		cpu       int64
		labelKeys []int64
		labelStrs []int64
	}
	var samples []sample
	var strs []string
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 6:
			strs = append(strs, string(b))
		case 2:
			var s sample
			var values []int64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 2:
					if b == nil {
						values = append(values, int64(v))
						return nil
					}
					for len(b) > 0 {
						x, n := binary.Uvarint(b)
						if n <= 0 {
							return errors.New("bad packed value")
						}
						values = append(values, int64(x))
						b = b[n:]
					}
				case 3:
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						switch f {
						case 1:
							s.labelKeys = append(s.labelKeys, int64(v))
						case 2:
							s.labelStrs = append(s.labelStrs, int64(v))
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			// A Go CPU profile's sample types are [samples/count, cpu/nanoseconds].
			if len(values) != 2 {
				return fmt.Errorf("cpu profile sample has %d values, want 2", len(values))
			}
			s.cpu = values[1]
			samples = append(samples, s)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make(map[string]time.Duration)
	for _, s := range samples {
		phase := ""
		for i := range s.labelKeys {
			if str(s.labelKeys[i]) == "phase" && i < len(s.labelStrs) {
				phase = str(s.labelStrs[i])
			}
		}
		out[phase] += time.Duration(s.cpu)
	}
	return out, nil
}

// pbFields walks one protobuf message, calling fn with each field's number
// and either its varint value (b == nil) or its length-delimited bytes.
func pbFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// runtimeSnap is a runtime/metrics reading taken around a timed call.
type runtimeSnap struct {
	allocBytes uint64
	gcCPU      float64 // seconds
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readRuntime() runtimeSnap {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return runtimeSnap{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64()}
}

// allocMB and gcSeconds are the deltas from an earlier snapshot.
func (s runtimeSnap) allocMB(end runtimeSnap) float64 {
	return float64(end.allocBytes-s.allocBytes) / (1 << 20)
}

func (s runtimeSnap) gcSeconds(end runtimeSnap) float64 { return end.gcCPU - s.gcCPU }

// liveHeapMB collects and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// timedStore is a BlobStore that records the latency of every Put and Get
// and the bytes Put. List and Delete pass through untimed.
type timedStore struct {
	fabric.BlobStore
	mu       sync.Mutex
	putMs    []float64
	getMs    []float64
	putBytes int64
}

func (s *timedStore) Put(b []byte) (string, error) {
	t0 := time.Now()
	key, err := s.BlobStore.Put(b)
	ms := 1e3 * since(t0, time.Now())
	s.mu.Lock()
	s.putMs = append(s.putMs, ms)
	s.putBytes += int64(len(b))
	s.mu.Unlock()
	return key, err
}

func (s *timedStore) Get(key string) ([]byte, error) {
	t0 := time.Now()
	b, err := s.BlobStore.Get(key)
	ms := 1e3 * since(t0, time.Now())
	s.mu.Lock()
	s.getMs = append(s.getMs, ms)
	s.mu.Unlock()
	return b, err
}

// stats returns copies of the recorded latencies and the bytes Put.
func (s *timedStore) stats() (putMs, getMs []float64, putBytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.putMs...), append([]float64(nil), s.getMs...), s.putBytes
}

// fabricTap wraps the coordinator's HTTP handler. It always signals each
// worker registration (so set-up can wait for both workers without
// polling); with timing on it also records per-route latency, empty
// (idle-poll) lease replies, the first issued lease, and worker-reported
// chunk errors.
type fabricTap struct {
	inner      http.Handler
	timing     bool
	registered chan struct{} // one send per registration; buffered to the worker count

	mu           sync.Mutex
	registerMs   []float64
	leaseMs      []float64
	completeMs   []float64
	leaseEmpty   int
	firstLease   time.Time
	workerErrors int
}

const (
	routeRegister = "/api/v1/fabric/register"
	routeLease    = "/api/v1/fabric/lease"
	routeComplete = "/api/v1/fabric/complete"
)

func (t *fabricTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	if !t.timing {
		t.inner.ServeHTTP(w, r)
		if path == routeRegister {
			t.notifyRegistered()
		}
		return
	}
	var workerErr bool
	if path == routeComplete {
		body, err := io.ReadAll(r.Body)
		if err == nil {
			var req fabric.CompleteRequest
			workerErr = json.Unmarshal(body, &req) == nil && req.Error != ""
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	rec := &bodyRecorder{ResponseWriter: w, keep: path == routeLease}
	t0 := time.Now()
	t.inner.ServeHTTP(rec, r)
	end := time.Now()
	ms := 1e3 * since(t0, end)
	t.mu.Lock()
	switch path {
	case routeRegister:
		t.registerMs = append(t.registerMs, ms)
	case routeLease:
		t.leaseMs = append(t.leaseMs, ms)
		var reply fabric.LeaseReply
		if json.Unmarshal(rec.body.Bytes(), &reply) == nil {
			if reply.Lease == nil {
				t.leaseEmpty++
			} else if t.firstLease.IsZero() {
				t.firstLease = end
			}
		}
	case routeComplete:
		t.completeMs = append(t.completeMs, ms)
		if workerErr {
			t.workerErrors++
		}
	}
	t.mu.Unlock()
	if path == routeRegister {
		t.notifyRegistered()
	}
}

func (t *fabricTap) notifyRegistered() {
	select {
	case t.registered <- struct{}{}:
	default: // a re-registration beyond the buffered count; nobody waits for it
	}
}

// bodyRecorder keeps a copy of the response body when keep is set.
type bodyRecorder struct {
	http.ResponseWriter
	keep bool
	body bytes.Buffer
}

func (r *bodyRecorder) Write(b []byte) (int, error) {
	if r.keep {
		r.body.Write(b)
	}
	return r.ResponseWriter.Write(b)
}

// since is the elapsed seconds between two monotonic readings.
func since(t0, t1 time.Time) float64 { return t1.Sub(t0).Seconds() }
