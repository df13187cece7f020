package service

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// fillReader is an endless stream of one byte, so an oversized body can
// be posted without materializing it.
type fillReader byte

func (f fillReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestSubmitBodyTooLarge: a JobSpec body one byte over the limit is a 413,
// and no job is queued.
func TestSubmitBodyTooLarge(t *testing.T) {
	svc := New(Config{QueueDepth: 2, Workers: 1, Obs: obs.New()})
	defer func() {
		svc.cancel() // workers never started; just unblock Close's queue drain
		svc.queue.Close()
	}()
	const head, tail = `{"trace_b64":"`, `"}`
	total := int64(maxJobSpecBytes + 1)
	body := io.MultiReader(
		strings.NewReader(head),
		io.LimitReader(fillReader('A'), total-int64(len(head)+len(tail))),
		strings.NewReader(tail),
	)
	req := httptest.NewRequest(http.MethodPost, APIPrefix+"/jobs", body)
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: %d %s, want 413", rec.Code, rec.Body)
	}
	if jobs := svc.Jobs(); len(jobs) != 0 {
		t.Errorf("oversized submit queued %d jobs", len(jobs))
	}
}

// FuzzJobSpec drives the untrusted half of submission — JSON decode,
// validate, withDefaults — with arbitrary bodies. It must never panic;
// a spec that decodes and validates must come out of withDefaults with
// every default resolved, and withDefaults must be idempotent.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{"dsl":"reno","trace_path":"/x.pcap"}`))
	f.Add([]byte(`{"dsl":"cubic","metric":"frechet","budget":10,"min_segment":4,"seed":-3,"tenant":"a","trace_b64":"AAAA","name":"n"}`))
	f.Add([]byte(`{"budget":-1,"trace_path":"p"}`))
	f.Add([]byte(`{"trace_b64":"x","trace_path":"y"}`))
	f.Add([]byte(`{"unknown":1}`))
	f.Add([]byte(`{"seed":1e400}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeJobSpec(bytes.NewReader(data))
		if err != nil || spec.validate() != nil {
			return
		}
		d := spec.withDefaults()
		if d.Metric == "" || d.Budget == 0 || d.MinSegment == 0 || d.Seed == 0 || d.Tenant == "" {
			t.Fatalf("defaults unresolved: %+v", d)
		}
		if d.withDefaults() != d {
			t.Fatalf("withDefaults not idempotent: %+v", d)
		}
		if d.validate() != nil {
			t.Fatalf("defaults broke a valid spec: %+v", d)
		}
	})
}
