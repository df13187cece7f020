package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/obs"
)

// TenantHeader lets a client set its fairness key without touching the
// spec body; a non-empty spec.Tenant wins.
const TenantHeader = "X-Abagnale-Tenant"

// maxJobSpecBytes bounds a POST /api/v1/jobs body. An uploaded pcap rides
// base64-encoded inside the JobSpec; a 30 s trace is about 17 MB encoded,
// so 64 MiB leaves room without letting one request exhaust memory.
const maxJobSpecBytes = 64 << 20

// decodeJobSpec reads one JobSpec, rejecting unknown fields.
func decodeJobSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// Handler serves the versioned job API:
//
//	GET  /api/v1/            API index (versions, endpoints)
//	POST /api/v1/jobs        submit a JobSpec → 202 JobStatus | 400 | 413 | 429
//	GET  /api/v1/jobs        list jobs (JobStatus array, newest first)
//	GET  /api/v1/jobs/{id}   one job's JobStatus | 404
//	GET  /api/v1/jobs/{id}/result
//	                         finished job's JobResult | 202 while
//	                         queued/running | 500 when failed | 404
//	POST /api/v1/snapshot    persist the corpus pool now → {"saved":true}
//
// The handler expects to be mounted at APIPrefix on the observability
// mux (see Mounts), which also carries /runs and /events for streaming
// progress of the same job IDs.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(APIPrefix+"/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != APIPrefix+"/" && req.URL.Path != APIPrefix {
			http.NotFound(w, req)
			return
		}
		writeJSON(w, http.StatusOK, APIIndex{
			Version: APIVersion,
			Endpoints: map[string]string{
				"POST " + APIPrefix + "/jobs":              "submit a job (JobSpec body)",
				"GET " + APIPrefix + "/jobs":               "list jobs",
				"GET " + APIPrefix + "/jobs/{id}":          "job status",
				"GET " + APIPrefix + "/jobs/{id}/result":   "job result (202 until done)",
				"POST " + APIPrefix + "/snapshot":          "persist corpus snapshots",
				"GET /runs, /runs/{id}, /events, /metrics": "live progress (observability mux)",
			},
		})
	})
	mux.HandleFunc(APIPrefix+"/jobs", s.handleJobs)
	mux.HandleFunc(APIPrefix+"/jobs/", s.handleJob)
	mux.HandleFunc(APIPrefix+"/snapshot", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		if err := s.SaveSnapshots(); err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"saved": true})
	})
	return mux
}

// handleJobs is POST (submit) and GET (list) on the jobs collection.
func (s *Service) handleJobs(w http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.Jobs())
	case http.MethodPost:
		spec, err := decodeJobSpec(http.MaxBytesReader(w, req.Body, maxJobSpecBytes))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				httpError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("JobSpec body exceeds %d bytes", int64(maxJobSpecBytes)))
				return
			}
			httpError(w, http.StatusBadRequest, "bad JobSpec: "+err.Error())
			return
		}
		if spec.Tenant == "" {
			spec.Tenant = req.Header.Get(TenantHeader)
		}
		st, err := s.Submit(spec)
		switch {
		case errors.Is(err, ErrQueueFull):
			// Explicit backpressure: the queue is a fixed-size admission
			// buffer, not an elastic backlog. One second is the polling
			// granularity, not a promise of capacity.
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, err.Error())
		case err != nil:
			httpError(w, http.StatusBadRequest, err.Error())
		default:
			writeJSON(w, http.StatusAccepted, st)
		}
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or POST")
	}
}

// handleJob is GET /jobs/{id} and GET /jobs/{id}/result.
func (s *Service) handleJob(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	rest := strings.TrimPrefix(req.URL.Path, APIPrefix+"/jobs/")
	id, wantResult := rest, false
	if cut, ok := strings.CutSuffix(rest, "/result"); ok {
		id, wantResult = cut, true
	}
	st, ok := s.Status(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	if !wantResult {
		writeJSON(w, http.StatusOK, st)
		return
	}
	switch st.State {
	case JobDone:
		res, _ := s.Result(id)
		writeJSON(w, http.StatusOK, res)
	case JobFailed:
		httpError(w, http.StatusInternalServerError, fmt.Sprintf("job %s failed: %s", id, st.Error))
	default:
		// Not finished yet: 202 with the status body, so one poll loop
		// serves both phases.
		writeJSON(w, http.StatusAccepted, st)
	}
}

// Mounts adapts the service for the observability mux: one subtree under
// APIPrefix, passed to obs.Serve / Registry.Handler.
func (s *Service) Mounts() []obs.Mount {
	return []obs.Mount{{Pattern: APIPrefix + "/", Handler: s.Handler()}}
}

// writeJSON renders v as indented JSON with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// httpError renders a JSON error body.
func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
