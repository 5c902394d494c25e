package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"repro/internal/workload"
)

// Handler returns the smid HTTP API:
//
//	GET  /healthz              liveness probe
//	GET  /v1/workloads         registered workloads
//	GET  /v1/stats             service + route-cache counters
//	POST /v1/jobs              submit a JobSpec -> 202 + JobStatus
//	GET  /v1/jobs              list the retained jobs (every queued
//	                           and running one, and the most recently
//	                           finished ones; see keepFinished)
//	GET  /v1/jobs/{id}         job status, spec, result
//	GET  /v1/jobs/{id}/events  NDJSON event stream (follows until the
//	                           job is terminal; ?follow=0 dumps and
//	                           returns)
//	POST /v1/jobs/{id}/replay  re-run a completed job -> 202 + JobStatus
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/workloads", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, availableWorkloads())
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeError(w, errf(InvalidSpec, "bad JSON: %v", err))
			return
		}
		job, err := s.Submit(spec)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, job.Status())
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := s.Jobs()
		out := make([]JobStatus, 0, len(jobs))
		for _, j := range jobs {
			out = append(out, j.Status())
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, err := s.Job(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, job.Status())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		job, err := s.Job(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		s.streamEvents(w, r, job)
	})
	mux.HandleFunc("POST /v1/jobs/{id}/replay", func(w http.ResponseWriter, r *http.Request) {
		job, err := s.Replay(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, job.Status())
	})
	return mux
}

// streamEvents writes the job's event log as NDJSON and, unless
// ?follow=0, keeps following new events until the job reaches a
// terminal state or the client goes away.
func (s *Service) streamEvents(w http.ResponseWriter, r *http.Request, job *Job) {
	follow := true
	if v := r.URL.Query().Get("follow"); v != "" {
		follow, _ = strconv.ParseBool(v)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	seq := 0
	for {
		events, changed, terminal := job.EventsSince(seq)
		for _, ev := range events {
			if err := enc.Encode(ev); err != nil {
				return
			}
			seq = ev.Seq + 1
		}
		if len(events) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal || !follow {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// WorkloadInfo is the catalog entry served by GET /v1/workloads.
type WorkloadInfo struct {
	Name           string `json:"name"`
	Description    string `json:"description"`
	MinRanks       int    `json:"min_ranks"`
	DefaultSize    int    `json:"default_size"`
	DefaultSteps   int    `json:"default_steps,omitempty"`
	SupportsFaults bool   `json:"supports_faults"`
	SupportsRoutes bool   `json:"supports_routes"`
}

func availableWorkloads() []WorkloadInfo {
	all := workload.All()
	out := make([]WorkloadInfo, 0, len(all))
	for _, w := range all {
		out = append(out, WorkloadInfo{
			Name: w.Name, Description: w.Description, MinRanks: w.MinRanks,
			DefaultSize: w.DefaultSize, DefaultSteps: w.DefaultSteps,
			SupportsFaults: w.SupportsFaults, SupportsRoutes: w.SupportsRoutes,
		})
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps typed service errors onto transport status codes and
// a machine-readable body.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	kind := "internal"
	var se *Error
	if errors.As(err, &se) {
		status = se.HTTPStatus()
		kind = se.Kind.String()
	}
	writeJSON(w, status, map[string]string{"error": err.Error(), "kind": kind})
}
