package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"github.com/tapas-sim/tapas/internal/scenario"
)

// maxSpecBytes bounds a POSTed scenario spec; real specs are a few KB, so
// this only guards the daemon against accidental (or hostile) huge bodies.
const maxSpecBytes = 1 << 20

// Server is the HTTP face of a Scheduler: a JSON API for submitting
// campaigns, streaming their event logs as JSON lines, and inspecting the
// shared compile cache. Construct with NewServer and mount via Handler.
type Server struct {
	sched *Scheduler
	// BaseDir anchors relative workload.trace (and splice) paths in POSTed
	// specs; empty resolves against the daemon's working directory.
	BaseDir string
	mux     *http.ServeMux
}

// NewServer wraps a scheduler. baseDir anchors relative trace paths in
// POSTed specs ("" = the daemon's working directory).
func NewServer(sched *Scheduler, baseDir string) *Server {
	s := &Server{sched: sched, BaseDir: baseDir, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /campaigns", s.handleList)
	s.mux.HandleFunc("GET /campaigns/{id}", s.handleJob)
	s.mux.HandleFunc("GET /campaigns/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /campaigns/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /cachez", s.handleCachez)
	return s
}

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler { return s.mux }

// jobJSON is the API view of a Job.
type jobJSON struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Status   Status `json:"status"`
	Runs     int    `json:"runs"`
	Done     int    `json:"done"`
	Compiles int    `json:"compiles,omitempty"` // distinct scenario keys, as in Event
	Error    string `json:"error,omitempty"`
}

func jobView(j *Job) jobJSON {
	done, total, compiles := j.Progress()
	v := jobJSON{
		ID:       j.ID,
		Name:     j.Name,
		Status:   j.Status(),
		Runs:     total,
		Done:     done,
		Compiles: compiles,
	}
	if err := j.Err(); err != nil {
		v.Error = err.Error()
	}
	return v
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// handleSubmit admits a scenario spec: the body is the same JSON a committed
// spec file holds (plus an optional "scale" query parameter overriding the
// spec's). 201 with the job on success, 400 on an invalid spec, 429 when the
// queue is full, 503 while shutting down.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("spec larger than %d bytes", maxSpecBytes))
		return
	}
	spec, err := scenario.Parse(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if s.BaseDir != "" {
		spec.SetBaseDir(s.BaseDir)
	}
	// Submit refuses a scale outside [0, 1] (Spec.Campaign checks it).
	scale := 0.0
	if q := r.URL.Query().Get("scale"); q != "" {
		if scale, err = strconv.ParseFloat(q, 64); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid scale %q", q))
			return
		}
	}
	job, err := s.sched.Submit(spec, scale)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, jobView(job))
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.sched.Jobs()
	out := make([]jobJSON, len(jobs))
	for i, j := range jobs {
		out[i] = jobView(j)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.sched.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", r.PathValue("id")))
	}
	return j, ok
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, jobView(j))
}

// handleEvents streams the job's event log as JSON lines: everything logged
// so far immediately, then live appends until the job reaches a terminal
// state (the "done" event is always the last line) or the client leaves.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	i := 0
	for {
		evs, changed, terminal := j.EventsSince(i)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		i += len(evs)
		if flusher != nil && len(evs) > 0 {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// handleReport returns the finished campaign's rendered report verbatim —
// byte-identical to tapas-campaign's stdout for the same spec. 409 until the
// job is done.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if j.Status() != StatusDone {
		writeError(w, http.StatusConflict,
			fmt.Errorf("campaign %s is %s; the report exists once it is done", j.ID, j.Status()))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(j.Report())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleCachez snapshots the shared compile cache: the number of cold
// compilations performed (compiles) and hit/miss/eviction counters for its
// two levels, compiled scenarios (scenarios) and layouts (layouts).
func (s *Server) handleCachez(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.CacheStats())
}
