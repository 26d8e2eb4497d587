package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// routes wires the REST surface on a Go 1.22 method+pattern mux:
//
//	POST   /jobs             submit a sweep (202, Location header)
//	GET    /jobs             list every job's status, submission order
//	GET    /jobs/{id}        one job's status (results when done)
//	GET    /jobs/{id}/stream SSE progress stream with full replay
//	DELETE /jobs/{id}        request cancellation
//	GET    /healthz          liveness (503 while draining)
//	GET    /metrics          Prometheus text exposition
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Encoding a Status/apiError cannot fail, and the client is gone if the
	// write does; nothing useful is left to do with the error.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, apiError{Error: msg})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, cfgs, err := DecodeJobSpec(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	st, err := s.submit(spec, cfgs)
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterSeconds))
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("job queue is full (%d jobs active)", s.cfg.QueueDepth))
		return
	case errors.Is(err, errClosing):
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Location", "/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statuses())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if !s.cancelJob(j) {
		writeError(w, http.StatusConflict, "job already finished")
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// handleStream serves the job's event history followed by live events as
// Server-Sent Events, ending at the job's terminal event (or when the
// client goes away or the server closes). No goroutines: the handler
// blocks on the subscriber channel and the request context directly.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	replay, live, unsubscribe := j.subscribe()
	defer unsubscribe()
	lastSeq := -1
	for _, ev := range replay {
		writeEvent(w, ev)
		lastSeq = ev.Seq
	}
	flusher.Flush()
	if live == nil {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-live:
			if !ok {
				return
			}
			// A subscriber registered mid-publish can see one event both in
			// the replay and on the channel; the Seq guard drops the dup.
			if ev.Seq <= lastSeq {
				continue
			}
			lastSeq = ev.Seq
			writeEvent(w, ev)
			flusher.Flush()
			if ev.terminal() {
				return
			}
		}
	}
}

// writeEvent emits one SSE frame: id, event, and a JSON data line.
func writeEvent(w http.ResponseWriter, ev Event) {
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closing := s.closing
	jobs := len(s.order)
	s.mu.Unlock()
	if closing {
		writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
		Jobs   int    `json:"jobs"`
	}{Status: "ok", Jobs: jobs})
}
