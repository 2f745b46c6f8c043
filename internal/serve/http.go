package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// retryAfterSeconds is the Retry-After hint attached to 429 responses.
// The queue drains at job granularity, so "soon" is the honest answer;
// clients should treat it as a backoff floor, not a promise.
const retryAfterSeconds = 1

// maxSpecBytes bounds a POST /jobs body. A job spec is a few hundred
// bytes of JSON; the limit leaves three orders of magnitude of headroom
// while keeping a hostile or runaway client from making the decoder
// buffer an unbounded body. Larger bodies get 413.
const maxSpecBytes = 4 << 20

// Handler returns the job API:
//
//	POST   /jobs             submit a job (Spec JSON) -> 202 + View
//	GET    /jobs             list all jobs            -> 200 + []View
//	GET    /jobs/{id}        one job, spec + result   -> 200 + View
//	DELETE /jobs/{id}        cancel                   -> 200 + View
//	GET    /jobs/{id}/events live SSE progress stream
//
// Error mapping: invalid specs are 400, unknown IDs 404, cancelling a
// finished job 409, a spec body over maxSpecBytes 413, a full admission
// queue 429 with Retry-After, and a draining service 503.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // nothing useful to do with a failed write to a gone client
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		status := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	v, err := s.SubmitTraced(spec, r.Header.Get("traceparent"))
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, v)
	}
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func jobID(r *http.Request) (uint64, error) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil || id == 0 {
		return 0, fmt.Errorf("invalid job id %q", r.PathValue("id"))
	}
	return id, nil
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	v, ok := s.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	v, err := s.Cancel(id)
	switch {
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrTerminal):
		writeError(w, http.StatusConflict, err)
	default:
		writeJSON(w, http.StatusOK, v)
	}
}

// handleEvents streams a job's updates as Server-Sent Events: one
// `event: update` per state or progress change, ending after the
// terminal event (or when the client goes away). Slow clients may miss
// intermediate progress events — the channel drops rather than blocks —
// but never the terminal one (see notifyLocked).
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ch, initial, ok := s.subscribe(id)
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	defer s.unsubscribe(id, ch)
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(v View) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: update\ndata: %s\n\n", data); err != nil {
			return false
		}
		if canFlush {
			fl.Flush()
		}
		return true
	}
	if !send(initial) || initial.State.Terminal() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case v, open := <-ch:
			if !open {
				return
			}
			if !send(v) || v.State.Terminal() {
				return
			}
		}
	}
}

// subscribe registers a live-update channel for a job and returns it
// with the job's current view. Progress events are dropped (not queued
// unboundedly) for slow consumers; the terminal event is never dropped,
// because notifyLocked makes room for it (see there).
func (s *Service) subscribe(id uint64) (chan View, View, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, View{}, false
	}
	ch := make(chan View, 16)
	j.subs[ch] = struct{}{}
	return ch, s.viewLocked(j, false, false), true
}

func (s *Service) unsubscribe(id uint64, ch chan View) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		delete(j.subs, ch)
	}
}

// notifyLocked fans a job's fresh view out to SSE subscribers and the
// OnUpdate hook. Callers hold s.mu; OnUpdate therefore must not call
// back into the Service (track state locally instead — see
// cmd/hbmserved for the pattern).
func (s *Service) notifyLocked(j *job) {
	if len(j.subs) == 0 && s.opts.OnUpdate == nil {
		return
	}
	v := s.viewLocked(j, false, false)
	for ch := range j.subs {
		select {
		case ch <- v:
			continue
		default:
		}
		if !v.State.Terminal() {
			continue // slow subscriber: drop this progress update, not the service
		}
		// The terminal view must land, or the stream never ends: discard
		// the oldest queued view to make room. The send cannot block —
		// only notifyLocked sends, under s.mu, and the reader only
		// drains.
		select {
		case <-ch:
		default:
		}
		ch <- v
	}
	if s.opts.OnUpdate != nil {
		s.opts.OnUpdate(v)
	}
}
