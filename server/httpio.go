package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// maxBodyBytes bounds request bodies (inline sequence payloads included) so
// a single oversized POST cannot exhaust server memory.
const maxBodyBytes = 64 << 20

// decodeJSON strictly decodes a size-capped request body into v.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// writeJSON sends v as one compact JSON document (json.Encoder's output: no
// indentation, one trailing newline), like every body the service writes;
// pipe it through jq to read it.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // nothing to do about a broken client pipe
}

// ErrorBody is the uniform error envelope of every non-2xx JSON response:
// {"error": {"code": "...", "message": "...", "retryable": bool}}. Code is a
// stable snake_case identifier clients can switch on (messages are for
// humans and may change); Retryable marks refusals that a backoff-and-retry
// loop should retry against this same server (overload, drain — these also
// carry a Retry-After header).
type ErrorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// errorCode derives the envelope's stable code: the sentinel in the error
// chain when one identifies the refusal more precisely than the status.
func errorCode(status int, err error) string {
	switch {
	case errors.Is(err, errShutdown):
		return "shutting_down"
	case errors.Is(err, errOverloaded):
		return "overloaded"
	case errors.Is(err, errJobMissing):
		return "job_not_found"
	}
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusTooManyRequests:
		return "overloaded"
	case http.StatusServiceUnavailable:
		return "not_ready"
	}
	return "internal"
}

// writeError is the single chokepoint every handler's non-2xx response goes
// through (the apierr analyzer enforces this), so the envelope shape cannot
// drift between endpoints.
func writeError(w http.ResponseWriter, status int, err error) {
	// Backoffable refusals (overload, drain) advertise when to come back:
	// well-behaved clients and load balancers honor Retry-After instead of
	// hammering a server that already said no.
	retryable := status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
	if retryable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]ErrorBody{"error": {
		Code:      errorCode(status, err),
		Message:   err.Error(),
		Retryable: retryable,
	}})
}

// statusFor maps the manager/registry sentinel errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, errBadSpec):
		return http.StatusBadRequest
	case errors.Is(err, errConflict):
		return http.StatusConflict
	case errors.Is(err, errShutdown):
		return http.StatusServiceUnavailable
	case errors.Is(err, errOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, errJobMissing), errors.Is(err, errDBMissing):
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}
