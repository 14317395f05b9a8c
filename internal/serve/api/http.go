package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// DecodeJSON strictly decodes a request body into v: unknown fields are
// an error, so a typo'd request field fails loudly instead of silently
// running the default simulation, and so is anything but whitespace
// after the one JSON value.
func DecodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("bad request body: data after the JSON value")
	}
	return nil
}

// WriteError writes the uniform error body with the given status code.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, ErrorResponse{Error: err.Error(), Code: code})
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// CodeWriter wraps a ResponseWriter to capture the response status for
// metrics instrumentation.
type CodeWriter struct {
	http.ResponseWriter
	Code int
}

// NewCodeWriter wraps w, defaulting the recorded status to 200.
func NewCodeWriter(w http.ResponseWriter) *CodeWriter {
	return &CodeWriter{ResponseWriter: w, Code: http.StatusOK}
}

func (w *CodeWriter) WriteHeader(code int) {
	w.Code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach Flusher for NDJSON event
// streams through the instrumentation wrapper.
func (w *CodeWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
