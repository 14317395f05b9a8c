package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// DecodeJSON strictly decodes a request body into v with Decode. It
// reads at most MaxRequestBytes+1 bytes; a longer body is an error that
// wraps *http.MaxBytesError.
func DecodeJSON(r *http.Request, v any) error {
	if err := Decode(http.MaxBytesReader(nil, r.Body, MaxRequestBytes), v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// Decode strictly decodes one JSON value from r into v: unknown fields
// are an error, so a typo'd request field fails loudly instead of
// silently running the default simulation, and so is anything but
// whitespace after the value. The daemons decode every POST body and
// its raw config fields through it, and dikesim -request its file.
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if errors.As(err, new(*http.MaxBytesError)) {
			return err
		}
		return errors.New("data after the JSON value")
	}
	return nil
}

// ReadRequest decodes r's body into v with DecodeJSON. On failure it
// writes the error, 413 for a body over MaxRequestBytes and 400 for any
// other, and returns false.
func ReadRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	err := DecodeJSON(r, v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	if errors.As(err, new(*http.MaxBytesError)) {
		code = http.StatusRequestEntityTooLarge
	}
	WriteError(w, code, err)
	return false
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
