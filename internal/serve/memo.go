package serve

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"

	"dike/internal/serve/api"
)

// maxMemoEntries bounds a RunMemo. A full memo is cleared and refills
// from the requests that follow, so a daemon that sees more distinct
// bodies than this pays one BuildRunSpec per body per refill, never
// unbounded memory.
const maxMemoEntries = 4096

// RunMemo maps POST /v1/runs request bodies a daemon has already
// resolved to their run digests, so a repeated submission goes straight
// to singleflight, the result cache and the store without resolving its
// spec again. It keys on the SHA-256 of the decoded request re-encoded
// as JSON, the bytes the job also stores beside its result.
//
// The memo is exact: BuildRunSpec reads only the decoded request, and
// two decoded requests that encode to the same bytes resolve to the
// same spec (FuzzBuildRunSpec checks both). Only successful resolutions
// are kept, so a bad body is rejected, and its error reported, every
// time. Each Server and Coordinator holds its own.
type RunMemo struct {
	mu      sync.Mutex
	digests map[[sha256.Size]byte]string
}

// NewRunMemo returns an empty memo.
func NewRunMemo() *RunMemo {
	return &RunMemo{digests: make(map[[sha256.Size]byte]string)}
}

// Resolve returns req's JSON encoding and its run digest: from the memo
// when this encoding was resolved before, from BuildRunSpec otherwise.
func (m *RunMemo) Resolve(req api.RunRequest) (body []byte, digest string, err error) {
	body, err = json.Marshal(req)
	if err != nil {
		return nil, "", fmt.Errorf("serve: encode run request: %w", err)
	}
	key := sha256.Sum256(body)
	m.mu.Lock()
	digest, ok := m.digests[key]
	m.mu.Unlock()
	if ok {
		return body, digest, nil
	}
	if _, digest, err = BuildRunSpec(req); err != nil {
		return nil, "", err
	}
	m.mu.Lock()
	if len(m.digests) >= maxMemoEntries {
		clear(m.digests)
	}
	m.digests[key] = digest
	m.mu.Unlock()
	return body, digest, nil
}
