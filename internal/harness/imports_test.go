package harness

import (
	gobuild "go/build"
	"strings"
	"testing"
)

// TestHarnessImportsSimulationOnly: the harness is the library under
// the service, the cluster and the store, so it imports only the
// simulation stack. A dependency on any of those layers, on their wire
// types or on the deleted trace package is an error.
func TestHarnessImportsSimulationOnly(t *testing.T) {
	pkg, err := gobuild.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		if imp == "dike/internal/serve" || strings.HasPrefix(imp, "dike/internal/serve/") ||
			imp == "dike/internal/cluster" || imp == "dike/internal/store" || imp == "dike/internal/trace" {
			t.Errorf("internal/harness imports %s", imp)
		}
	}
}
