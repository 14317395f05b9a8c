package workload

import "fmt"

// ThreadsPerBenchmark matches the paper: every benchmark runs 8 OpenMP
// threads, so a 4-application workload plus KMEANS fills all 40 logical
// cores of the Table I machine.
const ThreadsPerBenchmark = 8

// MaxThreads bounds the threads one workload may hold: 16× the largest
// workload the repository runs (1,024 threads on the 1,024-lane scale
// machine). A request that names a thread count is refused above it
// before anything is allocated per thread.
const MaxThreads = 16384

// table2 lists the four main applications of WL1–WL16 (Table II). Two
// cells are illegible in the source text; we fill them consistently with
// the stated 2M/2C balance and record the substitution in DESIGN.md:
// WL2's missing compute app → hotspot, WL5's → heartwall.
var table2 = [][4]string{
	// B: balanced (2 M / 2 C)
	{"jacobi", "needle", "leukocyte", "lavaMD"},         // WL1
	{"jacobi", "streamcluster", "hotspot", "srad"},      // WL2 (hotspot substituted)
	{"streamcluster", "needle", "hotspot", "lavaMD"},    // WL3
	{"jacobi", "streamcluster", "lavaMD", "heartwall"},  // WL4
	{"streamcluster", "needle", "heartwall", "hotspot"}, // WL5 (heartwall substituted)
	{"jacobi", "needle", "heartwall", "srad"},           // WL6
	// UC: unbalanced compute (1 M / 3 C)
	{"jacobi", "lavaMD", "leukocyte", "srad"},           // WL7
	{"needle", "hotspot", "leukocyte", "heartwall"},     // WL8
	{"streamcluster", "heartwall", "leukocyte", "srad"}, // WL9
	{"jacobi", "hotspot", "leukocyte", "heartwall"},     // WL10
	{"needle", "lavaMD", "hotspot", "srad"},             // WL11
	// UM: unbalanced memory (3 M / 1 C)
	{"jacobi", "needle", "streamcluster", "lavaMD"},      // WL12
	{"jacobi", "needle", "stream_omp", "leukocyte"},      // WL13
	{"streamcluster", "needle", "stream_omp", "lavaMD"},  // WL14
	{"jacobi", "streamcluster", "stream_omp", "hotspot"}, // WL15
	{"jacobi", "needle", "streamcluster", "srad"},        // WL16
}

// NumWorkloads is the number of Table II workloads.
const NumWorkloads = 16

// Table2 builds workload WLn (1-based, 1..16): its four main benchmarks
// with 8 threads each, plus the per-workload KMEANS instance ("each
// workload includes the KMEANS benchmark with 8 threads which further
// increases contention").
func Table2(n int) (*Workload, error) {
	if n < 1 || n > NumWorkloads {
		return nil, fmt.Errorf("workload: WL%d out of range [1,%d]", n, NumWorkloads)
	}
	catalogue := Profiles()
	w := &Workload{Name: fmt.Sprintf("wl%d", n)}
	for _, app := range table2[n-1] {
		p, ok := catalogue[app]
		if !ok {
			return nil, fmt.Errorf("workload: WL%d references unknown app %q", n, app)
		}
		w.Benchmarks = append(w.Benchmarks, Benchmark{Profile: p, Threads: ThreadsPerBenchmark})
	}
	w.Benchmarks = append(w.Benchmarks, Benchmark{
		Profile: catalogue["kmeans"],
		Threads: ThreadsPerBenchmark,
		Extra:   true,
	})
	return w, nil
}

// MustTable2 is Table2 for in-range n; it panics on error.
func MustTable2(n int) *Workload {
	w, err := Table2(n)
	if err != nil {
		panic(err)
	}
	return w
}

// AllTable2 returns WL1..WL16 in order.
func AllTable2() []*Workload {
	out := make([]*Workload, NumWorkloads)
	for i := range out {
		out[i] = MustTable2(i + 1)
	}
	return out
}

// Table2Apps returns the main application names of WLn, for reports.
func Table2Apps(n int) ([4]string, error) {
	if n < 1 || n > NumWorkloads {
		return [4]string{}, fmt.Errorf("workload: WL%d out of range [1,%d]", n, NumWorkloads)
	}
	return table2[n-1], nil
}
