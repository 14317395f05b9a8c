package core

import (
	"errors"
	"math"
	"math/rand"

	"dike/internal/counters"
	"dike/internal/platform"
	"dike/internal/sim"
)

// scriptPlatform is a platform.Platform that serves prebuilt quanta: a
// test sets q, and Alive, CoreOf and Sample answer from quanta[q].
// Nothing is built on a call, so whatever a caller allocates is its own.
// Alive returns the scripted slice itself, in its scripted (unsorted)
// order; callers must not modify it.
type scriptPlatform struct {
	topo     *platform.Topology
	capacity float64
	threads  []platform.ThreadID
	procs    map[platform.ThreadID]int
	quanta   []scriptQuantum
	q        int
}

// scriptQuantum is one quantum of a script.
type scriptQuantum struct {
	alive  []platform.ThreadID
	cores  map[platform.ThreadID]platform.CoreID
	sample *platform.Sample
}

var (
	errScriptUnknown  = errors.New("script: thread not alive")
	errScriptReadOnly = errors.New("script: affinity is read-only")
)

func (p *scriptPlatform) Topology() *platform.Topology { return p.topo }
func (p *scriptPlatform) MemCapacity() float64         { return p.capacity }
func (p *scriptPlatform) Threads() []platform.ThreadID { return p.threads }
func (p *scriptPlatform) Alive() []platform.ThreadID   { return p.quanta[p.q].alive }
func (p *scriptPlatform) Sample(sim.Time) *platform.Sample {
	return p.quanta[p.q].sample
}

func (p *scriptPlatform) CoreOf(id platform.ThreadID) (platform.CoreID, error) {
	c, ok := p.quanta[p.q].cores[id]
	if !ok {
		return 0, errScriptUnknown
	}
	return c, nil
}

func (p *scriptPlatform) ProcessOf(id platform.ThreadID) (int, error) {
	proc, ok := p.procs[id]
	if !ok {
		return 0, errScriptUnknown
	}
	return proc, nil
}

func (p *scriptPlatform) Place(platform.ThreadID, platform.CoreID) error { return errScriptReadOnly }
func (p *scriptPlatform) Migrate(platform.ThreadID, platform.CoreID, sim.Time) error {
	return errScriptReadOnly
}
func (p *scriptPlatform) Swap(platform.ThreadID, platform.ThreadID, sim.Time) error {
	return errScriptReadOnly
}

// scriptConfig shapes a generated script.
type scriptConfig struct {
	cores, threads, procs, quanta int
	// faults adds NaN, ±Inf, negative and over-capacity readings,
	// dropped samples (one thread's for longer than hold-last-good
	// lasts), stalled threads and zero-length quanta.
	faults bool
	// churn makes threads arrive and leave between quanta, one of them
	// leaving and coming back.
	churn bool
}

// scriptProcIDs are the process ids a script draws from: unsorted,
// non-contiguous, one negative.
var scriptProcIDs = []int{40, -3, 7, 1000, 2, 41, 100, 11}

// newScript generates a seeded script. Thread ids are non-contiguous and
// ascend from a negative one; siblings are mostly adjacent in id order.
// Processes scriptProcIDs[0] and [1] mirror each other: equal thread
// counts and lifetimes, no faults, and each rate the partner's plus an
// offset around baselineTie, so their demand baselines land on both
// sides of the tie threshold. Siblings often share a retired-instruction
// count.
func newScript(seed int64, cfg scriptConfig) *scriptPlatform {
	rng := rand.New(rand.NewSource(seed))
	cores := make([]platform.Core, cfg.cores)
	for c := range cores {
		kind, speed := platform.FastCore, 2.0
		if c >= cfg.cores/2 {
			kind, speed = platform.SlowCore, 1.0
		}
		cores[c] = platform.Core{ID: platform.CoreID(c), Kind: kind, Speed: speed, Physical: c / 2}
	}
	topo, err := platform.NewTopologyNamed(cores, nil)
	if err != nil {
		panic(err)
	}
	p := &scriptPlatform{topo: topo, capacity: 50, procs: map[platform.ThreadID]int{}}

	type thread struct {
		id    platform.ThreadID
		proc  int // index into scriptProcIDs
		rank  int // index among its process's threads
		spans [][2]int
		core  platform.CoreID
		instr float64
	}
	ths := make([]*thread, cfg.threads)
	id := platform.ThreadID(-5)
	perProc := make([]int, cfg.procs)
	for k := range ths {
		proc := k * cfg.procs / cfg.threads
		if proc > 1 && rng.Float64() < 0.2 {
			proc = 2 + rng.Intn(cfg.procs-2) // interleave non-mirror siblings
		}
		ths[k] = &thread{id: id, proc: proc, rank: perProc[proc], spans: [][2]int{{0, cfg.quanta}},
			core: platform.CoreID(rng.Intn(cfg.cores))}
		perProc[proc]++
		p.threads = append(p.threads, id)
		p.procs[id] = scriptProcIDs[proc]
		id += platform.ThreadID(1 + rng.Intn(4))
	}
	if perProc[0] != perProc[1] {
		panic("script: mirror processes differ in size")
	}
	if cfg.churn {
		for _, th := range ths {
			if th.proc < 2 {
				continue
			}
			switch r := rng.Float64(); {
			case r < 0.25:
				th.spans[0][0] = 1 + rng.Intn(cfg.quanta/3)
			case r < 0.5:
				th.spans[0][1] = 1 + rng.Intn(cfg.quanta-1)
			}
		}
		// One thread leaves and comes back.
		back := ths[len(ths)-1]
		back.spans = [][2]int{{0, cfg.quanta / 3}, {cfg.quanta / 2, cfg.quanta}}
	}
	alive := func(th *thread, q int) bool {
		for _, s := range th.spans {
			if q >= s[0] && q < s[1] {
				return true
			}
		}
		return false
	}

	procRate := make([]float64, cfg.procs)
	missRatio := make([]float64, cfg.procs)
	for i := range procRate {
		procRate[i] = []float64{0.3, 1.5, 3, 6, 12}[rng.Intn(5)]
		missRatio[i] = 0.03
		if procRate[i] > 1 {
			missRatio[i] = 0.3
		}
	}
	procRate[1], missRatio[1] = procRate[0], missRatio[0]
	tieOffsets := []float64{0, 4e-10, -4e-10, 1.5e-9, -1.5e-9, 3e-9, -3e-9}

	for q := 0; q < cfg.quanta; q++ {
		interval := 500.0
		if q == 0 || (cfg.faults && rng.Float64() < 0.05) {
			interval = 0
		}
		sq := scriptQuantum{
			cores: map[platform.ThreadID]platform.CoreID{},
			sample: &platform.Sample{
				Interval: interval,
				Threads:  map[platform.ThreadID]counters.ThreadDelta{},
				Cores:    make([]counters.CoreDelta, cfg.cores),
				Instr:    map[platform.ThreadID]float64{},
			},
		}
		mirrorRate := map[int]float64{} // process-0 rate by rank
		for _, th := range ths {
			if !alive(th, q) {
				continue
			}
			sq.alive = append(sq.alive, th.id)
			if rng.Float64() < 0.15 {
				th.core = platform.CoreID(rng.Intn(cfg.cores))
			}
			sq.cores[th.id] = th.core
			speed := topo.Core(th.core).Speed
			rate := procRate[th.proc] * (0.4 + 0.3*speed) * (0.8 + 0.4*rng.Float64())
			switch th.proc {
			case 0:
				mirrorRate[th.rank] = rate
			case 1:
				rate = mirrorRate[th.rank] + tieOffsets[rng.Intn(len(tieOffsets))]
			}
			// Coarse instruction increments make sibling ties common;
			// some siblings copy a sibling's count outright.
			th.instr += 5000 * math.Floor(speed*interval/500*(1+2*rng.Float64()))
			d := counters.ThreadDelta{
				Interval:     interval,
				Work:         speed * interval,
				Instructions: 5000 * speed,
				Misses:       rate * interval,
			}
			d.Accesses = d.Misses / missRatio[th.proc]
			// One thread's reads are lost for long enough to outlast
			// hold-last-good.
			dropped := cfg.faults && th == ths[len(ths)-2] && q >= cfg.quanta/4 && q < cfg.quanta/4+2*maxStaleQuanta
			if cfg.faults && th.proc >= 2 && !dropped {
				switch r := rng.Float64(); {
				case r < 0.04:
					dropped = true
				case r < 0.06:
					d.Misses = math.NaN()
				case r < 0.07:
					d.Misses = math.Inf(1)
				case r < 0.08:
					d.Accesses = math.Inf(-1)
				case r < 0.09:
					d.Misses = -d.Misses - 1
				case r < 0.11:
					d.Misses = p.capacity * interval * (1.5 + 2*rng.Float64())
				case r < 0.12:
					d.Instructions = math.NaN()
				case r < 0.15:
					d.Accesses, d.Misses = 0, 0 // stalled
				}
			}
			if !dropped {
				sq.sample.Threads[th.id] = d
			}
			sq.sample.Instr[th.id] = th.instr
			c := &sq.sample.Cores[th.core]
			c.Interval = interval
			if d.Sane() {
				c.ServedMisses += d.Misses
			}
		}
		for _, th := range ths {
			if alive(th, q) && rng.Float64() < 0.3 {
				sib := ths[rng.Intn(len(ths))]
				if sib.proc == th.proc && alive(sib, q) {
					th.instr = sib.instr
					sq.sample.Instr[th.id] = th.instr
				}
			}
		}
		if cfg.faults {
			for c := range sq.sample.Cores {
				switch r := rng.Float64(); {
				case r < 0.03:
					sq.sample.Cores[c].ServedMisses = math.NaN()
				case r < 0.05:
					sq.sample.Cores[c].ServedMisses = -1
				case r < 0.07:
					sq.sample.Cores[c].ServedMisses = p.capacity * interval * 3
				}
			}
			// A reading for a thread that is not alive is ignored.
			if gone := ths[rng.Intn(len(ths))]; !alive(gone, q) {
				sq.sample.Threads[gone.id] = counters.ThreadDelta{Interval: interval, Misses: 1, Accesses: 2}
			}
		}
		rng.Shuffle(len(sq.alive), func(i, j int) { sq.alive[i], sq.alive[j] = sq.alive[j], sq.alive[i] })
		p.quanta = append(p.quanta, sq)
	}
	return p
}
