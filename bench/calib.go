package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
)

// Calibrated time. On the 2-vCPU reference machine the hypervisor steals
// between 0 % and 40 % of CPU for minutes at a time and the machine's own
// speed moves between two states some 20 % apart, so wall-clock figures of
// identical code differ by up to 2× between runs. Every time metric is
// therefore reported as a ratio to the CPU time per op of a fixed miniature
// of the serving pipeline (the reference) run next to it — before every
// round and every set-up, and once after the last — and scaled by refNominalNs so
// the units stay readable. The reference runs in a child process: in this
// one its collector would have the program's heap to mark, and a change to
// the program's live heap would move the unit it is measured in. See
// README.md, "Calibrated time", for the measurements behind this.

// refTimes is what one run of the reference measured: the window around
// its refLoadedOps × clients ops.
type refTimes struct {
	Loaded window `json:"loaded"`
}

// cpuPerOpNs is the figure every time metric is divided by: the
// reference's process CPU time per op, in nanoseconds. CPU time has no
// hypervisor steal and no scheduling delay in it; what moves it is how
// fast the machine executes, which is what a duration measured beside it
// is to be freed of.
func (t refTimes) cpuPerOpNs() float64 {
	return float64(t.Loaded.CPUNs) / (refLoadedOps * clients)
}

// refNominalNs is cpuPerOpNs on a quiet reference machine, rounded: a
// duration d measured beside a reference figure r is reported as
// d × refNominalNs ÷ r, so calibrated and raw figures agree when the
// machine is quiet.
const refNominalNs = 16_000

const (
	// The reference's shape mirrors the serving workloads' loaded segment:
	// clients client goroutines, a window of loadedWindow tickets, a
	// mutex+cond queue, refWorkers pool workers.
	refWorkers   = 4
	refLoadedOps = 3_000 // per client
	// refSubmitAllocs and refServeAllocs size the work of an op's two
	// halves: together about what one serve_hot op allocates.
	refSubmitAllocs = 60
	refServeAllocs  = 70
	// calibHalfWindow rounds on either side share one calibration: the
	// median reference figure over rounds i−3 … i+3.
	calibHalfWindow = 3
)

// refReq is one op travelling through the reference.
type refReq struct {
	done    chan struct{}
	in, out [][]byte
}

// reference is the miniature: submit allocates and hashes, enqueues under
// a mutex and signals; a pool worker dequeues, allocates and hashes, and
// closes the request's channel. Its code is part of the benchmark and
// does not change with the program under test.
type reference struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*refReq
	closed bool
	wg     sync.WaitGroup

	ring [clients][]*refReq
}

// churn allocates n small objects and hashes a little per object; the
// hash is stored into the objects, which keeps it live.
func churn(n int) [][]byte {
	objs := make([][]byte, 0, n)
	h := uint64(14695981039346656037)
	for i := 0; i < n; i++ {
		b := make([]byte, 64+(i&31))
		for j := 0; j < 8; j++ {
			h = (h ^ uint64(i+j)) * 1099511628211
		}
		b[0] = byte(h)
		objs = append(objs, b)
	}
	return objs
}

// newReference starts the reference's worker pool.
func newReference() *reference {
	r := &reference{}
	r.cond = sync.NewCond(&r.mu)
	for c := range r.ring {
		r.ring[c] = make([]*refReq, loadedWindow)
	}
	for i := 0; i < refWorkers; i++ {
		r.wg.Add(1)
		go r.worker()
	}
	return r
}

func (r *reference) worker() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		for len(r.queue) == 0 && !r.closed {
			r.cond.Wait()
		}
		if len(r.queue) == 0 {
			r.mu.Unlock()
			return
		}
		q := r.queue[0]
		r.queue = r.queue[1:]
		r.mu.Unlock()
		q.out = churn(refServeAllocs)
		close(q.done)
	}
}

// close stops the worker pool and waits for it.
func (r *reference) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.cond.Broadcast()
	r.wg.Wait()
}

func (r *reference) submit() *refReq {
	q := &refReq{done: make(chan struct{}), in: churn(refSubmitAllocs)}
	r.mu.Lock()
	r.queue = append(r.queue, q)
	r.mu.Unlock()
	r.cond.Signal()
	return q
}

// run runs the reference once: every client submits refLoadedOps ops,
// keeping loadedWindow outstanding and waiting for the oldest first.
func (r *reference) run() refTimes {
	sw := startWindow()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(ring []*refReq) {
			defer wg.Done()
			head, cnt := 0, 0
			for i := 0; i < refLoadedOps; i++ {
				if cnt == loadedWindow {
					<-ring[head].done
					head, cnt = (head+1)%loadedWindow, cnt-1
				}
				ring[(head+cnt)%loadedWindow] = r.submit()
				cnt++
			}
			for ; cnt > 0; head, cnt = (head+1)%loadedWindow, cnt-1 {
				<-ring[head].done
			}
		}(r.ring[c])
	}
	wg.Wait()
	return refTimes{Loaded: sw.stop()}
}

// refEnv, when set, turns this binary (or the test binary) into the
// reference's child process; see serveReference.
const refEnv = "SAQP_BENCH_REFERENCE"

// serveReference is the child process's main: it runs the reference once
// per line read from stdin, answering each with one JSON line of
// refTimes, until stdin closes.
func serveReference(in io.Reader, out io.Writer) error {
	ref := newReference()
	defer ref.close()
	enc := json.NewEncoder(out)
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		if err := enc.Encode(ref.run()); err != nil {
			return err
		}
	}
	return sc.Err()
}

// refProcess is the parent's handle on the reference's child process.
type refProcess struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// startReference starts the child process: this same executable with
// refEnv set.
func startReference() (*refProcess, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), refEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the reference process: %w", err)
	}
	return &refProcess{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// run has the child run the reference once. Nothing is done to this
// process first: a collection still in flight here competes with the
// child and spoils that one sample, which the window median discards.
func (p *refProcess) run() (refTimes, error) {
	var t refTimes
	if _, err := io.WriteString(p.in, "run\n"); err != nil {
		return t, fmt.Errorf("reference process: %w", err)
	}
	line, err := p.out.ReadBytes('\n')
	if err != nil {
		return t, fmt.Errorf("reference process: %w", err)
	}
	if err := json.Unmarshal(line, &t); err != nil {
		return t, fmt.Errorf("reference process: %w", err)
	}
	return t, nil
}

// close ends the child process and waits for it.
func (p *refProcess) close() error {
	if err := p.in.Close(); err != nil {
		return err
	}
	return p.cmd.Wait()
}

// windowCalib returns round i's calibration: the median reference figure
// over rounds i−calibHalfWindow … i+calibHalfWindow, clipped at both
// ends.
func windowCalib(refs []refTimes, i int) float64 {
	lo := max(i-calibHalfWindow, 0)
	hi := min(i+calibHalfWindow+1, len(refs))
	vals := make([]float64, 0, hi-lo)
	for _, t := range refs[lo:hi] {
		vals = append(vals, t.cpuPerOpNs())
	}
	return median(vals)
}

// calibScale is the factor that turns a raw duration measured beside a
// reference figure of ref into calibrated units.
func calibScale(ref float64) float64 {
	if ref <= 0 {
		return 1
	}
	return refNominalNs / ref
}
