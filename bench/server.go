package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// paths locates the checkout: root holds BENCHMARK.json, work is the
// ignored directory the benchmark builds and writes temporary data in.
type paths struct {
	root, work, server string
}

func locate() (paths, error) {
	for _, root := range []string{"..", "."} {
		if _, err := os.Stat(filepath.Join(root, "BENCHMARK.json")); err != nil {
			continue
		}
		abs, err := filepath.Abs(root)
		if err != nil {
			return paths{}, err
		}
		work := filepath.Join(abs, ".bench_build")
		return paths{root: abs, work: work, server: filepath.Join(work, "cpserver")}, nil
	}
	return paths{}, errors.New("BENCHMARK.json not found in . or ..: run from the repository root as `go run -C bench .`")
}

// buildServer compiles the shipping cmd/cpserver. It runs before set-up
// is timed; the go tool skips the link when the binary is current.
func buildServer(p paths) error {
	if err := os.MkdirAll(p.work, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", p.server, "./cmd/cpserver")
	cmd.Dir = p.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/cpserver: %v\n%s", err, out)
	}
	return nil
}

// checkHost refuses hosts the fixed thread counts do not fit, and a
// cpserver left over from an earlier run of this checkout, which would
// share the two CPUs with the one being measured.
func checkHost(p paths) error {
	if n := runtime.NumCPU(); n < procs {
		return fmt.Errorf("this benchmark pins %d generator threads and GOMAXPROCS=%d servers; the host has %d CPU(s)", procs, procs, n)
	}
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil // no /proc: nothing to check against
	}
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe"))
		if err == nil && strings.TrimSuffix(exe, " (deleted)") == p.server {
			return fmt.Errorf("a stale cpserver (pid %d) from an earlier run is still alive; kill it first", pid)
		}
	}
	return nil
}

// janitor kills server processes and removes temporary directories on
// every exit path: normal return, fatal error, panic, SIGINT/SIGTERM.
type janitor struct {
	mu    sync.Mutex
	procs map[*server]struct{}
	dirs  map[string]struct{}
}

var jan = janitor{procs: map[*server]struct{}{}, dirs: map[string]struct{}{}}

func (j *janitor) watchSignals() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		j.sweep()
		os.Exit(130)
	}()
}

func (j *janitor) sweep() {
	j.mu.Lock()
	defer j.mu.Unlock()
	for s := range j.procs {
		_ = s.cmd.Process.Kill() // already-exited is fine
		<-s.exited
		os.Remove(s.log.Name())
		delete(j.procs, s)
	}
	for d := range j.dirs {
		_ = os.RemoveAll(d) // best effort on the way out
		delete(j.dirs, d)
	}
}

// launch describes one cpserver process.
type launch struct {
	instances int
	capacity  int
	flags     []string
	durable   bool   // set-up gives it a fresh -datadir
	datadir   string // the -datadir; a restart reuses it as it is
	memcached bool
}

// server is a running cpserver.
type server struct {
	cmd     *exec.Cmd
	launch  launch
	addrs   []string // native listeners, one per instance
	mcAddrs []string // memcached text listeners, when launched with one
	stats   string   // HTTP -statsaddr
	log     *os.File
	exited  chan struct{} // closed once the process has been waited for
}

// freePorts returns the first of n consecutive free loopback ports,
// found by binding port 0 and probing upward.
func freePorts(n int) (int, error) {
	for try := 0; try < 50; try++ {
		first, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		base := first.Addr().(*net.TCPAddr).Port
		held := []net.Listener{first}
		ok := base+n < 65536
		for i := 1; ok && i < n; i++ {
			l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+i))
			if err != nil {
				ok = false
				break
			}
			held = append(held, l)
		}
		for _, l := range held {
			l.Close()
		}
		if ok {
			return base, nil
		}
	}
	return 0, errors.New("no run of free loopback ports found")
}

func portAddrs(base, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("127.0.0.1:%d", base+i)
	}
	return out
}

// start spawns cpserver with GOMAXPROCS pinned and waits until every
// listener accepts. addrs, when non-nil, reuses the ports of an earlier
// launch (a restart on the same datadir must keep its instance names).
func start(p paths, l launch, reuse *server) (*server, error) {
	s := &server{launch: l}
	if reuse != nil {
		s.addrs, s.mcAddrs, s.stats = reuse.addrs, reuse.mcAddrs, reuse.stats
	} else {
		base, err := freePorts(l.instances)
		if err != nil {
			return nil, err
		}
		s.addrs = portAddrs(base, l.instances)
		sp, err := freePorts(1)
		if err != nil {
			return nil, err
		}
		s.stats = portAddrs(sp, 1)[0]
		if l.memcached {
			mb, err := freePorts(l.instances)
			if err != nil {
				return nil, err
			}
			s.mcAddrs = portAddrs(mb, l.instances)
		}
	}
	args := []string{"-addr", s.addrs[0], "-instances", strconv.Itoa(l.instances),
		"-capacity", strconv.Itoa(l.capacity), "-statsaddr", s.stats, "-stats", "0"}
	if l.memcached {
		args = append(args, "-memcached", s.mcAddrs[0])
	}
	if l.datadir != "" {
		args = append(args, "-datadir", l.datadir)
	}
	args = append(args, l.flags...)
	logf, err := os.CreateTemp(p.work, "cpserver-*.log")
	if err != nil {
		return nil, err
	}
	s.log = logf
	s.cmd = exec.Command(p.server, args...)
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	s.exited = make(chan struct{})
	jan.mu.Lock()
	err = s.cmd.Start()
	if err == nil {
		jan.procs[s] = struct{}{}
	}
	jan.mu.Unlock()
	if err != nil {
		logf.Close()
		os.Remove(logf.Name())
		return nil, fmt.Errorf("start cpserver: %w", err)
	}
	go func() {
		_ = s.cmd.Wait() // the exit status of a stopped server carries nothing
		close(s.exited)
	}()
	listeners := append(append([]string{s.stats}, s.addrs...), s.mcAddrs...)
	deadline := time.Now().Add(60 * time.Second)
	for _, a := range listeners {
		for {
			c, err := net.DialTimeout("tcp", a, time.Second)
			if err == nil {
				c.Close()
				break
			}
			select {
			case <-s.exited:
				return nil, s.fail("cpserver exited during start-up")
			default:
			}
			if time.Now().After(deadline) {
				return nil, s.fail("cpserver did not listen on " + a + " within 60 s")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return s, nil
}

// fail stops the server and returns an error carrying its log tail.
func (s *server) fail(msg string) error {
	tail, _ := os.ReadFile(s.log.Name())
	if len(tail) > 2000 {
		tail = tail[len(tail)-2000:]
	}
	s.stop(true)
	return fmt.Errorf("%s\n--- cpserver log ---\n%s", msg, tail)
}

// stop ends the process (SIGKILL when hard, else SIGINT with a SIGKILL
// fallback) and waits for it.
func (s *server) stop(hard bool) {
	jan.mu.Lock()
	_, live := jan.procs[s]
	delete(jan.procs, s)
	jan.mu.Unlock()
	if !live {
		return
	}
	if hard {
		_ = s.cmd.Process.Kill()
	} else {
		_ = s.cmd.Process.Signal(os.Interrupt)
		t := time.AfterFunc(5*time.Second, func() { _ = s.cmd.Process.Kill() })
		defer t.Stop()
	}
	<-s.exited
	s.log.Close()
	os.Remove(s.log.Name())
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// tempDir creates a directory under work that the janitor removes.
func tempDir(p paths, prefix string) (string, error) {
	if err := os.MkdirAll(p.work, 0o755); err != nil {
		return "", err
	}
	d, err := os.MkdirTemp(p.work, prefix)
	if err != nil {
		return "", err
	}
	jan.mu.Lock()
	jan.dirs[d] = struct{}{}
	jan.mu.Unlock()
	return d, nil
}

func removeTemp(d string) {
	jan.mu.Lock()
	delete(jan.dirs, d)
	jan.mu.Unlock()
	_ = os.RemoveAll(d) // a leftover is swept with .bench_build
}

// --- /proc readings -----------------------------------------------------

// clockTick is USER_HZ; Linux has exported 100 to user space on every
// architecture Go supports since 2.6.
const clockTick = 100

// procCPU returns the user+system CPU seconds a process has consumed,
// all threads, from /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after ")".
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return (ut + st) / clockTick, nil
}

// selfCPU is procCPU for this process at microsecond resolution.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB returns VmHWM of pid (0 = self) in MiB.
func peakRSSMiB(pid int) (float64, error) {
	name := "/proc/self/status"
	if pid != 0 {
		name = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(name)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", name)
}

// --- HTTP readings ------------------------------------------------------

// scrape is one reading of /metrics: every sample summed over its label
// sets (instances), histogram buckets kept per upper edge.
type scrape struct {
	val     map[string]float64
	buckets map[string]map[float64]float64
	series  int
	took    time.Duration
}

var httpClient = &http.Client{Timeout: 10 * time.Second}

func (s *server) scrape() (*scrape, error) {
	t0 := time.Now()
	resp, err := httpClient.Get("http://" + s.stats + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	sc := parseMetrics(string(body))
	sc.took = time.Since(t0)
	return sc, nil
}

func parseMetrics(text string) *scrape {
	sc := &scrape{val: map[string]float64{}, buckets: map[string]map[float64]float64{}}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		sc.series++
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i:]
		}
		if base, ok := strings.CutSuffix(name, "_bucket"); ok {
			if i := strings.Index(labels, `le="`); i >= 0 {
				les := labels[i+4:]
				les = les[:strings.IndexByte(les, '"')]
				le := math.Inf(1)
				if les != "+Inf" {
					le, _ = strconv.ParseFloat(les, 64)
				}
				if sc.buckets[base] == nil {
					sc.buckets[base] = map[float64]float64{}
				}
				sc.buckets[base][le] += v
				continue
			}
		}
		sc.val[name] += v
	}
	return sc
}

// delta returns after−before for a summed sample; a family the server
// does not (or no longer does) export reads as 0.
func delta(before, after *scrape, name string) float64 {
	return after.val[name] - before.val[name]
}

// bucketQuantile returns the upper edge of the bucket holding quantile q
// of the samples a histogram gained between two scrapes. The exposition
// omits empty buckets, so an edge absent from one scrape inherits the
// cumulative count of the next lower edge present in it.
func bucketQuantile(before, after *scrape, name string, q float64) float64 {
	b, a := before.buckets[name], after.buckets[name]
	edges := make([]float64, 0, len(a))
	for le := range a {
		edges = append(edges, le)
	}
	for le := range b {
		if _, dup := a[le]; !dup {
			edges = append(edges, le)
		}
	}
	sort.Float64s(edges)
	if len(edges) == 0 {
		return 0
	}
	cum := func(m map[float64]float64) []float64 {
		out := make([]float64, len(edges))
		last := 0.0
		for i, le := range edges {
			if v, ok := m[le]; ok {
				last = v
			}
			out[i] = last
		}
		return out
	}
	ca, cb := cum(a), cum(b)
	total := ca[len(edges)-1] - cb[len(edges)-1]
	if total <= 0 {
		return 0
	}
	for i, le := range edges {
		if ca[i]-cb[i] >= q*total {
			if math.IsInf(le, 1) && i > 0 {
				return edges[i-1]
			}
			return le
		}
	}
	return edges[len(edges)-1]
}

// memStats reads the runtime.MemStats that /debug/vars exposes.
func (s *server) memStats() (runtime.MemStats, error) {
	var doc struct {
		Memstats runtime.MemStats `json:"memstats"`
	}
	resp, err := httpClient.Get("http://" + s.stats + "/debug/vars")
	if err != nil {
		return doc.Memstats, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return doc.Memstats, fmt.Errorf("/debug/vars: %w", err)
	}
	return doc.Memstats, nil
}

// gcPauseP99 returns the 99th percentile, in µs, of the GC pauses between
// two readings (at most the last 256).
func gcPauseP99(before, after *runtime.MemStats) float64 {
	n := int(after.NumGC - before.NumGC)
	if n <= 0 {
		return 0
	}
	if n > 256 {
		n = 256
	}
	p := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		p = append(p, float64(after.PauseNs[(int(after.NumGC)-1-i+256*2)%256]))
	}
	sort.Float64s(p)
	idx := int(math.Ceil(0.99*float64(n))) - 1
	return p[idx] / 1e3
}
