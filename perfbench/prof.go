package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// profileHz is the CPU-profile sampling rate of the traced phase, above the
// default 100 Hz so a few seconds give a stable layer table.
const profileHz = 250

// profileBuckets reads a pprof CPU profile and returns each bucket's share
// of the sampled CPU time, and the number of distinct stacks. A stack is
// charged to the innermost repo frame on it — its module's bucket — except
// that GC work, coroutine switches and syscalls met before any repo frame
// keep their own buckets. The stacks come from `go tool pprof -traces`,
// which prints every distinct stack with its CPU time, innermost frame
// first.
func profileBuckets(path string) (map[string]float64, int, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	out := map[string]float64{}
	for _, b := range profBuckets {
		out[b] = 0
	}
	var (
		total  float64
		stacks int
		value  time.Duration
		frames []string
		inBody bool
	)
	flush := func() {
		if len(frames) > 0 {
			out[bucketOf(frames)] += value.Seconds()
			total += value.Seconds()
			stacks++
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody = true
			continue
		}
		line = strings.TrimSpace(line)
		if !inBody || line == "" {
			continue // the header before the first stack
		}
		if len(frames) == 0 {
			v, fn, ok := strings.Cut(line, " ")
			if value, err = time.ParseDuration(v); !ok || err != nil {
				return nil, 0, fmt.Errorf("go tool pprof: unexpected line %q", line)
			}
			line = strings.TrimSpace(fn)
		}
		frames = append(frames, strings.TrimSuffix(line, " (inline)"))
	}
	flush()
	if total == 0 {
		return nil, 0, errors.New("profile has no samples")
	}
	for b := range out {
		out[b] /= total
	}
	return out, stacks, nil
}

// repoModules are the internal packages with a bucket of their own.
var repoModules = map[string]bool{
	"sched": true, "mem": true, "mhm": true, "ihash": true, "fpround": true, "sim": true,
	"apps": true, "replay": true, "core": true, "racefilter": true, "explore": true,
	"farm": true, "fleet": true, "obs": true,
}

// wirePackages are the transport layers: HTTP, JSON and the network.
var wirePackages = []string{"net/http", "net", "encoding/json", "net/textproto", "mime", "net/url",
	"internal/poll", "syscall", "internal/syscall", "internal/runtime/syscall", "runtime/internal/syscall"}

// gcFuncs mark a stack as garbage-collector work wherever they appear.
var gcFuncs = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.GC", "runtime.markroot", "runtime.gcDrain",
	"runtime.scanobject", "runtime.sweepone", "runtime.wbBufFlush", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.(*mheap).reclaim", "runtime.(*sweepLocked).sweep"}

// syscallFuncs are the runtime's own system calls.
var syscallFuncs = []string{"runtime.futex", "runtime.usleep", "runtime.osyield", "runtime.netpoll",
	"runtime.epollwait", "runtime.nanotime", "runtime.write", "runtime.read", "runtime.madvise",
	"runtime.mmap", "runtime.munmap", "runtime.sysMmap", "runtime.tgkill", "runtime.pipe2"}

// bucketOf classifies one sample's frames, innermost first.
func bucketOf(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFuncs {
			if strings.HasPrefix(f, g) {
				return "runtime_gc"
			}
		}
	}
	for _, f := range frames {
		pkg := packageOf(f)
		if mod, ok := strings.CutPrefix(pkg, "instantcheck/internal/"); ok {
			if repoModules[mod] {
				return mod
			}
			return "other"
		}
		if strings.HasPrefix(f, "runtime.coro") || strings.HasPrefix(pkg, "iter") {
			return "runtime_coro"
		}
		for _, s := range syscallFuncs {
			if strings.HasPrefix(f, s) {
				return "wire"
			}
		}
		for _, w := range wirePackages {
			if pkg == w {
				return "wire"
			}
		}
	}
	return "other"
}

// packageOf returns the import path of a symbol such as
// "instantcheck/internal/mem.(*Memory).loadSlow" or "iter.Pull[...].func1".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if slash < 0 {
		slash = 0
	}
	if dot := strings.IndexAny(fn[slash:], ".["); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}
