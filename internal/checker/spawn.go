package checker

import (
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// Spawned rank workers: with Options.RankSpawn the checker execs one
// frrankd process per partition against its own exchange — real process
// separation on one host, the CI-checkable step toward workers on other
// hosts. A process is told where to dial, which partition to announce,
// how many sweep workers it may use and its op timeout; its shard and
// its kernel constants arrive over the link like any other worker's.

// rankProc is one exec'd frrankd worker.
type rankProc struct {
	part   int
	cmd    *exec.Cmd
	stdout bytes.Buffer
	stderr bytes.Buffer
	done   chan struct{}
	err    error
}

// spawnedWorkers tracks the exec'd cohort until finish.
type spawnedWorkers struct {
	procs []*rankProc
}

// spawnRankWorkers launches opt.RankSpawn once per partition. Processes
// that exit with an error report it — wrapped with their partition and
// their stderr tail — through recordErr, so a worker that dies before
// the handshake surfaces as its own failure rather than a bare accept
// timeout. On a start failure the already-started processes are killed
// and reaped before returning.
func spawnRankWorkers(opt Options, k int, addr string, workers int, recordErr func(int, error)) (*spawnedWorkers, error) {
	s := &spawnedWorkers{}
	for p := 0; p < k; p++ {
		args := []string{
			"-connect", addr,
			"-part", fmt.Sprintf("%d", p),
			"-workers", fmt.Sprintf("%d", workers),
			"-op-timeout", opt.handshakeTimeout().String(),
		}
		// The injected-crash hook crosses the process boundary as a flag,
		// so fault campaigns drive spawned workers exactly like link-
		// wrapped goroutines.
		if f := opt.RankFaults[p]; f != nil {
			args = append(args, "-fail-after-ups", fmt.Sprintf("%d", f.CrashAfterUps))
		}
		proc := &rankProc{part: p, done: make(chan struct{})}
		proc.cmd = exec.Command(opt.RankSpawn, args...)
		proc.cmd.Stderr = &proc.stderr
		proc.cmd.Stdout = &proc.stdout
		if err := proc.cmd.Start(); err != nil {
			err = fmt.Errorf("checker: spawning rank worker %d (%s): %w", p, opt.RankSpawn, err)
			s.kill()
			s.finish(time.Second)
			return nil, err
		}
		s.procs = append(s.procs, proc)
		go func(proc *rankProc) {
			defer close(proc.done)
			proc.err = proc.cmd.Wait()
			if proc.err != nil {
				msg := strings.TrimSpace(proc.stderr.String())
				if msg == "" {
					msg = proc.err.Error()
				}
				recordErr(proc.part, fmt.Errorf("frrankd worker exited: %s", msg))
			}
		}(proc)
	}
	return s, nil
}

// kill force-terminates every started process (error-path cleanup).
func (s *spawnedWorkers) kill() {
	for _, proc := range s.procs {
		if proc.cmd.Process != nil {
			_ = proc.cmd.Process.Kill()
		}
	}
}

// finish reaps the cohort — waiting up to grace for each process to
// exit on its own (the closed exchange ends them within their op
// timeout), then killing stragglers — and returns each partition's peak
// resident set in bytes, as the worker reported it on its stdout when it
// exited (0 where it reported none: a killed worker, a platform without
// /proc).
func (s *spawnedWorkers) finish(grace time.Duration) []int64 {
	rss := make([]int64, len(s.procs))
	timer := time.NewTimer(grace)
	defer timer.Stop()
	for i, proc := range s.procs {
		select {
		case <-proc.done:
		case <-timer.C:
			// Grace expired: no straggler is coming back, take the whole
			// cohort down (the timer fires at most once).
			s.kill()
			<-proc.done
		}
		rss[i] = reportedPeakRSS(proc.stdout.String())
	}
	return rss
}

// reportedPeakRSS finds the "peak_rss_bytes=N" line an frrankd prints on
// exit. The process measures itself: the rusage wait4 hands the parent
// would be the parent's own high-water mark (see telemetry.PeakRSS).
func reportedPeakRSS(stdout string) int64 {
	for _, line := range strings.Split(stdout, "\n") {
		if v, ok := strings.CutPrefix(line, "peak_rss_bytes="); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}
