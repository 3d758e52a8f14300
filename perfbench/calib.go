package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// The benchmark runs on a few cores of a shared machine, whose speed for
// allocation-heavy Go code drifts by tens of percent over minutes as
// other tenants load it. A run therefore also times a fixed calibration
// unit — pure-Go work that depends on no repository code — in a child
// process, interleaved with the workload, and reports every host time in
// reference seconds:
//
//	reference seconds = host seconds × calRefSeconds ÷ median unit time
//
// The median is over the whole run: units run after every set-up and
// every pass, and between measured calls, one per calEvery of measured
// time. A change to the program moves the workload's time and not the
// unit's; a slower or faster host moves both. The child keeps the
// unit's heap, GC and memory out of the measured process, so the unit's
// time does not depend on the program's heap and peak_rss_mb does not
// include it.
const (
	// calRefSeconds is about the unit's median time on the reference
	// host, a 2-vCPU Xeon VM at 2.1 GHz running go1.24.0.
	calRefSeconds = 0.018
	// calEvery is how much measured time passes between two units; a
	// measured call longer than that is followed by up to calBurst units.
	calEvery = 300 * time.Millisecond
	calBurst = 16
	// calInserts sizes one unit.
	calInserts = 100_000
)

// calNode is a calibration map entry: a small heap object chained to
// the entry it displaces.
type calNode struct {
	key  uint32
	val  [6]uint32
	next *calNode
}

var calSink *calNode

// calUnit is the calibration work: map inserts of freshly allocated,
// pointer-linked nodes at pseudo-random keys, with the map's growth —
// allocation- and cache-bound, as the simulator is. Over five minutes of
// train steps its time followed the steps' time more closely than a
// register-machine interpreter, a dependent-load chase or a streaming
// allocation loop did.
func calUnit() {
	m := map[uint32]*calNode{}
	x := uint32(7)
	for range calInserts {
		x = x*1664525 + 1013904223
		n := &calNode{key: x}
		n.next = m[x>>12]
		m[x>>12] = n
	}
	calSink = m[5]
}

// serveCalibrator is the child process's main loop: one unit per line
// read from standard input, replying with the unit's time in
// nanoseconds. A collection before each unit and none during it keep
// the garbage collector's timing out of the unit, so every unit does the
// same work. It returns when standard input closes, which also happens
// when the parent dies.
func serveCalibrator() error {
	in := bufio.NewReader(os.Stdin)
	out := bufio.NewWriter(os.Stdout)
	debug.SetGCPercent(-1)
	for {
		if _, err := in.ReadString('\n'); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		runtime.GC()
		t0 := time.Now()
		calUnit()
		fmt.Fprintln(out, time.Since(t0).Nanoseconds())
		if err := out.Flush(); err != nil {
			return err
		}
	}
}

// calibrator drives the child process and keeps the unit times of one
// run. Its first error sticks and ends the sampling; measure reports it.
type calibrator struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	times []float64 // seconds per unit
	due   time.Duration
	err   error
}

// startCalibrator starts the child process: this program with
// --calibrator.
func startCalibrator() (*calibrator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--calibrator")
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
		return nil, fmt.Errorf("start calibrator: %w", err)
	}
	return &calibrator{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// sample runs n units in the child.
func (c *calibrator) sample(n int) {
	for range n {
		if c.err != nil {
			return
		}
		if _, c.err = io.WriteString(c.in, "\n"); c.err != nil {
			return
		}
		var line string
		if line, c.err = c.out.ReadString('\n'); c.err != nil {
			return
		}
		var ns int64
		if ns, c.err = strconv.ParseInt(strings.TrimSpace(line), 10, 64); c.err != nil {
			return
		}
		c.times = append(c.times, float64(ns)/1e9)
	}
}

// measured records d of measured time and runs one unit per calEvery
// of it, at most calBurst at once.
func (c *calibrator) measured(d time.Duration) {
	c.due += d
	n := int(c.due / calEvery)
	c.due -= time.Duration(n) * calEvery
	c.sample(min(n, calBurst))
}

// scale turns this run's host seconds into reference seconds.
func (c *calibrator) scale() float64 { return calRefSeconds / medianOf(c.times) }

// close ends the child and waits for it.
func (c *calibrator) close() error {
	c.in.Close()
	err := c.cmd.Wait()
	if c.err != nil {
		return fmt.Errorf("calibrator: %w", c.err)
	}
	return err
}
