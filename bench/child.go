package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Child processes. The benchmark re-executes its own binary for work that
// must not share the measured process's heap: the prep, whose 2048 queued
// jobs would otherwise set the process's peak RSS, and the host probe,
// whose allocations would otherwise make GC cycles scan the service's heap.
// The first argument names the child; main and TestMain dispatch on it.
const (
	childPrep  = "prep"
	childProbe = "probe"
)

// runChild runs the child args name, if they name one, and reports its
// exit code.
func runChild(args []string) (code int, ok bool) {
	if len(args) == 0 {
		return 0, false
	}
	var err error
	switch args[0] {
	case childPrep:
		err = prepChild(args[1:])
	case childProbe:
		err = probeChild(os.Stdin, os.Stdout)
	default:
		return 0, false
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench %s: %v\n", args[0], err)
		return 1, true
	}
	return 0, true
}

// child starts this binary as the named child.
func child(name string, args ...string) (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, append([]string{name}, args...)...)
	cmd.Stderr = os.Stderr
	return cmd, nil
}

// prepInChild runs prep in a child process and waits for it.
func prepInChild(path string, seed uint64, n int) error {
	cmd, err := child(childPrep, path, strconv.FormatUint(seed, 10), strconv.Itoa(n))
	if err != nil {
		return err
	}
	return cmd.Run()
}

func prepChild(args []string) error {
	if len(args) != 3 {
		return errors.New("want <store> <seed> <runs>")
	}
	seed, err := strconv.ParseUint(args[1], 10, 64)
	if err != nil {
		return err
	}
	n, err := strconv.Atoi(args[2])
	if err != nil {
		return err
	}
	return prep(args[0], seed, n)
}

// The host probe. On a shared virtual machine the speed of allocation-,
// memory- and kernel-bound code can drift by up to 2x over minutes while
// register-only loops stay steady, so a raw ops/s moves with the host as
// much as with the code. The probe is a fixed net/http JSON echo on
// loopback, driven by as many closed-loop clients as the workload, in its
// own process; the measure window alternates it with the workload so both
// see the same host, and the end-to-end metrics are the workload's rates
// relative to the probe's. Nothing in the repository runs in the probe,
// so a change to the service cannot move it.

// probeMsg is the probe's request and response body.
type probeMsg struct {
	ID     int       `json:"id"`
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// probeChild serves probe slices: it reads one duration in nanoseconds per
// line from in, drives the echo server for that long and writes the round
// trips per second to out. It returns when in ends.
func probeChild(in io.Reader, out io.Writer) error {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var m probeMsg
		if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		m.Values = append(m.Values, m.Values...)
		_ = json.NewEncoder(w).Encode(m) // a failed write fails the client's decode
	}))
	defer srv.Close()
	body, err := json.Marshal(probeMsg{ID: 1, Name: "probe", Values: make([]float64, 32)})
	if err != nil {
		return err
	}
	conns := make([]*http.Client, clients)
	for i := range conns {
		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		defer tr.CloseIdleConnections()
		conns[i] = &http.Client{Transport: tr}
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		ns, err := strconv.ParseInt(strings.TrimSpace(sc.Text()), 10, 64)
		if err != nil {
			return err
		}
		rps, err := probeSlice(srv.URL, conns, body, time.Duration(ns))
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(out, "%g\n", rps); err != nil {
			return err
		}
	}
	return sc.Err()
}

func probeSlice(url string, conns []*http.Client, body []byte, d time.Duration) (float64, error) {
	trips := make([]int, len(conns))
	errs := make([]error, len(conns))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// At least one round trip, so a slice never reads 0 when the
			// goroutine starts late.
			for first := true; first || time.Now().Before(deadline); first = false {
				resp, err := c.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					errs[i] = err
					return
				}
				var m probeMsg
				err = json.NewDecoder(resp.Body).Decode(&m)
				resp.Body.Close()
				if err == nil && len(m.Values) != 64 {
					err = fmt.Errorf("probe echoed %d values, want 64", len(m.Values))
				}
				if err != nil {
					errs[i] = err
					return
				}
				trips[i]++
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	total := 0
	for _, n := range trips {
		total += n
	}
	return float64(total) / elapsed.Seconds(), nil
}

// probe is the parent's handle on a running probe child.
type probe struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

func startProbe() (*probe, error) {
	cmd, err := child(childProbe)
	if err != nil {
		return nil, err
	}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &probe{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

// measure runs one probe slice of length d and returns its round trips
// per second.
func (p *probe) measure(d time.Duration) (float64, error) {
	if _, err := fmt.Fprintln(p.in, int64(d)); err != nil {
		return 0, err
	}
	if !p.out.Scan() {
		return 0, fmt.Errorf("probe exited: %v", p.out.Err())
	}
	rps, err := strconv.ParseFloat(p.out.Text(), 64)
	if err != nil || rps <= 0 {
		return 0, fmt.Errorf("probe answered %q", p.out.Text())
	}
	return rps, nil
}

// close ends the probe child and waits for it to exit.
func (p *probe) close() error {
	p.in.Close()
	return p.cmd.Wait()
}
