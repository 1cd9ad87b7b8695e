package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"disasso/bench/internal/inputs"
	"disasso/internal/dataset"
)

// daemon is one disassod subprocess and the HTTP client driving it.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	// logDone is closed once the stderr reader has drained the pipe.
	logDone chan struct{}
	mu      sync.Mutex
	logTail []string
}

var servingRe = regexp.MustCompile(`serving on (\S+)`)

// startDaemon execs disassod on a loopback port chosen by the kernel and
// returns once it logs its address. The client allows two connections, one
// per benchmark client.
func startDaemon(bin, dataDir, tmpDir string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir, "-tmpdir", tmpDir)
	// A benchmark killed from outside must not leave its server running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting disassod: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			if len(d.logTail) == 20 {
				d.logTail = d.logTail[1:]
			}
			d.logTail = append(d.logTail, line)
			d.mu.Unlock()
			if m := servingRe.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.logDone:
		_ = cmd.Wait()
		return nil, fmt.Errorf("disassod exited before serving: %s", d.tail())
	case <-time.After(60 * time.Second):
		_ = d.kill()
		return nil, fmt.Errorf("disassod did not report its address within 60s: %s", d.tail())
	}
	d.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
		Timeout:   120 * time.Second,
	}
	return d, nil
}

// tail returns the last log lines, for error messages.
func (d *daemon) tail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.logTail, " | ")
}

// stop sends SIGTERM and waits for the process and its log reader to end,
// killing it if it has not exited after 30 s.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return d.kill()
	}
	exited := make(chan error, 1)
	go func() {
		<-d.logDone
		exited <- d.cmd.Wait()
	}()
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("disassod exit: %v: %s", err, d.tail())
		}
		return nil
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-exited
		return errors.New("disassod ignored SIGTERM for 30s")
	}
}

// kill ends the process without a graceful shutdown and waits for it.
func (d *daemon) kill() error {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Kill()
	<-d.logDone
	_ = d.cmd.Wait()
	return nil
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// do sends one request and returns the body of a response with the wanted
// status; any other status is an error carrying the body.
func (d *daemon) do(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// datasetInfo is the part of disassod's DatasetInfo the checks read.
type datasetInfo struct {
	Name         string `json:"name"`
	Records      int    `json:"records"`
	Streamed     bool   `json:"streamed"`
	ShardRecords int    `json:"shard_records"`
}

// deltaInfo is the part of an append/remove response the checks read.
type deltaInfo struct {
	datasetInfo
	Appended int `json:"appended"`
	Removed  int `json:"removed"`
}

// estimate is one itemset's answer from the support endpoint.
type estimate struct {
	Itemset  []dataset.Term `json:"itemset"`
	Lower    int            `json:"lower"`
	Upper    int            `json:"upper"`
	Expected float64        `json:"expected"`
}

// publish uploads text under name, anonymized with the given seed and extra
// query parameters.
func (d *daemon) publish(name string, text []byte, seed uint64, params string) (datasetInfo, error) {
	path := fmt.Sprintf("/v1/datasets/%s?k=%d&m=%d&seed=%d%s", name, inputs.K, inputs.M, seed, params)
	body, err := d.do(http.MethodPost, path, text, http.StatusCreated)
	var info datasetInfo
	if err == nil {
		err = json.Unmarshal(body, &info)
	}
	return info, err
}

// delta appends (or removes) the records of text.
func (d *daemon) delta(name string, text []byte, remove bool) (deltaInfo, error) {
	op := "append"
	if remove {
		op = "remove"
	}
	body, err := d.do(http.MethodPost, "/v1/datasets/"+name+"/"+op, text, http.StatusOK)
	var info deltaInfo
	if err == nil {
		err = json.Unmarshal(body, &info)
	}
	return info, err
}

// support posts one batch of itemsets and returns the raw body with the
// decoded estimates.
func (d *daemon) support(name string, itemsets [][]dataset.Term) ([]byte, []estimate, error) {
	req, err := supportRequest(itemsets)
	if err != nil {
		return nil, nil, err
	}
	body, err := d.supportRaw(name, req)
	if err != nil {
		return nil, nil, err
	}
	ests, err := decodeEstimates(body)
	return body, ests, err
}

// supportRaw posts an encoded support request and returns the answer's
// body: the round trip a read measures, without the benchmark's own JSON work.
func (d *daemon) supportRaw(name string, req []byte) ([]byte, error) {
	return d.do(http.MethodPost, "/v1/datasets/"+name+"/support", req, http.StatusOK)
}

func supportRequest(itemsets [][]dataset.Term) ([]byte, error) {
	return json.Marshal(map[string]any{"itemsets": itemsets})
}
