package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe log sink for polling the serve address.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var addrRe = regexp.MustCompile(`serving on (\S+)`)

func TestRunServesAndShutsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logs := &syncBuffer{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, "127.0.0.1:0", "1M", 2, "", logs) }()

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never logged its address; logs: %s", logs.String())
		}
		if m := addrRe.FindStringSubmatch(logs.String()); m != nil {
			base = "http://" + m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: status %d body %s", resp.StatusCode, body)
	}

	// A tiny publish/query round trip through the real TCP listener.
	resp, err = http.Post(base+"/v1/datasets/toy?k=2&m=2", "text/plain",
		strings.NewReader("1 2\n1 2\n1 3\n1 3\n2 3\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("publish status %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/v1/datasets/toy/support?itemset=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "\"lower\"") {
		t.Fatalf("support: status %d body %s", resp.StatusCode, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after shutdown", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after context cancellation")
	}
}

func TestRunBadConfig(t *testing.T) {
	if err := run(context.Background(), "127.0.0.1:0", "lots", 0, "", io.Discard); err == nil {
		t.Error("bad -max-body accepted")
	}
	if err := run(context.Background(), "not-an-address:-1", "", 0, "", io.Discard); err == nil {
		t.Error("bad -addr accepted")
	}
}
