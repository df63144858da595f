package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// handedOut holds every address freeAddr has returned in this process.
var handedOut sync.Map

// freeAddr reserves an ephemeral port and releases it for the daemon. The
// kernel may hand a just-released port out again, so a caller that
// allocates several addresses before starting their daemons (the
// partitioned cluster does) could get one port twice: the second daemon
// then fails to bind and the first answers for both. An address is
// therefore never returned twice.
func freeAddr(t *testing.T) string {
	t.Helper()
	for {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		if _, dup := handedOut.LoadOrStore(addr, true); !dup {
			return addr
		}
	}
}

// waitHealthy polls /healthz until the daemon answers.
func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("daemon never became healthy")
}

// The daemon serves with body bounds and drains gracefully on SIGINT,
// saving state on the way out.
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	policyPath := filepath.Join(dir, "policy.json")
	policyJSON := `{"services":[{"name":"wiki","privilege":["tw"],"confidentiality":["tw"]}]}`
	if err := os.WriteFile(policyPath, []byte(policyJSON), 0o600); err != nil {
		t.Fatal(err)
	}
	statePath := filepath.Join(dir, "state.bf")
	addr := freeAddr(t)
	base := "http://" + addr

	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{
			"-policy", policyPath,
			"-addr", addr,
			"-state", statePath,
			"-save-every", "0",
			"-max-body", "512",
			"-shutdown-grace", "5s",
		})
	}()
	waitHealthy(t, base)

	// Within bounds: observed normally.
	small := `{"device":"d","service":"wiki","seg":"wiki/s#p0","hashes":[1,2,3]}`
	resp, err := http.Post(base+"/v1/observe", "application/json", strings.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("observe status=%d", resp.StatusCode)
	}

	// Past -max-body: rejected with 413.
	big := fmt.Sprintf(`{"device":"d","service":"wiki","seg":"wiki/s#p1","hashes":[%s1]}`,
		strings.Repeat("1,", 2048))
	resp, err = http.Post(base+"/v1/observe", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized observe status=%d, want 413", resp.StatusCode)
	}

	// SIGINT: the daemon drains and exits cleanly.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("run returned %v after SIGINT, want clean shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down within the grace period")
	}

	// State was persisted on the way out.
	if _, err := os.Stat(statePath); err != nil {
		t.Errorf("state not saved at shutdown: %v", err)
	}
}
