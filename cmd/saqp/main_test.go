package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"saqp"
)

// saqpBin is the binary under test, built once from this directory.
var saqpBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "saqp-cmd")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	saqpBin = filepath.Join(dir, "saqp")
	out, err := exec.Command("go", "build", "-o", saqpBin, ".").CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

const smokeQuery = "SELECT l_returnflag, count(*) FROM lineitem WHERE l_quantity < 24 GROUP BY l_returnflag"

// TestHostingModes drives the real binary through each hosting mode on
// ephemeral ports: wait for the banner, probe what the mode serves,
// SIGTERM, and require a zero exit inside the drain timeout.
func TestHostingModes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		banner *regexp.Regexp // first submatch is the address to probe
		probe  func(t *testing.T, addr string)
	}{
		{
			name:   "admin",
			args:   []string{"-admin", "127.0.0.1:0", "-query", smokeQuery},
			banner: regexp.MustCompile(`admin endpoint live at (http://\S+)`),
			probe:  probeAdmin,
		},
		{
			name:   "listen",
			args:   []string{"-listen", "127.0.0.1:0"},
			banner: regexp.MustCompile(`TCP query frontend live at (\S+),`),
			probe: func(t *testing.T, addr string) {
				c := dial(t, addr)
				if err := c.Ping(); err != nil {
					t.Errorf("PING: %v", err)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(saqpBin, tc.args...)
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			var stderr strings.Builder
			cmd.Stderr = &stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			// The banner and the "ready" line that follows it; the rest of
			// stdout is drained so the process never blocks on a full pipe.
			ready, exited := make(chan string, 1), make(chan struct{})
			var exitErr error
			go func() {
				defer close(exited)
				addr := ""
				sc := bufio.NewScanner(stdout)
				for sc.Scan() {
					if m := tc.banner.FindStringSubmatch(sc.Text()); m != nil && addr == "" {
						addr = m[1]
					}
					if addr != "" && strings.HasPrefix(sc.Text(), "Ctrl-C") {
						ready <- addr
						break
					}
				}
				_, _ = io.Copy(io.Discard, stdout)
				exitErr = cmd.Wait()
			}()
			t.Cleanup(func() {
				_ = cmd.Process.Kill() // a no-op once the process has exited
				<-exited
			})
			select {
			case addr := <-ready:
				tc.probe(t, addr)
			case <-exited:
				t.Fatalf("saqp exited before its banner: %v\n%s", exitErr, stderr.String())
			case <-time.After(time.Minute):
				t.Fatalf("no banner within a minute\n%s", stderr.String())
			}
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			select {
			case <-exited:
				if exitErr != nil {
					t.Errorf("exit after SIGTERM: %v, want 0\n%s", exitErr, stderr.String())
				}
			case <-time.After(drainTimeout):
				t.Errorf("still running %v after SIGTERM", drainTimeout)
			}
		})
	}
}

// TestModelsPathUnreadable: a -models path that exists but cannot be read
// as a file is an error naming the path, not a silent untrained run.
func TestModelsPathUnreadable(t *testing.T) {
	dir := t.TempDir()
	out, err := exec.Command(saqpBin, "-models", dir, "-query", smokeQuery).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("-models pointing at a directory: exit %v, want non-zero\n%s", err, out)
	}
	if !strings.Contains(string(out), dir) {
		t.Errorf("error does not name %s:\n%s", dir, out)
	}
}

// TestTaskBoundRefused: simulating a query over the task bound (a 16-way
// lineitem self-join, about 4·10⁹ tasks) ends in a message naming the
// bound and a non-zero exit, not in an out-of-memory crash.
func TestTaskBoundRefused(t *testing.T) {
	var b strings.Builder
	b.WriteString("SELECT COUNT(*) FROM lineitem l0")
	for i := 1; i < 16; i++ {
		fmt.Fprintf(&b, " JOIN lineitem l%d ON l%d.l_orderkey = l%d.l_orderkey", i, i-1, i)
	}
	out, err := exec.Command(saqpBin, "-sf", "1", "-faults", "-query", b.String()).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "saqp: cluster: the query needs 4.011e+09 tasks, over the 100000-task bound") {
		t.Fatalf("16-way self-join: exit %v, want 1 and the task-bound message\n%s", err, out)
	}
}

// probeAdmin requires 200 from the five introspection endpoints and
// well-formed JSON from the three that serve it.
func probeAdmin(t *testing.T, base string) {
	for path, isJSON := range map[string]bool{
		"/metrics": false, "/drift": true, "/spans": true, "/statz": true, "/debug/pprof/cmdline": false,
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Errorf("GET %s: status %d, %d bytes, err %v", path, resp.StatusCode, len(body), err)
		}
		if isJSON && !json.Valid(body) {
			t.Errorf("GET %s: not JSON: %.80s", path, body)
		}
	}
}

func dial(t *testing.T, addr string) *saqp.NetClient {
	t.Helper()
	c, err := saqp.DialNet(addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}
