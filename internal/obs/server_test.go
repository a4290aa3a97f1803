package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// TestWriteMetricsFormat pins the Prometheus text exposition down to
// the line level: counter series names, cumulative histogram buckets,
// sum/count, and the quantile gauge series a dashboard scrapes.
func TestWriteMetricsFormat(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("hypercall.mmu_update").Add(3)
	reg.Counter("verdict/evidence").Add(1) // '/' must fold to '_'
	h := reg.Histogram("cell.wall_ns")
	// Buckets: 3 -> (2,4], 5 -> (4,8], 9 -> (8,16]. Cumulative counts
	// must therefore read 1, 2, 3.
	for _, v := range []uint64{3, 5, 9} {
		h.Observe(v)
	}

	var b strings.Builder
	WriteMetrics(&b, reg)
	out := b.String()

	for _, want := range []string{
		"# TYPE repro_hypercall_mmu_update_total counter",
		"repro_hypercall_mmu_update_total 3",
		"repro_verdict_evidence_total 1",
		"# TYPE repro_cell_wall_ns histogram",
		`repro_cell_wall_ns_bucket{le="4"} 1`,
		`repro_cell_wall_ns_bucket{le="8"} 2`,
		`repro_cell_wall_ns_bucket{le="16"} 3`,
		`repro_cell_wall_ns_bucket{le="+Inf"} 3`,
		"repro_cell_wall_ns_sum 17",
		"repro_cell_wall_ns_count 3",
		"# TYPE repro_cell_wall_ns_quantile gauge",
		`repro_cell_wall_ns_quantile{quantile="0.5"}`,
		`repro_cell_wall_ns_quantile{quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// TestWriteMetricsSaturatedBucket folds the 2^64 overflow bucket into
// +Inf instead of emitting an le="18446744073709551615" series, which
// Prometheus would mis-sort.
func TestWriteMetricsSaturatedBucket(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Histogram("cell.wall_ns").Observe(^uint64(0))

	var b strings.Builder
	WriteMetrics(&b, reg)
	out := b.String()
	if strings.Contains(out, `le="18446744073709551615"`) {
		t.Errorf("saturated bucket emitted as finite series:\n%s", out)
	}
	if !strings.Contains(out, `repro_cell_wall_ns_bucket{le="+Inf"} 1`) {
		t.Errorf("+Inf bucket does not carry the saturated observation:\n%s", out)
	}
}

// get fetches a URL and returns status, content type, and body.
func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestServerLiveCampaign installs the server as the campaign progress
// hook, runs the full matrix, and scrapes all three endpoints while and
// after the run: /cells must converge to every cell done, /metrics must
// expose the aggregated registry, /healthz must answer throughout.
func TestServerLiveCampaign(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := NewServer(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	base := "http://" + addr.String()

	r := &campaign.Runner{Workers: 4, Telemetry: reg, Progress: srv}
	done := make(chan error, 1)
	go func() {
		_, err := r.RunMatrixContext(context.Background())
		done <- err
	}()

	// Scrape /cells live until the campaign settles every cell. The
	// matrix is 102 cells; poll with a deadline so a wedged campaign
	// fails loudly instead of hanging the test.
	deadline := time.Now().Add(30 * time.Second)
	var cells []CellState
	for {
		status, ctype, body := get(t, base+"/cells")
		if status != http.StatusOK {
			t.Fatalf("/cells status %d", status)
		}
		if !strings.Contains(ctype, "application/json") {
			t.Fatalf("/cells content type %q", ctype)
		}
		cells = cells[:0]
		if err := json.Unmarshal([]byte(body), &cells); err != nil {
			t.Fatalf("/cells is not JSON: %v\n%s", err, body)
		}
		settled := 0
		for _, c := range cells {
			if c.Status == StatusDone || c.Status == StatusError {
				settled++
			}
		}
		if len(cells) == 102 && settled == 102 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign did not settle: %d cells, %d settled", len(cells), settled)
		}
		// /healthz must answer while cells are in flight.
		if status, _, body := get(t, base+"/healthz"); status != http.StatusOK || !strings.Contains(body, "ok") {
			t.Fatalf("/healthz during run: status %d body %q", status, body)
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatalf("matrix: %v", err)
	}

	for _, c := range cells {
		if c.Status != StatusDone {
			t.Errorf("cell %s finished %s, want done", c.Cell, c.Status)
		}
		if c.WallNS <= 0 {
			t.Errorf("cell %s has no wall time", c.Cell)
		}
	}

	status, ctype, body := get(t, base+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	if !strings.Contains(ctype, "text/plain") || !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics content type %q", ctype)
	}
	for _, want := range []string{
		"repro_cell_wall_ns_count 102",
		"repro_hypercall_mmu_update_total",
		`repro_cell_wall_ns_quantile{quantile="0.99"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestServerErrorCell routes a settled failure through the progress
// hook and checks /cells carries its class and message.
func TestServerErrorCell(t *testing.T) {
	srv := NewServer(nil)
	srv.BatchStarted([]string{"4.6/x/exploit"})
	srv.CellStarted("4.6/x/exploit")
	srv.CellFinished("4.6/x/exploit", 5*time.Millisecond, nil,
		&campaign.CellError{Cell: "4.6/x/exploit", Class: "panic", Message: "injected"})

	cells := srv.snapshot()
	if len(cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(cells))
	}
	c := cells[0]
	if c.Status != StatusError || c.Class != "panic" || c.Error != "injected" {
		t.Errorf("error cell state = %+v", c)
	}
}

// TestServerShutdown verifies an orderly stop: the port answers before,
// Shutdown returns without error, and the port refuses after.
func TestServerShutdown(t *testing.T) {
	srv := NewServer(telemetry.NewRegistry())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()
	if status, _, _ := get(t, base+"/healthz"); status != http.StatusOK {
		t.Fatalf("/healthz before shutdown: %d", status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get(fmt.Sprintf("%s/healthz", base)); err == nil {
		t.Error("server still answering after Shutdown")
	}
}
