package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/span"
	"repro/internal/telemetry"
)

// sampleFamily extracts the metric family a sample line belongs to:
// labels dropped, the histogram sample suffixes folded back onto the
// histogram's family name.
func sampleFamily(line string) string {
	name := line
	if i := strings.IndexAny(name, "{ "); i >= 0 {
		name = name[:i]
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		name = strings.TrimSuffix(name, suffix)
	}
	return name
}

// Every series the exposition emits must be preceded by its # HELP and
// # TYPE lines — scraped over the real campaign registry, so a new
// telemetry series without documentation fails here, not in a
// dashboard.
func TestWriteMetricsEverySeriesDocumented(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := &campaign.Runner{Workers: 4, Telemetry: reg, Spans: span.NewCollector()}
	if _, err := r.RunMatrixContext(context.Background()); err != nil {
		t.Fatalf("RunMatrixContext: %v", err)
	}

	var b strings.Builder
	WriteMetrics(&b, reg)
	out := b.String()
	helped, typed := map[string]bool{}, map[string]bool{}
	samples := 0
	for _, line := range strings.Split(out, "\n") {
		if line == "" {
			continue
		}
		if f, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, doc, _ := strings.Cut(f, " ")
			if strings.TrimSpace(doc) == "" {
				t.Errorf("HELP line for %s carries no documentation", name)
			}
			helped[name] = true
			continue
		}
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(f, " ")
			if kind != "counter" && kind != "histogram" && kind != "gauge" {
				t.Errorf("TYPE line for %s declares unknown type %q", name, kind)
			}
			typed[name] = true
			continue
		}
		samples++
		fam := sampleFamily(line)
		if !helped[fam] {
			t.Errorf("sample %q emitted before its # HELP %s", line, fam)
		}
		if !typed[fam] {
			t.Errorf("sample %q emitted before its # TYPE %s", line, fam)
		}
	}
	if samples == 0 {
		t.Fatal("campaign registry exposed no samples")
	}
	// The RQ3 histogram must be among them, fed by the span layer.
	if !strings.Contains(out, "repro_detection_latency_events_count 102") {
		t.Errorf("detection-latency histogram missing or not fed by all 102 cells:\n%s", out)
	}
}

// helpFor must document every known family specifically, keeping the
// generic fallback for series it has never heard of.
func TestHelpForCoverage(t *testing.T) {
	for name, wantSpecific := range map[string]bool{
		"hypercall.errors":                  true,
		"hypercall.mmu_update":              true,
		"grant.map":                         true,
		"frames.alloc":                      true,
		telemetry.CellWallHistogram:         true,
		telemetry.DetectionLatencyHistogram: true,
		"completely.novel_series":           false,
	} {
		h := helpFor(name)
		if h == "" {
			t.Errorf("helpFor(%q) = empty", name)
		}
		generic := strings.HasPrefix(h, "Campaign telemetry series")
		if wantSpecific && generic {
			t.Errorf("helpFor(%q) fell through to the generic fallback", name)
		}
		if !wantSpecific && !generic {
			t.Errorf("helpFor(%q) = %q, want the generic fallback", name, h)
		}
	}
}

// /spans serves the collected forest as JSON with readable span kinds,
// and reports span collection disabled when no collector is installed.
func TestSpansEndpoint(t *testing.T) {
	srv := NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	base := "http://" + addr.String()

	status, _, body := get(t, base+"/spans")
	if status != http.StatusNotFound || !strings.Contains(body, "-spans") {
		t.Errorf("/spans without a collector: status %d body %q, want 404 pointing at -spans", status, body)
	}

	c := span.NewCollector()
	r := &campaign.Runner{Workers: 1, Spans: c}
	if _, err := r.RunContext(context.Background(), campaign.Table3Versions()[0], "XSA-148-priv", campaign.ModeInjection); err != nil {
		t.Fatalf("Run: %v", err)
	}
	srv.SetSpans(c)

	status, ctype, body := get(t, base+"/spans")
	if status != http.StatusOK {
		t.Fatalf("/spans status %d: %s", status, body)
	}
	if !strings.Contains(ctype, "application/json") {
		t.Errorf("/spans content type %q", ctype)
	}
	var forest struct {
		Batches []struct {
			Name  string `json:"name"`
			Cells []struct {
				Cell  string `json:"cell"`
				Spans []struct {
					Kind string `json:"kind"`
					Name string `json:"name"`
				} `json:"spans"`
			} `json:"cells"`
		} `json:"batches"`
	}
	if err := json.Unmarshal([]byte(body), &forest); err != nil {
		t.Fatalf("/spans is not JSON: %v\n%s", err, body)
	}
	if len(forest.Batches) != 1 || len(forest.Batches[0].Cells) != 1 {
		t.Fatalf("/spans shape: %+v", forest)
	}
	cell := forest.Batches[0].Cells[0]
	if cell.Cell != "4.8/XSA-148-priv/injection" {
		t.Errorf("/spans cell = %q", cell.Cell)
	}
	kinds := map[string]bool{}
	for _, s := range cell.Spans {
		kinds[s.Kind] = true
	}
	for _, want := range []string{"cell", "phase", "hypercall", "mm_op", "audit"} {
		if !kinds[want] {
			t.Errorf("/spans cell carries no %q span:\n%s", want, body)
		}
	}
}
