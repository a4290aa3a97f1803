package campaign_test

// State-sharing audit for the package-level value factories that
// concurrent campaign workers call: each must hand out fresh copies, so
// one caller's mutation can never bleed into another worker's run.

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/exploits"
	"repro/internal/fieldstudy"
	"repro/internal/hv"
)

func TestSpecsReturnsFreshCopies(t *testing.T) {
	a := exploits.Specs()
	a[0].Name = "CLOBBERED"
	a[0].Run = nil
	b := exploits.Specs()
	if b[0].Name != "XSA-212-crash" || b[0].Run == nil {
		t.Errorf("mutating one Specs() result bled into the next call: %+v", b[0].Name)
	}
}

func TestVersionsReturnsFreshCopies(t *testing.T) {
	a := hv.Versions()
	a[0].Name = "0.0"
	a[0].XSA148Fixed = true
	b := hv.Versions()
	if b[0].Name != "4.6" || b[0].XSA148Fixed {
		t.Errorf("mutating one Versions() result bled into the next call: %+v", b[0])
	}
}

func TestTable3VersionsReturnsFreshCopies(t *testing.T) {
	a := campaign.Table3Versions()
	a[1].Name = "0.0"
	a[1].RestrictPTWrites = false
	b := campaign.Table3Versions()
	if b[1].Name != "4.13" || !b[1].RestrictPTWrites {
		t.Errorf("mutating one Table3Versions() result bled into the next call: %+v", b[1])
	}
}

func TestDatasetReturnsFreshCopies(t *testing.T) {
	a := fieldstudy.Dataset()
	wantCVE := a[0].CVE
	wantFunc := a[0].Functionalities[0]
	a[0].CVE = "CVE-0000-0000"
	a[0].Functionalities[0] = 0 // mutate through the nested slice
	b := fieldstudy.Dataset()
	if b[0].CVE != wantCVE {
		t.Errorf("Dataset()[0].CVE bled: got %q, want %q", b[0].CVE, wantCVE)
	}
	if b[0].Functionalities[0] != wantFunc {
		t.Errorf("Dataset()[0].Functionalities aliased across calls: got %v, want %v",
			b[0].Functionalities[0], wantFunc)
	}
}
