package asnmap

import (
	"net/netip"
	"testing"

	"pplivesim/internal/ipam"
	"pplivesim/internal/isp"
)

func TestSyntheticInternetLookup(t *testing.T) {
	r := SyntheticInternet()
	tests := []struct {
		addr string
		want isp.ISP
	}{
		{"58.40.1.2", isp.TELE},
		{"61.130.0.9", isp.TELE},
		{"60.10.0.1", isp.CNC},
		{"221.200.3.4", isp.CNC},
		{"59.66.1.1", isp.CER},
		{"202.114.0.5", isp.CER},
		{"211.91.2.2", isp.OtherCN},
		{"129.174.10.20", isp.Foreign},
		{"24.5.6.7", isp.Foreign},
	}
	for _, tt := range tests {
		got, ok := r.ISPOf(netip.MustParseAddr(tt.addr))
		if !ok {
			t.Errorf("ISPOf(%s): not found", tt.addr)
			continue
		}
		if got != tt.want {
			t.Errorf("ISPOf(%s) = %s, want %s", tt.addr, got, tt.want)
		}
	}
}

func TestLookupMiss(t *testing.T) {
	r := SyntheticInternet()
	if _, ok := r.Lookup(netip.MustParseAddr("192.0.2.1")); ok {
		t.Error("lookup of unregistered prefix unexpectedly succeeded")
	}
}

func TestLookupReturnsRecordFields(t *testing.T) {
	r := SyntheticInternet()
	rec, ok := r.Lookup(netip.MustParseAddr("129.174.1.1"))
	if !ok {
		t.Fatal("GMU prefix not found")
	}
	if rec.ASN != 24 || rec.ISP != isp.Foreign {
		t.Errorf("record = %+v, want ASN 24 / Foreign", rec)
	}
	if rec.Name == "" {
		t.Error("record has empty AS name")
	}
}

func TestPoolForAllocatesInCategory(t *testing.T) {
	r := SyntheticInternet()
	for _, category := range isp.All() {
		pool, err := r.PoolFor(category)
		if err != nil {
			t.Fatalf("PoolFor(%s): %v", category, err)
		}
		for i := 0; i < 100; i++ {
			a, err := pool.Alloc()
			if err != nil {
				t.Fatalf("Alloc from %s pool: %v", category, err)
			}
			got, ok := r.ISPOf(a)
			if !ok || got != category {
				t.Fatalf("allocated %s resolves to (%v,%v), want %s", a, got, ok, category)
			}
		}
	}
}

func TestPoolForUnknownCategory(t *testing.T) {
	r := NewRegistry()
	if _, err := r.PoolFor(isp.TELE); err == nil {
		t.Error("PoolFor on empty registry did not error")
	}
}

func TestLongestPrefixWins(t *testing.T) {
	r := NewRegistry()
	r.Add(Record{ASN: 1, Name: "BIG", ISP: isp.TELE, Prefix: ipam.MustParsePrefix("58.0.0.0/8")})
	r.Add(Record{ASN: 2, Name: "SMALL", ISP: isp.CNC, Prefix: ipam.MustParsePrefix("58.1.0.0/16")})
	rec, ok := r.Lookup(netip.MustParseAddr("58.1.2.3"))
	if !ok || rec.ASN != 2 {
		t.Errorf("Lookup = (%+v,%v), want the /16 record", rec, ok)
	}
	rec, ok = r.Lookup(netip.MustParseAddr("58.9.2.3"))
	if !ok || rec.ASN != 1 {
		t.Errorf("Lookup = (%+v,%v), want the /8 record", rec, ok)
	}
}

func TestRecordsSortedByASN(t *testing.T) {
	r := SyntheticInternet()
	recs := r.Records()
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i-1].ASN > recs[i].ASN {
			t.Fatalf("records not sorted at %d: %d > %d", i, recs[i-1].ASN, recs[i].ASN)
		}
	}
}

func TestEveryCategoryHasCapacity(t *testing.T) {
	r := SyntheticInternet()
	for _, category := range isp.All() {
		if _, err := r.PoolFor(category); err != nil {
			t.Fatalf("PoolFor(%s): %v", category, err)
		}
		// Large simulations need tens of thousands of peers per category;
		// every prefix loses its network and broadcast address.
		var got uint64
		for _, p := range r.PrefixesFor(category) {
			got += p.Size() - 2
		}
		if got < 100_000 {
			t.Errorf("%s pool capacity %d, want >= 100000", category, got)
		}
	}
}
