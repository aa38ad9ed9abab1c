package simnet

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"pplivesim/internal/asnmap"
	"pplivesim/internal/ipam"
	"pplivesim/internal/isp"
)

// wantDomain is one domain of a pinned world. pools lists, in allocation
// order, the "CATEGORY:prefix" ranges the domain's table row owns (in a
// world these are also exactly the prefixes routed to it); spawns
// lists the first three "CATEGORY:address" results of Spawn for every
// category the domain hosts.
type wantDomain struct {
	name   string
	cat    isp.ISP
	pools  string
	spawns string
}

const (
	allCNC     = "CNC:60.0.0.0/11 CNC:218.56.0.0/13 CNC:221.192.0.0/12 CNC:124.64.0.0/13"
	allCER     = "CER:59.64.0.0/12 CER:202.112.0.0/13"
	allOtherCN = "OtherCN:211.90.0.0/15 OtherCN:210.51.0.0/16 OtherCN:61.232.0.0/14 OtherCN:222.240.0.0/13"
	allForeign = "Foreign:129.174.0.0/16 Foreign:24.0.0.0/12 Foreign:68.32.0.0/11 Foreign:130.192.0.0/14 Foreign:133.0.0.0/10 Foreign:143.248.0.0/16 Foreign:128.112.0.0/16"

	// The scaled partition's CNC and CER rows: the category minus its carved
	// /20 infrastructure tail.
	scaledCNC = "CNC:60.0.0.0/11 CNC:218.56.0.0/13 CNC:221.192.0.0/12 CNC:124.64.0.0/14 CNC:124.68.0.0/15 CNC:124.70.0.0/16 CNC:124.71.0.0/17 CNC:124.71.128.0/18 CNC:124.71.192.0/19 CNC:124.71.224.0/20"
	scaledCER = "CER:59.64.0.0/12 CER:202.112.0.0/14 CER:202.116.0.0/15 CER:202.118.0.0/16 CER:202.119.0.0/17 CER:202.119.128.0/18 CER:202.119.192.0/19 CER:202.119.224.0/20"
)

var (
	spawnCNC     = three(isp.CNC, "60.0.0")
	spawnCER     = three(isp.CER, "59.64.0")
	spawnOtherCN = three(isp.OtherCN, "211.90.0")
	spawnForeign = three(isp.Foreign, "129.174.0")

	legacyDomains = []wantDomain{
		teleRow("TELE-0", "58.32.0", "TELE:58.32.0.0/11 TELE:114.80.0.0/12"),
		teleRow("TELE-1", "222.64.0", "TELE:222.64.0.0/11 TELE:61.128.0.0/10"),
		{"CNC", isp.CNC, allCNC, spawnCNC},
		{"CER", isp.CER, allCER, spawnCER},
		{"OtherCN", isp.OtherCN, allOtherCN, spawnOtherCN},
		{"Foreign", isp.Foreign, allForeign, spawnForeign},
	}
	// scaledTail closes every scaled partition: the four whole-category rows
	// and the infrastructure row.
	scaledTail = []wantDomain{
		{"CNC", isp.CNC, scaledCNC, spawnCNC},
		{"CER", isp.CER, scaledCER, spawnCER},
		{"OtherCN", isp.OtherCN, allOtherCN, spawnOtherCN},
		{"Foreign", isp.Foreign, allForeign, spawnForeign},
		{"INFRA", 0, "TELE:61.191.240.0/20 CNC:124.71.240.0/20 CER:202.119.240.0/20",
			three(isp.TELE, "61.191.240") + " " + three(isp.CNC, "124.71.240") + " " + three(isp.CER, "202.119.240")},
	}
)

// three spells the first three host addresses of a /24.
func three(cat isp.ISP, net24 string) string {
	c := cat.String() + ":" + net24
	return c + ".1 " + c + ".2 " + c + ".3"
}

func teleRow(name, net24, pools string) wantDomain {
	return wantDomain{name, isp.TELE, pools, three(isp.TELE, net24)}
}

// TestPartitionTables pins what the table-driven builder produces for the
// legacy and the scaled partition — domain names and categories, the address
// ranges each domain owns and is routed, the lookahead, and the first
// addresses Spawn hands out — as literals read off the separate constructors
// this builder replaced.
func TestPartitionTables(t *testing.T) {
	cases := []struct {
		name      string
		shards    int
		lookahead time.Duration
		domains   []wantDomain
	}{
		{name: "shards=0", shards: 0, lookahead: 6600 * time.Microsecond, domains: legacyDomains},
		{name: "shards=6", shards: 6, lookahead: 6600 * time.Microsecond, domains: legacyDomains},
		{
			name: "shards=12", shards: 12, lookahead: 12 * time.Millisecond,
			domains: append([]wantDomain{
				teleRow("TELE-0", "58.32.0", "TELE:58.32.0.0/12 TELE:222.80.0.0/12"),
				teleRow("TELE-1", "58.48.0", "TELE:58.48.0.0/12 TELE:61.176.0.0/13"),
				teleRow("TELE-2", "61.128.0", "TELE:61.128.0.0/12 TELE:61.184.0.0/14"),
				teleRow("TELE-3", "61.144.0", "TELE:61.144.0.0/12 TELE:61.188.0.0/15"),
				teleRow("TELE-4", "61.160.0", "TELE:61.160.0.0/12 TELE:61.190.0.0/16"),
				teleRow("TELE-5", "114.80.0", "TELE:114.80.0.0/12 TELE:61.191.0.0/17"),
				teleRow("TELE-6", "222.64.0", "TELE:222.64.0.0/12 TELE:61.191.128.0/18 TELE:61.191.192.0/19 TELE:61.191.224.0/20"),
			}, scaledTail...),
		},
		{
			name: "shards=16", shards: 16, lookahead: 12 * time.Millisecond,
			domains: append([]wantDomain{
				teleRow("TELE-0", "58.32.0", "TELE:58.32.0.0/13 TELE:114.80.0.0/13"),
				teleRow("TELE-1", "58.40.0", "TELE:58.40.0.0/13 TELE:114.88.0.0/13"),
				teleRow("TELE-2", "58.48.0", "TELE:58.48.0.0/13 TELE:222.64.0.0/13"),
				teleRow("TELE-3", "58.56.0", "TELE:58.56.0.0/13 TELE:222.72.0.0/13"),
				teleRow("TELE-4", "61.128.0", "TELE:61.128.0.0/13 TELE:222.80.0.0/13"),
				teleRow("TELE-5", "61.136.0", "TELE:61.136.0.0/13 TELE:222.88.0.0/13"),
				teleRow("TELE-6", "61.144.0", "TELE:61.144.0.0/13 TELE:61.184.0.0/14"),
				teleRow("TELE-7", "61.152.0", "TELE:61.152.0.0/13 TELE:61.188.0.0/15"),
				teleRow("TELE-8", "61.160.0", "TELE:61.160.0.0/13 TELE:61.190.0.0/16"),
				teleRow("TELE-9", "61.168.0", "TELE:61.168.0.0/13 TELE:61.191.0.0/17"),
				teleRow("TELE-10", "61.176.0", "TELE:61.176.0.0/13 TELE:61.191.128.0/18 TELE:61.191.192.0/19 TELE:61.191.224.0/20"),
			}, scaledTail...),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewShardedWorldN(7, tc.shards)
			// The table's ranges in allocation order, which routing cannot
			// see: a reordering inside a row would only surface once a
			// million-member run exhausts the row's first range.
			for i, p := range partition(asnmap.SyntheticInternet(), tc.shards) {
				var entries []string
				for _, cat := range isp.All() {
					for _, pfx := range p.pools[cat] {
						entries = append(entries, cat.String()+":"+pfx.String())
					}
				}
				if got := strings.Join(entries, " "); i >= len(tc.domains) || got != tc.domains[i].pools {
					t.Errorf("table row %d (%s) = %s", i, p.name, got)
				}
			}
			if got := w.lookahead; got != tc.lookahead {
				t.Errorf("lookahead = %v, want %v", got, tc.lookahead)
			}
			if len(w.Domains()) != len(tc.domains) {
				t.Fatalf("%d domains, want %d", len(w.Domains()), len(tc.domains))
			}
			routes := 0
			for i, d := range w.Domains() {
				want := tc.domains[i]
				if d.ID() != i || d.Name() != want.name || d.Category() != want.cat {
					t.Errorf("domain %d = %d/%s/%v, want %s/%v", i, d.ID(), d.Name(), d.Category(), want.name, want.cat)
				}
				for _, entry := range strings.Fields(want.pools) {
					cat, cidr, _ := strings.Cut(entry, ":")
					pfx := ipam.MustParsePrefix(cidr)
					routes++
					// First and last address of the range: the boundaries the
					// trie has to get right.
					b := pfx.Addr().As4()
					first := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
					for _, v := range []uint32{first, first + uint32(pfx.Size()-1)} {
						a := netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
						rem, ok := w.router.Resolve(a)
						if !ok || rem.Domain != i || rem.ISP.String() != cat {
							t.Errorf("Resolve(%s) = domain %d %v ok=%v, want domain %d (%s) %s", a, rem.Domain, rem.ISP, ok, i, want.name, cat)
						}
					}
				}
				var spawned []string
				for _, cat := range isp.All() {
					if !strings.Contains(want.spawns, cat.String()+":") {
						if _, err := d.Spawn(HostSpec{ISP: cat, UploadBps: 1000}); err == nil {
							t.Errorf("domain %s spawned a %s host it holds no addresses for", d.Name(), cat)
						}
						continue
					}
					for k := 0; k < 3; k++ {
						env, err := d.Spawn(HostSpec{ISP: cat, UploadBps: 1000})
						if err != nil {
							t.Fatalf("domain %s spawn %s: %v", d.Name(), cat, err)
						}
						spawned = append(spawned, cat.String()+":"+env.Addr().String())
					}
				}
				if got := strings.Join(spawned, " "); got != want.spawns {
					t.Errorf("domain %s spawns\n got %s\nwant %s", d.Name(), got, want.spawns)
				}
			}
			if len(w.router.entries) != routes {
				t.Errorf("router holds %d routes, want %d", len(w.router.entries), routes)
			}
		})
	}
}
