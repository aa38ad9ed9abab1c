package experiments

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestSectionsTable pins the table against the two committed artefacts that
// name its rows: the last full report and the DESIGN.md index.
func TestSectionsTable(t *testing.T) {
	rows := Sections()
	titles := map[string]string{}
	var ids []string
	for _, s := range rows {
		if s.ID == "" || s.Title == "" || s.Run == nil {
			t.Errorf("row %+v: empty id, title or Run", s)
		}
		if _, dup := titles[s.ID]; dup {
			t.Errorf("id %q declared twice", s.ID)
		}
		titles[s.ID] = s.Title
		ids = append(ids, s.ID)
	}

	// The committed report predates the multichannel row and everything
	// after ablation-fidelity, so its headers are a subsequence of the table:
	// same ids, same titles, same relative order.
	raw, err := os.ReadFile("../../EXPERIMENTS.raw.txt")
	if err != nil {
		t.Fatal(err)
	}
	headers := regexp.MustCompile(`(?m)^## ([a-z0-9-]+): (.*)$`).FindAllStringSubmatch(string(raw), -1)
	if len(headers) != 22 {
		t.Fatalf("EXPERIMENTS.raw.txt has %d section headers, want 22", len(headers))
	}
	next := 0
	for _, h := range headers {
		for next < len(ids) && ids[next] != h[1] {
			next++
		}
		if next == len(ids) {
			t.Fatalf("report section %q is missing from the table or out of order (table: %v)", h[1], ids)
		}
		if titles[h[1]] != h[2] {
			t.Errorf("section %s titled %q, the committed report says %q", h[1], titles[h[1]], h[2])
		}
	}
	if ids[0] != "fig2" || ids[len(ids)-1] != "chaos" {
		t.Errorf("table runs %s … %s, want fig2 … chaos", ids[0], ids[len(ids)-1])
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	index := string(design)
	index = index[strings.Index(index, "## 3."):strings.Index(index, "## 4.")]
	for _, id := range ids {
		if !strings.Contains(index, "| "+id+" |") {
			t.Errorf("DESIGN.md §3 has no row for %s", id)
		}
		if !strings.Contains(index, "`BenchmarkSection/"+id+"`") {
			t.Errorf("DESIGN.md §3 names no bench target for %s", id)
		}
	}
}

func TestSelect(t *testing.T) {
	all := len(Sections())
	cases := []struct {
		only string
		want []string // nil: every row
	}{
		{"", nil},
		{"fig2", []string{"fig2"}},
		{"fig1", []string{"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18"}},
		{"tab1", []string{"tab1"}},
		{"frontier", []string{"frontier"}},
		{"cdn", []string{"cdn"}},
		{"ablation", []string{"ablation-referral", "ablation-latency", "ablation-preference", "ablation-fidelity"}},
	}
	for _, c := range cases {
		rows, err := Select(c.only)
		if err != nil {
			t.Errorf("Select(%q): %v", c.only, err)
			continue
		}
		var got []string
		for _, s := range rows {
			got = append(got, s.ID)
		}
		if c.want == nil {
			if len(got) != all {
				t.Errorf("Select(%q) = %d rows, want all %d", c.only, len(got), all)
			}
		} else if strings.Join(got, " ") != strings.Join(c.want, " ") {
			t.Errorf("Select(%q) = %v, want %v", c.only, got, c.want)
		}
	}
	_, err := Select("nosuch")
	if err == nil || !strings.Contains(err.Error(), "fig2, fig3") || !strings.Contains(err.Error(), "chaos") {
		t.Errorf("Select(nosuch) = %v, want an error listing the ids", err)
	}
}
