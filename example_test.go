package pplive_test

import (
	"fmt"
	"log"
	"os"
	"strings"
	"testing"
	"time"

	"pplivesim"
)

// ExampleRunScenario runs a small popular channel watched by one probe in
// China Telecom and checks the paper's headline: the probe downloads a
// larger share of its bytes from its own ISP than its peer lists offer.
// `go run ./cmd/psim -probes tele` prints the full analysis of such a run.
func ExampleRunScenario() {
	sc := pplive.PopularScenario(42, 0.03) // seed, population scale
	sc.Watch = 3 * time.Minute
	sc.WarmUp = 2 * time.Minute
	sc.ArrivalWindow = time.Minute
	sc.Probes = []pplive.ProbeSpec{{Name: "tele", ISP: pplive.TELE}}

	res, err := pplive.RunScenario(sc)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := pplive.AnalyzeProbe(res, 0) // trace matching + IP→ASN + stats
	if err != nil {
		log.Fatal(err)
	}
	continuity := res.Probes[0].Client.BufferStats().Continuity()
	fmt.Println("probe ISP:", rep.ProbeISP)
	fmt.Println("traffic locality above potential locality:", rep.TrafficLocality > rep.PotentialLocality)
	fmt.Println("playback continuity at least 0.95:", continuity >= 0.95)
	// Output:
	// probe ISP: TELE
	// traffic locality above potential locality: true
	// playback continuity at least 0.95: true
}

// TestReadmeLibraryBlock: README's "As a library" block is the body of
// ExampleRunScenario, de-indented, its "// Output:" lines included, so the
// documented snippet is the one `go test` runs.
func TestReadmeLibraryBlock(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "As a library")
	_, block, ok2 := strings.Cut(section, "```go\n")
	block, _, ok3 := strings.Cut(block, "```")
	if !ok || !ok2 || !ok3 {
		t.Fatal("README.md has no go block after \"As a library\"")
	}

	src, err := os.ReadFile("example_test.go")
	if err != nil {
		t.Fatal(err)
	}
	_, body, ok := strings.Cut(string(src), "func ExampleRunScenario() {\n")
	body, _, ok2 = strings.Cut(body, "\n}\n")
	if !ok || !ok2 {
		t.Fatal("example_test.go has no ExampleRunScenario body")
	}
	var want strings.Builder
	for _, line := range strings.Split(body, "\n") {
		want.WriteString(strings.TrimPrefix(line, "\t") + "\n")
	}
	if block != want.String() {
		t.Errorf("README.md \"As a library\" block differs from ExampleRunScenario's body.\nREADME:\n%s\nExample:\n%s", block, want.String())
	}
}
