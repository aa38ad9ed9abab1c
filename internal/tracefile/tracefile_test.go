package tracefile

import (
	"bytes"
	"errors"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"pplivesim/internal/capture"
	"pplivesim/internal/wire"
)

func sampleRecords() []capture.Record {
	return []capture.Record{
		{
			At: 1500 * time.Millisecond, Dir: capture.Out,
			Peer: netip.MustParseAddr("58.32.0.2"),
			Type: wire.TDataRequest, Size: 27, Seq: 42, Count: 1,
		},
		{
			At: 1600 * time.Millisecond, Dir: capture.In,
			Peer: netip.MustParseAddr("58.32.0.2"),
			Type: wire.TDataReply, Size: 1410, Seq: 42, Count: 1, Payload: 1380,
		},
		{
			At: 2 * time.Second, Dir: capture.In,
			Peer: netip.MustParseAddr("61.128.0.1"),
			Type: wire.TTrackerResponse, Size: 260,
			Addrs: []netip.Addr{
				netip.MustParseAddr("1.2.3.4"),
				netip.MustParseAddr("5.6.7.8"),
			},
		},
	}
}

func sampleHeader() Header {
	return Header{
		Probe:    "tele",
		ProbeISP: "TELE",
		Source:   "58.32.9.9",
		Trackers: []string{"61.128.0.1", "60.0.0.1"},
		Channel:  1,
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleHeader(), sampleRecords()); err != nil {
		t.Fatal(err)
	}
	hdr, records, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Probe != "tele" || hdr.Channel != 1 || hdr.Format != FormatV1 {
		t.Errorf("header = %+v", hdr)
	}
	if !reflect.DeepEqual(records, sampleRecords()) {
		t.Errorf("records round trip mismatch:\n got %+v\nwant %+v", records, sampleRecords())
	}
}

func TestHeaderParseAddrs(t *testing.T) {
	source, trackers, err := sampleHeader().ParseAddrs()
	if err != nil {
		t.Fatal(err)
	}
	if source != netip.MustParseAddr("58.32.9.9") {
		t.Errorf("source = %v", source)
	}
	if len(trackers) != 2 || !trackers[netip.MustParseAddr("60.0.0.1")] {
		t.Errorf("trackers = %v", trackers)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"bad header":       "not json\n",
		"bad format":       `{"format":"other/9"}` + "\n",
		"bad line":         `{"format":"pplive-trace/1"}` + "\nnot json\n",
		"bad dir":          `{"format":"pplive-trace/1"}` + "\n" + `{"dir":"sideways","peer":"1.2.3.4"}` + "\n",
		"bad peer":         `{"format":"pplive-trace/1"}` + "\n" + `{"dir":"in","peer":"nope"}` + "\n",
		"bad address":      `{"format":"pplive-trace/1"}` + "\n" + `{"dir":"in","peer":"1.2.3.4","addrs":["x"]}` + "\n",
		"time overflow":    `{"format":"pplive-trace/1"}` + "\n" + `{"atMicros":100000000000000000,"dir":"in","peer":"1.2.3.4"}` + "\n",
		"negative time":    `{"format":"pplive-trace/1"}` + "\n" + `{"atMicros":-1,"dir":"in","peer":"1.2.3.4"}` + "\n",
		"negative size":    `{"format":"pplive-trace/1"}` + "\n" + `{"dir":"in","peer":"1.2.3.4","size":-1}` + "\n",
		"negative payload": `{"format":"pplive-trace/1"}` + "\n" + `{"dir":"in","peer":"1.2.3.4","payload":-1}` + "\n",
	}
	for name, input := range cases {
		_, _, err := Read(strings.NewReader(input))
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if strings.Count(input, "\n") > 1 && !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%s: error %q does not name line 2", name, err)
		}
	}
}

// TestWriteLineLimit: Write writes every line Read takes back, up to the
// 1 MiB limit newline included, and refuses with ErrLineTooLong, not writing
// it, any line past it. HTML characters are written as they are, so a probe
// name of 200 000 '<' is a 200 KB line; invalid UTF-8 still grows sixfold.
func TestWriteLineLimit(t *testing.T) {
	var empty bytes.Buffer
	if err := Write(&empty, Header{}, nil); err != nil {
		t.Fatal(err)
	}
	fill := maxLine - empty.Len() // probe-name bytes that make a maxLine line
	for _, c := range []struct {
		name, probe string
		tooLong     bool
	}{
		{"200000 '<'", strings.Repeat("<", 200_000), false},
		{"200000 '&'", strings.Repeat("&", 200_000), false},
		{"line of the limit", strings.Repeat("x", fill), false},
		{"line one past the limit", strings.Repeat("x", fill+1), true},
		{"200000 invalid bytes", strings.Repeat("\xff", 200_000), true},
	} {
		var buf bytes.Buffer
		err := Write(&buf, Header{Probe: c.probe}, sampleRecords())
		if c.tooLong {
			if !errors.Is(err, ErrLineTooLong) || buf.Len() != 0 {
				t.Errorf("%s: Write returned %v after %d bytes, want ErrLineTooLong and nothing written", c.name, err, buf.Len())
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		hdr, records, err := Read(&buf)
		if err != nil {
			t.Errorf("%s: Read of the written trace: %v", c.name, err)
			continue
		}
		if hdr.Probe != c.probe || !reflect.DeepEqual(records, sampleRecords()) {
			t.Errorf("%s: the trace did not read back unchanged", c.name)
		}
	}
}

// FuzzRead checks that whatever Read accepts is a trace: written back out and
// read again it gives an equal header and equal records. A string Read accepts
// is valid UTF-8 with its control characters escaped, so written back it
// grows at most threefold (U+2028 as \u2028); inputs under a third of the
// 1 MiB line limit, less room for the header's keys, always fit.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleHeader(), sampleRecords()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	const hdr = `{"format":"pplive-trace/1"}` + "\n"
	for _, line := range []string{
		`{"atMicros":100000000000000000,"dir":"in","peer":"1.2.3.4"}`,
		`{"atMicros":-1,"dir":"in","peer":"1.2.3.4"}`,
		`{"dir":"in","peer":"1.2.3.4","size":-1}`,
		`{"dir":"in","peer":"1.2.3.4","payload":-1}`,
	} {
		f.Add([]byte(hdr + line + "\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > (maxLine-1<<10)/3 {
			return
		}
		hdr, records, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, hdr, records); err != nil {
			t.Fatalf("Write of an accepted trace: %v", err)
		}
		hdr2, records2, err := Read(&out)
		if err != nil {
			t.Fatalf("Read of a written trace: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(hdr2, hdr) {
			t.Errorf("header %+v reads back as %+v", hdr, hdr2)
		}
		if !reflect.DeepEqual(records2, records) {
			t.Errorf("records %+v read back as %+v", records, records2)
		}
	})
}

func TestMatchableAfterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleHeader(), sampleRecords()); err != nil {
		t.Fatal(err)
	}
	hdr, records, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, trackers, err := hdr.ParseAddrs()
	if err != nil {
		t.Fatal(err)
	}
	m := capture.Match(records, trackers)
	if len(m.Transmissions) != 1 {
		t.Errorf("matched %d transmissions after round trip", len(m.Transmissions))
	}
	if len(m.TrackerLists) != 1 {
		t.Errorf("matched %d tracker lists after round trip", len(m.TrackerLists))
	}
}

// Property: arbitrary records survive the round trip.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50)
		records := make([]capture.Record, 0, n)
		for i := 0; i < n; i++ {
			rec := capture.Record{
				At:   time.Duration(rng.Int63n(int64(time.Hour))),
				Dir:  capture.Direction(1 + rng.Intn(2)),
				Peer: netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}),
				Type: wire.Type(1 + rng.Intn(14)),
				Size: rng.Intn(2000),
				Seq:  rng.Uint64(),
			}
			// JSON drops sub-microsecond precision by design; stay on-grid.
			rec.At = rec.At.Truncate(time.Microsecond)
			records = append(records, rec)
		}
		var buf bytes.Buffer
		if err := Write(&buf, sampleHeader(), records); err != nil {
			return false
		}
		_, got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(records) {
			return false
		}
		for i := range records {
			if got[i].At != records[i].At || got[i].Peer != records[i].Peer ||
				got[i].Dir != records[i].Dir || got[i].Seq != records[i].Seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

// BenchmarkRead reads the three-record sample trace: what a short trace costs
// in allocated bytes, which the line buffer's starting size dominates.
func BenchmarkRead(b *testing.B) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleHeader(), sampleRecords()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
