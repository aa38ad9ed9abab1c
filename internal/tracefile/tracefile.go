// Package tracefile persists probe packet traces as JSON lines, one
// captured datagram per line — the workflow of the paper's methodology,
// where Wireshark captures were saved and analyzed offline. cmd/tracegen
// writes this format and cmd/analyze consumes it.
package tracefile

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/netip"
	"time"

	"pplivesim/internal/capture"
	"pplivesim/internal/wire"
)

// Header is the first line of a trace file: capture context needed to
// re-run the analysis (probe identity, tracker set, source address).
type Header struct {
	Format   string   `json:"format"` // "pplive-trace/1"
	Probe    string   `json:"probe"`
	ProbeISP string   `json:"probeIsp"`
	Source   string   `json:"source"`
	Trackers []string `json:"trackers"`
	Channel  uint32   `json:"channel"`
}

// FormatV1 identifies the current trace format.
const FormatV1 = "pplive-trace/1"

// Line is the JSON form of one captured datagram.
type Line struct {
	AtMicros int64    `json:"atMicros"`
	Dir      string   `json:"dir"` // "in" or "out"
	Peer     string   `json:"peer"`
	Type     byte     `json:"type"`
	TypeName string   `json:"typeName,omitempty"`
	Size     int      `json:"size"`
	Seq      uint64   `json:"seq,omitempty"`
	Count    uint16   `json:"count,omitempty"`
	Payload  int      `json:"payload,omitempty"`
	Addrs    []string `json:"addrs,omitempty"`
}

// maxAtMicros is the latest capture time a line can hold: one microsecond
// more overflows time.Duration.
const maxAtMicros = math.MaxInt64 / int64(time.Microsecond)

// maxLine is the longest line, newline included, that Read takes and Write
// writes.
const maxLine = 1 << 20

// ErrLineTooLong is what Write returns for a header or record whose line would
// be longer than Read takes. Strings are written as they are, but invalid
// UTF-8 and control characters still grow up to sixfold when escaped.
var ErrLineTooLong = fmt.Errorf("tracefile: line longer than %d bytes", maxLine)

// Write serializes a header and records to w. It writes no line that Read
// would refuse as too long: it stops at such a line with ErrLineTooLong.
func Write(w io.Writer, hdr Header, records []capture.Record) error {
	bw := bufio.NewWriter(w)
	var line bytes.Buffer
	enc := json.NewEncoder(&line)
	enc.SetEscapeHTML(false)
	encode := func(v any) error {
		line.Reset()
		if err := enc.Encode(v); err != nil {
			return err
		}
		if line.Len() > maxLine {
			return ErrLineTooLong
		}
		_, err := bw.Write(line.Bytes())
		return err
	}
	hdr.Format = FormatV1
	if err := encode(hdr); err != nil {
		return fmt.Errorf("tracefile: write header: %w", err)
	}
	for i, rec := range records {
		l := Line{
			AtMicros: rec.At.Microseconds(),
			Dir:      rec.Dir.String(),
			Peer:     rec.Peer.String(),
			Type:     byte(rec.Type),
			TypeName: rec.Type.String(),
			Size:     rec.Size,
			Seq:      rec.Seq,
			Count:    rec.Count,
			Payload:  rec.Payload,
		}
		for _, a := range rec.Addrs {
			l.Addrs = append(l.Addrs, a.String())
		}
		if err := encode(l); err != nil {
			return fmt.Errorf("tracefile: write record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read parses a trace file back into a header and records. Its line buffer
// starts small and grows to maxLine, so a short trace does not pay for the
// longest line.
func Read(r io.Reader) (Header, []capture.Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return Header{}, nil, err
		}
		return Header{}, nil, fmt.Errorf("tracefile: empty input")
	}
	var hdr Header
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return Header{}, nil, fmt.Errorf("tracefile: parse header: %w", err)
	}
	if hdr.Format != FormatV1 {
		return Header{}, nil, fmt.Errorf("tracefile: unsupported format %q", hdr.Format)
	}

	var records []capture.Record
	lineNo := 1
	for sc.Scan() {
		lineNo++
		var l Line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return Header{}, nil, fmt.Errorf("tracefile: line %d: %w", lineNo, err)
		}
		if l.AtMicros < 0 || l.AtMicros > maxAtMicros || l.Size < 0 || l.Payload < 0 {
			return Header{}, nil, fmt.Errorf("tracefile: line %d: atMicros %d (max %d), size %d or payload %d out of range",
				lineNo, l.AtMicros, maxAtMicros, l.Size, l.Payload)
		}
		rec := capture.Record{
			At:      time.Duration(l.AtMicros) * time.Microsecond,
			Type:    wire.Type(l.Type),
			Size:    l.Size,
			Seq:     l.Seq,
			Count:   l.Count,
			Payload: l.Payload,
		}
		switch l.Dir {
		case "in":
			rec.Dir = capture.In
		case "out":
			rec.Dir = capture.Out
		default:
			return Header{}, nil, fmt.Errorf("tracefile: line %d: bad direction %q", lineNo, l.Dir)
		}
		peer, err := netip.ParseAddr(l.Peer)
		if err != nil {
			return Header{}, nil, fmt.Errorf("tracefile: line %d: peer: %w", lineNo, err)
		}
		rec.Peer = peer
		for _, s := range l.Addrs {
			a, err := netip.ParseAddr(s)
			if err != nil {
				return Header{}, nil, fmt.Errorf("tracefile: line %d: addr: %w", lineNo, err)
			}
			rec.Addrs = append(rec.Addrs, a)
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		return Header{}, nil, err
	}
	return hdr, records, nil
}

// ParseAddrs converts the header's string addresses back to netip values.
func (h Header) ParseAddrs() (source netip.Addr, trackers map[netip.Addr]bool, err error) {
	if h.Source != "" {
		source, err = netip.ParseAddr(h.Source)
		if err != nil {
			return netip.Addr{}, nil, fmt.Errorf("tracefile: source: %w", err)
		}
	}
	trackers = make(map[netip.Addr]bool, len(h.Trackers))
	for _, s := range h.Trackers {
		a, err := netip.ParseAddr(s)
		if err != nil {
			return netip.Addr{}, nil, fmt.Errorf("tracefile: tracker: %w", err)
		}
		trackers[a] = true
	}
	return source, trackers, nil
}
