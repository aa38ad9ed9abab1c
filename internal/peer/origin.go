package peer

import (
	"net/netip"
	"time"

	"pplivesim/internal/node"
	"pplivesim/internal/stream"
	"pplivesim/internal/wire"
)

// shedBacklog is the uplink backlog past which an origin sheds data requests
// instead of queueing full replies beyond their deadlines.
const shedBacklog = 2 * time.Second

// Origin serves one channel from a cache that holds every sub-piece up to the
// live edge: the channel source's data plane, and what a CDN edge runs per
// channel it carries. Its stream clock starts at construction and is never
// stopped, so whoever owns the Origin can drop traffic while "down" and find
// the live edge where it should be on recovery.
type Origin struct {
	env  node.Env
	spec stream.Spec

	// start is the instant the channel went live here (sequence 0's
	// emission).
	start time.Duration

	served      uint64
	servedBytes uint64
	shed        uint64
}

// NewOrigin creates the channel's server on env, live since the current
// instant.
func NewOrigin(env node.Env, spec stream.Spec) (*Origin, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Origin{env: env, spec: spec, start: env.Now()}, nil
}

// Spec returns the channel spec.
func (o *Origin) Spec() stream.Spec { return o.spec }

// Edge returns the newest emitted sequence at now.
func (o *Origin) Edge(now time.Duration) uint64 {
	return o.spec.EdgeSeq(now - o.start)
}

// Stats reports data requests served, payload bytes sent, and requests shed
// with Busy replies.
func (o *Origin) Stats() (served, servedBytes, shed uint64) {
	return o.served, o.servedBytes, o.shed
}

// bufferMap returns a map covering the trailing window up to the live edge,
// all bits set, in words' storage when it is large enough.
func (o *Origin) bufferMap(words []uint64, now time.Duration) wire.BufferMap {
	const window = 2048
	edge := o.Edge(now)
	start := uint64(0)
	if edge+1 > window {
		start = edge + 1 - window
	}
	bm := wire.ResetBufferMap(words, start, window)
	if edge >= start {
		bm.SetRange(start, edge)
	}
	return bm
}

// Serve answers a handshake, data request or ping for the origin's channel
// and reports whether msg was one; anything else, and any message for another
// channel, is left alone. A data request gets the prefix run of the asked-for
// sub-pieces that exist at now — or, once the uplink backs up, a tiny Busy
// reply: a saturated origin sheds rather than queueing full replies past
// their deadlines, and the requester frees its slot at once instead of
// burning a request timeout on it. A request wholly past the live edge gets
// no reply.
func (o *Origin) Serve(from netip.Addr, msg wire.Message) bool {
	switch m := msg.(type) {
	case *wire.Handshake:
		if m.Channel != o.spec.Channel {
			return false
		}
		ack := wire.NewHandshakeAck(m.Channel, true)
		ack.Buffer = o.bufferMap(ack.Buffer.Words, o.env.Now())
		o.env.Send(from, ack)
	case *wire.DataRequest:
		if m.Channel != o.spec.Channel {
			return false
		}
		if o.env.UplinkBacklog() > shedBacklog {
			o.shed++
			o.env.Send(from, wire.NewDataReply(m.Channel, m.Seq, 0, uint16(o.spec.SubPieceLen), true))
			return true
		}
		edge := o.Edge(o.env.Now())
		if m.Seq > edge {
			return true
		}
		run := uint64(m.Count)
		if run == 0 {
			run = 1
		}
		if avail := edge - m.Seq + 1; run > avail {
			run = avail
		}
		o.served++
		o.servedBytes += run * uint64(o.spec.SubPieceLen)
		o.env.Send(from, wire.NewDataReply(m.Channel, m.Seq, uint16(run), uint16(o.spec.SubPieceLen), false))
	case *wire.Ping:
		if m.Channel != o.spec.Channel {
			return false
		}
		o.env.Send(from, wire.NewPong(m.Channel, m.Nonce))
	default:
		return false
	}
	return true
}
