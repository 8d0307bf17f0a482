package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"

	"parroute/internal/geom"
)

// jsonResult is the stable on-disk form of a Result, read by
// ReadResultJSON and written field for field by AppendJSON. Wires are
// stored flat; durations in nanoseconds.
type jsonResult struct {
	Circuit string `json:"circuit"`
	Algo    string `json:"algo"`
	Procs   int    `json:"procs"`

	Wires           []jsonWire  `json:"wires"`
	ChannelDensity  []int       `json:"channelDensity"`
	TotalTracks     int         `json:"totalTracks"`
	Area            int64       `json:"area"`
	Wirelength      int64       `json:"wirelength"`
	Feedthroughs    int         `json:"feedthroughs"`
	ForcedEdges     int         `json:"forcedEdges"`
	CoreWidth       int         `json:"coreWidth"`
	SwitchableWires int         `json:"switchableWires"`
	SwitchFlips     int         `json:"switchFlips"`
	CoarseFlips     int         `json:"coarseFlips"`
	ElapsedNS       int64       `json:"elapsedNs"`
	Phases          []jsonPhase `json:"phases,omitempty"`
	// Degraded is omitted when false so fault-free and non-degraded chaos
	// runs stay byte-identical. Faults (see Result.Faults) never
	// serialize, for the same reason.
	Degraded bool `json:"degraded,omitempty"`
}

type jsonWire struct {
	Net        int  `json:"net"`
	Channel    int  `json:"ch"`
	Lo         int  `json:"lo"`
	Hi         int  `json:"hi"`
	Switchable bool `json:"sw,omitempty"`
	Row        int  `json:"row,omitempty"`
	AX         int  `json:"ax"`
	ARow       int  `json:"ar"`
	BX         int  `json:"bx"`
	BRow       int  `json:"br"`
}

type jsonPhase struct {
	Name      string        `json:"name"`
	ElapsedNS int64         `json:"elapsedNs"`
	Counters  []jsonCounter `json:"counters,omitempty"`
}

type jsonCounter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// WriteJSON serializes the result as one line of JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	_, err := w.Write(append(r.AppendJSON(nil), '\n'))
	return err
}

// AppendJSON appends the result's JSON form to dst and returns the
// extended slice. The bytes are exactly what encoding/json emits for
// jsonResult (field order, omitempty rules, HTML-safe string escaping)
// without the trailing newline, written in one pass with no reflection:
// the daemon serializes every result it computes, and a primary2 result
// is about 700 KB of integers.
func (r *Result) AppendJSON(dst []byte) []byte {
	// Routed wires average about 75 bytes (primary2); reserving 90 each
	// sizes the buffer once at that scale, and append grows it past.
	dst = slices.Grow(dst, 256+90*len(r.Wires)+8*len(r.ChannelDensity))
	dst = append(dst, `{"circuit":`...)
	dst = appendString(dst, r.Circuit)
	dst = append(dst, `,"algo":`...)
	dst = appendString(dst, r.Algo)
	dst = appendField(dst, "procs", int64(r.Procs))
	dst = append(dst, `,"wires":[`...)
	for i := range r.Wires {
		w := &r.Wires[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"net":`...)
		dst = strconv.AppendInt(dst, int64(w.Net), 10)
		dst = appendField(dst, "ch", int64(w.Channel))
		dst = appendField(dst, "lo", int64(w.Span.Lo))
		dst = appendField(dst, "hi", int64(w.Span.Hi))
		if w.Switchable {
			dst = append(dst, `,"sw":true`...)
		}
		if w.Row != 0 {
			dst = appendField(dst, "row", int64(w.Row))
		}
		dst = appendField(dst, "ax", int64(w.AX))
		dst = appendField(dst, "ar", int64(w.ARow))
		dst = appendField(dst, "bx", int64(w.BX))
		dst = appendField(dst, "br", int64(w.BRow))
		dst = append(dst, '}')
	}
	dst = append(dst, `],"channelDensity":`...)
	if r.ChannelDensity == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, d := range r.ChannelDensity {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(d), 10)
		}
		dst = append(dst, ']')
	}
	dst = appendField(dst, "totalTracks", int64(r.TotalTracks))
	dst = appendField(dst, "area", r.Area)
	dst = appendField(dst, "wirelength", r.Wirelength)
	dst = appendField(dst, "feedthroughs", int64(r.Feedthroughs))
	dst = appendField(dst, "forcedEdges", int64(r.ForcedEdges))
	dst = appendField(dst, "coreWidth", int64(r.CoreWidth))
	dst = appendField(dst, "switchableWires", int64(r.SwitchableWires))
	dst = appendField(dst, "switchFlips", int64(r.SwitchFlips))
	dst = appendField(dst, "coarseFlips", int64(r.CoarseFlips))
	dst = appendField(dst, "elapsedNs", r.Elapsed.Nanoseconds())
	if len(r.Phases) > 0 {
		dst = append(dst, `,"phases":[`...)
		for i, p := range r.Phases {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"name":`...)
			dst = appendString(dst, p.Name)
			dst = appendField(dst, "elapsedNs", p.Elapsed.Nanoseconds())
			if len(p.Counters) > 0 {
				dst = append(dst, `,"counters":[`...)
				for k, c := range p.Counters {
					if k > 0 {
						dst = append(dst, ',')
					}
					dst = append(dst, `{"name":`...)
					dst = appendString(dst, c.Name)
					dst = appendField(dst, "value", c.Value)
					dst = append(dst, '}')
				}
				dst = append(dst, ']')
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if r.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	return append(dst, '}')
}

// appendField appends `,"name":v`; name must need no escaping.
func appendField(dst []byte, name string, v int64) []byte {
	dst = append(dst, ',', '"')
	dst = append(dst, name...)
	dst = append(dst, '"', ':')
	return strconv.AppendInt(dst, v, 10)
}

// appendString appends s as a JSON string exactly as encoding/json
// quotes it. Names of circuits, phases and counters are plain ASCII in
// practice and are copied between quotes; anything encoding/json would
// escape (quotes, backslashes, control characters, <>&, non-ASCII) is
// left to encoding/json itself, so the two can never disagree.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// ReadResultJSON parses a result written by WriteJSON.
func ReadResultJSON(rd io.Reader) (*Result, error) {
	var jr jsonResult
	if err := json.NewDecoder(rd).Decode(&jr); err != nil {
		return nil, fmt.Errorf("metrics: decoding result: %w", err)
	}
	r := &Result{
		Circuit: jr.Circuit, Algo: jr.Algo, Procs: jr.Procs,
		ChannelDensity: jr.ChannelDensity, TotalTracks: jr.TotalTracks,
		Area: jr.Area, Wirelength: jr.Wirelength,
		Feedthroughs: jr.Feedthroughs, ForcedEdges: jr.ForcedEdges,
		CoreWidth: jr.CoreWidth, SwitchableWires: jr.SwitchableWires,
		SwitchFlips: jr.SwitchFlips, CoarseFlips: jr.CoarseFlips,
		Elapsed: time.Duration(jr.ElapsedNS), Degraded: jr.Degraded,
	}
	r.Wires = make([]Wire, len(jr.Wires))
	for i, jw := range jr.Wires {
		r.Wires[i] = Wire{
			Net: jw.Net, Channel: jw.Channel,
			Span:       geom.Interval{Lo: jw.Lo, Hi: jw.Hi},
			Switchable: jw.Switchable, Row: jw.Row,
			AX: jw.AX, ARow: jw.ARow, BX: jw.BX, BRow: jw.BRow,
		}
	}
	for _, jp := range jr.Phases {
		p := Phase{Name: jp.Name, Elapsed: time.Duration(jp.ElapsedNS)}
		for _, jc := range jp.Counters {
			p.Counters = append(p.Counters, Counter{Name: jc.Name, Value: jc.Value})
		}
		r.Phases = append(r.Phases, p)
	}
	return r, nil
}
