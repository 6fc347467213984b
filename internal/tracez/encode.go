package tracez

import (
	"io"
	"strconv"
	"time"
	"unicode/utf8"
)

// tracePid is the single process id every event carries: the pipeline
// is one OS process; tracks model its internal actors.
const tracePid = 1

// encoder incrementally writes a Chrome trace-event JSON array:
// newEncoder defers the opening bracket to the first write, writeEvents
// appends comma-separated event objects, finish closes the array (an
// eventless trace still yields the valid "[]").
type encoder struct {
	w     io.Writer
	buf   []byte
	wrote bool
}

func newEncoder(w io.Writer) *encoder {
	return &encoder{w: w, buf: make([]byte, 0, 64<<10)}
}

// writeEvents encodes and writes one batch. start is unused today (the
// events already carry start-relative timestamps) but pins the timebase
// contract into the signature should absolute stamps ever be wanted.
func (e *encoder) writeEvents(start time.Time, events []event) error {
	_ = start
	for i := range events {
		e.buf = e.buf[:0]
		if !e.wrote {
			e.buf = append(e.buf, '[', '\n')
			e.wrote = true
		} else {
			e.buf = append(e.buf, ',', '\n')
		}
		e.buf = appendEvent(e.buf, events[i])
		if _, err := e.w.Write(e.buf); err != nil {
			return err
		}
	}
	return nil
}

// finish closes the JSON array.
func (e *encoder) finish() error {
	if !e.wrote {
		_, err := io.WriteString(e.w, "[]\n")
		return err
	}
	_, err := io.WriteString(e.w, "\n]\n")
	return err
}

// appendEvent renders one trace-event object. Timestamps and durations
// are emitted in microseconds (the trace-event unit) with nanosecond
// precision preserved as three decimals.
func appendEvent(b []byte, ev event) []byte {
	b = append(b, `{"name":`...)
	b = appendJSONString(b, ev.name)
	b = append(b, `,"ph":"`...)
	b = append(b, ev.ph)
	b = append(b, `","pid":`...)
	b = strconv.AppendInt(b, tracePid, 10)
	switch ev.ph {
	case 'M':
		if ev.name == "thread_name" {
			b = append(b, `,"tid":`...)
			b = strconv.AppendInt(b, ev.tid, 10)
		}
		b = append(b, `,"args":{"name":`...)
		b = appendJSONString(b, ev.meta)
		b = append(b, '}')
	case 'C':
		b = append(b, `,"ts":`...)
		b = appendMicros(b, ev.ts)
		b = append(b, `,"args":{"value":`...)
		b = strconv.AppendInt(b, ev.val, 10)
		b = append(b, '}')
	default: // 'X'
		b = append(b, `,"tid":`...)
		b = strconv.AppendInt(b, ev.tid, 10)
		b = append(b, `,"ts":`...)
		b = appendMicros(b, ev.ts)
		b = append(b, `,"dur":`...)
		b = appendMicros(b, ev.dur)
		if len(ev.args) > 0 {
			b = append(b, `,"args":{`...)
			for i, a := range ev.args {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendJSONString(b, a.Key)
				b = append(b, ':')
				b = strconv.AppendInt(b, a.Val, 10)
			}
			b = append(b, '}')
		}
	}
	return append(b, '}')
}

// appendMicros renders a nanosecond count as fractional microseconds
// ("1234.567"), the trace-event time unit, without float round-trips.
func appendMicros(b []byte, ns int64) []byte {
	if ns < 0 {
		b = append(b, '-')
		ns = -ns
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	frac := ns % 1000
	if frac == 0 {
		return b
	}
	b = append(b, '.')
	b = append(b, byte('0'+frac/100), byte('0'+(frac/10)%10), byte('0'+frac%10))
	return b
}

// appendJSONString renders a JSON string literal. Event and track names
// are code-controlled ASCII, so the escape set is minimal; control
// characters and invalid bytes are replaced rather than emitted raw.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for _, r := range s {
		switch {
		case r == '"' || r == '\\':
			b = append(b, '\\', byte(r))
		case r < 0x20 || r == utf8.RuneError:
			b = append(b, `�`...)
		default:
			b = utf8.AppendRune(b, r)
		}
	}
	return append(b, '"')
}
