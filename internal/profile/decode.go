package profile

// A minimal decoder for the pprof wire format (gzip-compressed protobuf,
// profile.proto) built on a hand-rolled varint walker — no generated code,
// no dependencies. It decodes exactly the subset the analyzer needs: the
// sample-type table, every sample with its stack and string labels, the
// location→function tables, and the sampling period.
//
// The decoder follows the exact-read discipline of internal/wire: every
// byte of the input must be consumed (a nested message that over- or
// under-runs its declared length is an error, and trailing garbage after
// the top-level message is an error), declared lengths are validated
// against the bytes actually present before anything is allocated, and all
// allocation is proportional to the input itself — protobuf carries no
// up-front element counts, so slices and maps only ever grow as bytes are
// parsed. Gzip output is capped so a tiny hostile input cannot balloon
// into an arbitrarily large decompression.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// maxDecompressed caps the size of a decompressed profile. Real runtime
// profiles are a few hundred KiB; 64 MiB leaves two orders of magnitude of
// headroom while bounding decompression bombs.
const maxDecompressed = 64 << 20

var errTruncated = errors.New("profile: truncated input")

// rawProfile is the decoded, string-resolved subset of profile.proto.
type rawProfile struct {
	sampleTypes []valueType
	samples     []rawSample
	// locFuncs maps a location id to its function names, leaf-most
	// (deepest inline frame) first, matching Location.Line order.
	locFuncs   map[uint64][]string
	periodNS   int64
	durationNS int64
	timeNS     int64
}

type valueType struct {
	typ  string
	unit string
}

type rawSample struct {
	locs   []uint64
	values []int64
	labels map[string]string
}

// decodeProfile parses a pprof profile, transparently decompressing the
// gzip framing the runtime emits. Plain (uncompressed) protobuf is also
// accepted so analysis can round-trip its own buffers.
func decodeProfile(data []byte) (*rawProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: gzip: %w", err)
		}
		zr.Multistream(false)
		plain, err := io.ReadAll(io.LimitReader(zr, maxDecompressed+1))
		if err != nil {
			return nil, fmt.Errorf("profile: gunzip: %w", err)
		}
		if len(plain) > maxDecompressed {
			return nil, fmt.Errorf("profile: decompressed size exceeds %d bytes", maxDecompressed)
		}
		if err := zr.Close(); err != nil {
			return nil, fmt.Errorf("profile: gzip close: %w", err)
		}
		data = plain
	}
	return parseProfile(data)
}

// pbuf is a protobuf wire-format cursor over one message's bytes.
type pbuf struct {
	b []byte
	i int
}

func (p *pbuf) done() bool { return p.i >= len(p.b) }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if p.i >= len(p.b) {
			return 0, errTruncated
		}
		c := p.b[p.i]
		p.i++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflows 64 bits")
}

// field reads one field tag, returning the field number and wire type.
func (p *pbuf) field() (num int, wt int, err error) {
	tag, err := p.varint()
	if err != nil {
		return 0, 0, err
	}
	if tag>>3 == 0 || tag>>3 > 1<<29 {
		return 0, 0, fmt.Errorf("profile: invalid field number %d", tag>>3)
	}
	return int(tag >> 3), int(tag & 7), nil
}

// bytesField reads a length-delimited payload, validating the declared
// length against the bytes actually present.
func (p *pbuf) bytesField() ([]byte, error) {
	n, err := p.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(p.b)-p.i) {
		return nil, fmt.Errorf("profile: declared length %d exceeds remaining %d bytes", n, len(p.b)-p.i)
	}
	out := p.b[p.i : p.i+int(n)]
	p.i += int(n)
	return out, nil
}

// skip consumes one field's payload for an unhandled field number.
func (p *pbuf) skip(wt int) error {
	switch wt {
	case 0:
		_, err := p.varint()
		return err
	case 1:
		if len(p.b)-p.i < 8 {
			return errTruncated
		}
		p.i += 8
		return nil
	case 2:
		_, err := p.bytesField()
		return err
	case 5:
		if len(p.b)-p.i < 4 {
			return errTruncated
		}
		p.i += 4
		return nil
	default:
		return fmt.Errorf("profile: unsupported wire type %d", wt)
	}
}

// repeatedVarints parses a repeated integer field that may arrive packed
// (wire type 2) or as a single scalar (wire type 0), appending to dst.
func repeatedVarints(p *pbuf, wt int, dst []uint64) ([]uint64, error) {
	switch wt {
	case 0:
		v, err := p.varint()
		if err != nil {
			return nil, err
		}
		return append(dst, v), nil
	case 2:
		raw, err := p.bytesField()
		if err != nil {
			return nil, err
		}
		sub := pbuf{b: raw}
		for !sub.done() {
			v, err := sub.varint()
			if err != nil {
				return nil, err
			}
			dst = append(dst, v)
		}
		return dst, nil
	default:
		return nil, fmt.Errorf("profile: repeated int with wire type %d", wt)
	}
}

// Intermediate (index-based) forms, resolved against the string table once
// the whole message has been read — profile.proto gives no ordering
// guarantee between the string table and its referents.
type pbValueType struct{ typ, unit int64 }

type pbLabel struct{ key, str int64 }

type pbSample struct {
	locs   []uint64
	values []uint64
	labels []pbLabel
}

func parseProfile(data []byte) (*rawProfile, error) {
	var (
		strings     []string
		sampleTypes []pbValueType
		samples     []pbSample
		funcNames   = map[uint64]int64{}    // function id → name string index
		locLines    = map[uint64][]uint64{} // location id → function ids, leaf first
		periodType  pbValueType
		period      int64
		durationNS  int64
		timeNS      int64
	)
	p := pbuf{b: data}
	for !p.done() {
		num, wt, err := p.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type
			raw, err := expectBytes(&p, wt, "sample_type")
			if err != nil {
				return nil, err
			}
			vt, err := parseValueType(raw)
			if err != nil {
				return nil, err
			}
			sampleTypes = append(sampleTypes, vt)
		case 2: // sample
			raw, err := expectBytes(&p, wt, "sample")
			if err != nil {
				return nil, err
			}
			s, err := parseSample(raw)
			if err != nil {
				return nil, err
			}
			samples = append(samples, s)
		case 4: // location
			raw, err := expectBytes(&p, wt, "location")
			if err != nil {
				return nil, err
			}
			id, fns, err := parseLocation(raw)
			if err != nil {
				return nil, err
			}
			locLines[id] = fns
		case 5: // function
			raw, err := expectBytes(&p, wt, "function")
			if err != nil {
				return nil, err
			}
			id, name, err := parseFunction(raw)
			if err != nil {
				return nil, err
			}
			funcNames[id] = name
		case 6: // string_table
			raw, err := expectBytes(&p, wt, "string_table")
			if err != nil {
				return nil, err
			}
			strings = append(strings, string(raw))
		case 9: // time_nanos
			v, err := expectVarint(&p, wt, "time_nanos")
			if err != nil {
				return nil, err
			}
			timeNS = int64(v)
		case 10: // duration_nanos
			v, err := expectVarint(&p, wt, "duration_nanos")
			if err != nil {
				return nil, err
			}
			durationNS = int64(v)
		case 11: // period_type
			raw, err := expectBytes(&p, wt, "period_type")
			if err != nil {
				return nil, err
			}
			periodType, err = parseValueType(raw)
			if err != nil {
				return nil, err
			}
		case 12: // period
			v, err := expectVarint(&p, wt, "period")
			if err != nil {
				return nil, err
			}
			period = int64(v)
		default:
			if err := p.skip(wt); err != nil {
				return nil, err
			}
		}
	}

	str := func(idx int64) (string, error) {
		if idx < 0 || idx >= int64(len(strings)) {
			return "", fmt.Errorf("profile: string index %d out of range (table holds %d)", idx, len(strings))
		}
		return strings[idx], nil
	}

	out := &rawProfile{
		locFuncs:   make(map[uint64][]string, len(locLines)),
		durationNS: durationNS,
		timeNS:     timeNS,
	}
	for _, vt := range sampleTypes {
		t, err := str(vt.typ)
		if err != nil {
			return nil, err
		}
		u, err := str(vt.unit)
		if err != nil {
			return nil, err
		}
		out.sampleTypes = append(out.sampleTypes, valueType{typ: t, unit: u})
	}
	if period > 0 {
		unit, err := str(periodType.unit)
		if err != nil {
			return nil, err
		}
		if unit == "nanoseconds" {
			out.periodNS = period
		}
	}
	for id, fids := range locLines {
		names := make([]string, 0, len(fids))
		for _, fid := range fids {
			nameIdx, ok := funcNames[fid]
			if !ok {
				return nil, fmt.Errorf("profile: location %d references unknown function %d", id, fid)
			}
			name, err := str(nameIdx)
			if err != nil {
				return nil, err
			}
			names = append(names, name)
		}
		out.locFuncs[id] = names
	}
	for _, s := range samples {
		rs := rawSample{locs: s.locs, values: make([]int64, len(s.values))}
		for i, v := range s.values {
			rs.values[i] = int64(v)
		}
		for _, loc := range s.locs {
			if _, ok := out.locFuncs[loc]; !ok {
				return nil, fmt.Errorf("profile: sample references unknown location %d", loc)
			}
		}
		for _, l := range s.labels {
			if l.str == 0 {
				continue // numeric label; the analyzer only attributes strings
			}
			k, err := str(l.key)
			if err != nil {
				return nil, err
			}
			v, err := str(l.str)
			if err != nil {
				return nil, err
			}
			if rs.labels == nil {
				rs.labels = make(map[string]string, 4)
			}
			rs.labels[k] = v
		}
		out.samples = append(out.samples, rs)
	}
	return out, nil
}

func expectBytes(p *pbuf, wt int, what string) ([]byte, error) {
	if wt != 2 {
		return nil, fmt.Errorf("profile: %s has wire type %d, want 2", what, wt)
	}
	return p.bytesField()
}

func expectVarint(p *pbuf, wt int, what string) (uint64, error) {
	if wt != 0 {
		return 0, fmt.Errorf("profile: %s has wire type %d, want 0", what, wt)
	}
	return p.varint()
}

func parseValueType(data []byte) (pbValueType, error) {
	var vt pbValueType
	p := pbuf{b: data}
	for !p.done() {
		num, wt, err := p.field()
		if err != nil {
			return vt, err
		}
		switch num {
		case 1:
			v, err := expectVarint(&p, wt, "value_type.type")
			if err != nil {
				return vt, err
			}
			vt.typ = int64(v)
		case 2:
			v, err := expectVarint(&p, wt, "value_type.unit")
			if err != nil {
				return vt, err
			}
			vt.unit = int64(v)
		default:
			if err := p.skip(wt); err != nil {
				return vt, err
			}
		}
	}
	return vt, nil
}

func parseSample(data []byte) (pbSample, error) {
	var s pbSample
	p := pbuf{b: data}
	for !p.done() {
		num, wt, err := p.field()
		if err != nil {
			return s, err
		}
		switch num {
		case 1: // location_id
			s.locs, err = repeatedVarints(&p, wt, s.locs)
			if err != nil {
				return s, err
			}
		case 2: // value
			s.values, err = repeatedVarints(&p, wt, s.values)
			if err != nil {
				return s, err
			}
		case 3: // label
			raw, err := expectBytes(&p, wt, "sample.label")
			if err != nil {
				return s, err
			}
			l, err := parseLabel(raw)
			if err != nil {
				return s, err
			}
			s.labels = append(s.labels, l)
		default:
			if err := p.skip(wt); err != nil {
				return s, err
			}
		}
	}
	return s, nil
}

func parseLabel(data []byte) (pbLabel, error) {
	var l pbLabel
	p := pbuf{b: data}
	for !p.done() {
		num, wt, err := p.field()
		if err != nil {
			return l, err
		}
		switch num {
		case 1:
			v, err := expectVarint(&p, wt, "label.key")
			if err != nil {
				return l, err
			}
			l.key = int64(v)
		case 2:
			v, err := expectVarint(&p, wt, "label.str")
			if err != nil {
				return l, err
			}
			l.str = int64(v)
		default:
			if err := p.skip(wt); err != nil {
				return l, err
			}
		}
	}
	return l, nil
}

// parseLocation returns the location id and its function ids, leaf-most
// inline frame first (the order Location.Line carries them).
func parseLocation(data []byte) (uint64, []uint64, error) {
	var id uint64
	var fns []uint64
	p := pbuf{b: data}
	for !p.done() {
		num, wt, err := p.field()
		if err != nil {
			return 0, nil, err
		}
		switch num {
		case 1:
			id, err = expectVarint(&p, wt, "location.id")
			if err != nil {
				return 0, nil, err
			}
		case 4: // line
			raw, err := expectBytes(&p, wt, "location.line")
			if err != nil {
				return 0, nil, err
			}
			fid, err := parseLine(raw)
			if err != nil {
				return 0, nil, err
			}
			fns = append(fns, fid)
		default:
			if err := p.skip(wt); err != nil {
				return 0, nil, err
			}
		}
	}
	return id, fns, nil
}

func parseLine(data []byte) (uint64, error) {
	var fid uint64
	p := pbuf{b: data}
	for !p.done() {
		num, wt, err := p.field()
		if err != nil {
			return 0, err
		}
		switch num {
		case 1:
			v, err := expectVarint(&p, wt, "line.function_id")
			if err != nil {
				return 0, err
			}
			fid = v
		default:
			if err := p.skip(wt); err != nil {
				return 0, err
			}
		}
	}
	return fid, nil
}

func parseFunction(data []byte) (id uint64, name int64, err error) {
	p := pbuf{b: data}
	for !p.done() {
		num, wt, err := p.field()
		if err != nil {
			return 0, 0, err
		}
		switch num {
		case 1:
			v, err := expectVarint(&p, wt, "function.id")
			if err != nil {
				return 0, 0, err
			}
			id = v
		case 2:
			v, err := expectVarint(&p, wt, "function.name")
			if err != nil {
				return 0, 0, err
			}
			name = int64(v)
		default:
			if err := p.skip(wt); err != nil {
				return 0, 0, err
			}
		}
	}
	return id, name, nil
}
