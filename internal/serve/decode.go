package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"
)

// maxPooledBody caps the buffer capacity a predict decoder returns to the
// pool: a one-off body near the 1 MiB limit must not pin its buffer for
// the process lifetime. An advanced-set vector is about 9 KB.
const maxPooledBody = 64 << 10

// predictDecoder is the pooled state of one /v1/predict body decode: the
// raw body and a scratch slice for the floats of the array being scanned.
// Nothing a decoded PredictRequest holds may point into either: the
// decoder returns to the pool when decodePredict returns, while the
// handler still reads the request, so a concurrent request would
// overwrite aliased vectors.
type predictDecoder struct {
	buf    bytes.Buffer
	floats []float64
}

var predictDecoders = sync.Pool{New: func() any { return new(predictDecoder) }}

// decodePredict decodes a /v1/predict body into req with exactly the
// result — value or error — of json.NewDecoder(body).Decode(req), which
// stays the specification. The body is read whole into a pooled buffer
// and, when it is a PredictRequest object in the strict subset of JSON
// the fast path recognises, scanned without reflection: exact lowercase
// keys, each at most once; arrays of JSON numbers; escape-free ASCII
// strings. Every other body — a read or size-limit error, unknown or
// case-variant keys, duplicates, null, escapes, an out-of-range number —
// goes byte for byte to encoding/json: the bytes read so far, then the
// rest of the body.
func decodePredict(body io.Reader, req *PredictRequest) error {
	d := predictDecoders.Get().(*predictDecoder)
	defer func() {
		if d.buf.Cap() <= maxPooledBody {
			predictDecoders.Put(d)
		}
	}()
	d.buf.Reset()
	if _, err := d.buf.ReadFrom(body); err == nil {
		if fast, ok := d.scan(d.buf.Bytes()); ok {
			*req = fast
			return nil
		}
	}
	return json.NewDecoder(io.MultiReader(bytes.NewReader(d.buf.Bytes()), body)).Decode(req)
}

// scan decodes b when its first JSON value is an object the fast path
// recognises; ok is false for anything else. Bytes after that object are
// ignored, as json.Decoder ignores them.
func (d *predictDecoder) scan(b []byte) (req PredictRequest, ok bool) {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return req, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return req, true
	}
	var seen [3]bool
	for {
		end := scanString(b, i)
		if end < 0 {
			return req, false
		}
		key := b[i:end]
		i = skipSpace(b, end)
		if i >= len(b) || b[i] != ':' {
			return req, false
		}
		i = skipSpace(b, i+1)
		var field int
		switch string(key) {
		case `"features"`:
			field = 0
			req.Features, i = d.scanFloats(b, i)
		case `"set"`:
			field = 1
			req.Set, i = scanText(b, i)
		case `"class"`:
			field = 2
			req.Class, i = scanText(b, i)
		default:
			return req, false
		}
		if i < 0 || seen[field] {
			return req, false
		}
		seen[field] = true
		i = skipSpace(b, i)
		if i >= len(b) {
			return req, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return req, true
		default:
			return req, false
		}
	}
}

// scanFloats scans an array of JSON numbers starting at b[i] into a fresh
// slice of exactly its length (non-nil when empty, as encoding/json
// leaves it). Each literal is checked against the JSON number grammar,
// then converted by parseFloat to the value strconv.ParseFloat — the call
// encoding/json makes — returns, bit for bit; a literal ParseFloat
// refuses (out of range) leaves the whole body to encoding/json and its
// error.
func (d *predictDecoder) scanFloats(b []byte, i int) ([]float64, int) {
	if i >= len(b) || b[i] != '[' {
		return nil, -1
	}
	fs := d.floats[:0]
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return []float64{}, i + 1
	}
	for {
		end := scanNumber(b, i)
		if end < 0 {
			return nil, -1
		}
		f, err := parseFloat(b[i:end])
		if err != nil {
			return nil, -1
		}
		fs = append(fs, f)
		if i = skipSpace(b, end); i >= len(b) {
			return nil, -1
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			d.floats = fs
			return append([]float64(nil), fs...), i + 1
		default:
			return nil, -1
		}
	}
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseFloat converts a literal that scanNumber accepted exactly as
// strconv.ParseFloat(string(lit), 64) does. A literal without an exponent
// whose at most 16 significant digits form a mantissa m <= 2^53, with f
// <= 22 fraction digits, is m / 10^f: both operands are exact float64s,
// so the one correctly rounded division is the correctly rounded value of
// the literal (Clinger's fast path), with no string made. Every other
// literal goes to strconv.ParseFloat.
func parseFloat(lit []byte) (float64, error) {
	i := 0
	if lit[0] == '-' {
		i++
	}
	var mant uint64
	digits, frac, dot := 0, 0, false
	for ; i < len(lit); i++ {
		c := lit[i]
		if c == '.' {
			dot = true
			continue
		}
		if c < '0' || c > '9' {
			return strconv.ParseFloat(string(lit), 64) // an exponent
		}
		if dot {
			frac++
		}
		if mant == 0 && c == '0' {
			continue // a leading zero is not significant
		}
		if digits++; digits > 16 {
			return strconv.ParseFloat(string(lit), 64)
		}
		mant = mant*10 + uint64(c-'0')
	}
	if frac >= len(pow10) || mant > 1<<53 {
		return strconv.ParseFloat(string(lit), 64)
	}
	f := float64(mant) / pow10[frac]
	if lit[0] == '-' {
		f = -f
	}
	return f, nil
}

// scanText scans a string value starting at b[i] and returns it copied
// out of b.
func scanText(b []byte, i int) (string, int) {
	end := scanString(b, i)
	if end < 0 {
		return "", -1
	}
	return string(b[i+1 : end-1]), end
}

// scanString returns the end of the string literal starting at b[i],
// closing quote included, or -1 unless it is printable ASCII without
// escapes, which decodes to exactly its bytes.
func scanString(b []byte, i int) int {
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return j + 1
		case c == '\\' || c < 0x20 || c > 0x7e:
			return -1
		}
	}
	return -1
}

// scanNumber returns the end of the JSON number starting at b[i]
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?), or -1.
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// skipSpace skips JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}
