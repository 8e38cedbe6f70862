package fed

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"repro/dispatch"
)

// The wire codec is held to encoding/json: every task body the scanner
// accepts must decode to exactly the struct json.Decoder gives (bit for
// bit, -0 included), every body decodes through the codec as it does
// through json.Decoder, errors included, and reads no further into the
// stream than it does; every appended answer is byte-identical to
// json.Encoder's.

// tail records whether a read went past the body's last byte, to the
// EOF or the error the body ends in.
type tail struct {
	r   io.Reader
	hit bool
}

func (t *tail) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if err != nil {
		t.hit = true
	}
	return n, err
}

// checkWire holds one task body to json.Decoder: the scanner alone,
// when it accepts; then the codec over src, which must accept what the
// reference accepts with the same struct, or refuse with the same
// error, and must read past the body's end only when the reference
// does. It returns the codec's error.
func checkWire(t *testing.T, body []byte, src func() io.Reader) error {
	t.Helper()
	var want dispatch.Task
	ref := &tail{r: src()}
	wantErr := json.NewDecoder(ref).Decode(&want)

	var scanned dispatch.Task
	if (&scanner{b: body}).task(&scanned) {
		var whole dispatch.Task
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&whole); err != nil {
			t.Fatalf("scanner accepted %q, encoding/json refuses it: %v", body, err)
		}
		if g, w := fmt.Sprintf("%#v", scanned), fmt.Sprintf("%#v", whole); g != w {
			t.Fatalf("scanner read %q as\n%s\nencoding/json as\n%s", body, g, w)
		}
	}

	wb := getBuf()
	defer putBuf(wb)
	codec := &tail{r: src()}
	got, err := decodeTask(wb, codec)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("body %q: codec error %v, encoding/json error %v", body, err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		t.Fatalf("body %q: codec error %q, encoding/json error %q", body, err, wantErr)
	case err == nil && fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want):
		t.Fatalf("body %q: codec read\n%#v\nencoding/json\n%#v", body, got, want)
	case codec.hit != ref.hit:
		t.Fatalf("body %q: codec read past its end %v, encoding/json %v", body, codec.hit, ref.hit)
	}
	return err
}

// canonicalTask is the benchmark's body shape: json.Marshal of a task.
func canonicalTask() []byte {
	b, err := json.Marshal(dispatch.Task{
		ID: 417, Publish: 3071.2513,
		Source:  dispatch.Point{Lat: 41.15913, Lon: -8.62883},
		Dest:    dispatch.Point{Lat: 41.17214, Lon: -8.58911},
		StartBy: 3371.2513, EndBy: 4082.77, Price: 7.314,
	})
	if err != nil {
		panic(err)
	}
	return b
}

// wireSeeds are the named inputs.
func wireSeeds() []string {
	task := string(canonicalTask())
	over := task[:len(task)-1] + strings.Repeat(" ", wireCap-len(task)+1) + "}"
	return []string{
		task, `{"publish":-0}`,
		`{"ID":1}`, `{"\u0069d":1}`, `{"id":1,"publish":null}`,
		`{"source":{"lat":1},"source":{"lon":2}}`,
		`{"id":1}}{`, `{"id":1} garbage`, `{"price":2}{`,
		`{"id":1e2}`, `{"id":-0}`, `{"id":1e400}`, `{"id":01}`,
		`{"publish":1e400}`, `{"price":-0}`, `{"wtp":01}`,
		`{"publish":1e-400}`, `{"publish":4.9e-324}`, `{"publish":1E+2}`, `{"publish":-1.5e-7}`,
		`{"id":9223372036854775807}`, `{"id":9223372036854775808}`, `{"id":1.0}`,
		" \t\r\n{ \"id\" : 1 , \"price\" : 2 }\n", `{}`, `{"unknown":1}`, `{"source":{"alt":1}}`,
		`{"source":null}`, `{"id":"1"}`, `{"price":true}`, `{"price":[1]}`,
		`{"price":-}`, `{"price":1.}`, `{"price":.5}`, `{"price":+1}`, `{"price":1e}`,
		`{"id":1,}`, `{,}`, `{"id" 1}`, `{"id":1`, `{"id`, `{`, ``, ` `, `null`, `[]`, `1`,
		"\xef\xbb\xbf{\"id\":1}", `{"i\"d":1}`, "{\"id\x00\":1}", "{\"a\x01",
		over, over[:len(over)-2] + "}",
	}
}

// FuzzWireBody holds the codec to json.Decoder on arbitrary task
// bodies. Bit 0 of mode reads the body a byte at a time and bit 1 ends
// it in a read error rather than EOF, so the scan after each read, the
// cap and the prefix-plus-rest hand-off are exercised too. A body both
// refuse is also posted to MarketHandler, which must answer 400 with
// the invalid-task prefix.
func FuzzWireBody(f *testing.F) {
	for _, s := range wireSeeds() {
		for mode := uint8(0); mode < 4; mode++ {
			f.Add(mode, []byte(s))
		}
	}

	svc, err := dispatch.New(dispatch.Market{Drivers: []dispatch.Driver{{ID: 0, End: 86400}}})
	if err != nil {
		f.Fatal(err)
	}
	defer svc.Close()
	h := MarketHandler(svc, nil)
	boom := errors.New("connection reset")
	const prefix = "dispatch: invalid task: "

	f.Fuzz(func(t *testing.T, mode uint8, body []byte) {
		src := func() io.Reader {
			r := io.Reader(bytes.NewReader(body))
			if mode&1 != 0 {
				r = iotest.OneByteReader(r)
			}
			if mode&2 != 0 {
				r = io.MultiReader(r, iotest.ErrReader(boom))
			}
			return r
		}
		if err := checkWire(t, body, src); err == nil || mode&2 != 0 {
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tasks", bytes.NewReader(body)))
		var answer struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &answer); err != nil {
			t.Fatalf("%q: answer %q: %v", body, rec.Body.String(), err)
		}
		if rec.Code != http.StatusBadRequest || !strings.HasPrefix(answer.Error, prefix) {
			t.Fatalf("%q: answered %d %q, want 400 %q…", body, rec.Code, answer.Error, prefix)
		}
	})
}

// TestScannerTakesCanonicalBodies: what json.Marshal writes for a task
// is scanned, not handed on, for values across the float encoder's
// 'f'/'e' boundaries, and reads back bit for bit.
func TestScannerTakesCanonicalBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 2000; i++ {
		f := func() float64 { return wireFloat(rng) }
		scanBack(t, dispatch.Task{ID: int(rng.Int63()) - 1<<62, Publish: f(),
			Source: dispatch.Point{Lat: f(), Lon: f()}, Dest: dispatch.Point{Lat: f(), Lon: f()},
			StartBy: f(), EndBy: f(), Price: f(), WTP: f()})
	}
}

// scanBack scans json.Marshal(in), which must be accepted and read as
// encoding/json reads it (an omitempty -0 comes back as 0).
func scanBack(t *testing.T, in dispatch.Task) {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out, want dispatch.Task
	if !(&scanner{b: b}).task(&out) {
		t.Fatalf("scanner declined the canonical body %s", b)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if g, w := fmt.Sprintf("%#v", out), fmt.Sprintf("%#v", want); g != w {
		t.Fatalf("body %s read back as\n%s\nwant\n%s", b, g, w)
	}
}

// wireFloat draws a float from every regime encoding/json formats
// differently: zero and -0, subnormals, either side of 1e-6 and 1e21,
// integers, and plain decimals.
func wireFloat(rng *rand.Rand) float64 {
	edges := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, math.Nextafter(1e-6, 0), 1e21,
		math.Nextafter(1e21, 0), 1e20, 5e-324, 2.2250738585072014e-308, math.MaxFloat64,
		math.SmallestNonzeroFloat64 * 3, 123456789, 0.1, 1e-9, 1.5e300}
	switch rng.Intn(4) {
	case 0:
		f := edges[rng.Intn(len(edges))]
		if rng.Intn(2) == 0 {
			f = -f
		}
		return f
	case 1:
		return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(0x7ff))<<52)
	case 2:
		return float64(rng.Intn(200000) - 100000)
	}
	return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(40)-20))
}

// TestAppendedAnswersMatchEncoder: the appended Assignment is
// json.Encoder's bytes, over random values with every
// 'e' boundary and over every Pending/omitempty combination.
func TestAppendedAnswersMatchEncoder(t *testing.T) {
	encode := func(v any) string {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 20000; i++ {
		var f [3]float64
		for k := range f {
			f[k] = wireFloat(rng)
			if rng.Intn(3) == 0 { // the omitempty fields are often empty
				f[k] = 0
			}
		}
		a := dispatch.Assignment{TaskID: rng.Intn(1<<20) - 1, Assigned: i&1 != 0, DriverID: rng.Intn(1<<20) - 1,
			PickupBy: f[0], DecidedAt: f[1], Pending: i&2 != 0, DecideBy: f[2]}
		if got, want := string(appendAssignment(nil, a)), encode(a); got != want {
			t.Fatalf("%#v:\nappended %q\nencoder  %q", a, got, want)
		}
	}
	// Every omitempty combination, with -0 where a field is empty.
	for mask := 0; mask < 16; mask++ {
		a := dispatch.Assignment{TaskID: 7, Assigned: mask&1 != 0, DriverID: -1, DecidedAt: math.Copysign(0, -1)}
		if mask&2 != 0 {
			a.PickupBy = 1e-7
		} else {
			a.PickupBy = math.Copysign(0, -1)
		}
		a.Pending = mask&4 != 0
		if mask&8 != 0 {
			a.DecideBy = 1e21
		}
		if got, want := string(appendAssignment(nil, a)), encode(a); got != want {
			t.Fatalf("mask %04b: appended %q, encoder %q", mask, got, want)
		}
	}
}

// TestCodecCoversEveryField: the scanner and appendAssignment name
// dispatch's fields by hand, so a field added to Task, Point or
// Assignment must fail here until the codec learns it. Every field is
// set, to a value of its own, so json.Marshal writes every key, omitempty
// ones too: the scanner must take the task's body and read it back, and
// the appended assignment must equal json.Encoder's.
func TestCodecCoversEveryField(t *testing.T) {
	var task dispatch.Task
	fillFields(t, reflect.ValueOf(&task).Elem(), new(int))
	scanBack(t, task)

	var a dispatch.Assignment
	fillFields(t, reflect.ValueOf(&a).Elem(), new(int))
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(a); err != nil {
		t.Fatal(err)
	}
	if got := string(appendAssignment(nil, a)); got != buf.String() {
		t.Fatalf("%#v:\nappended %q\nencoder  %q", a, got, buf.String())
	}
}

// fillFields sets every field of the struct v to a distinct non-zero
// value, counting with next, and refuses a kind the codec has no case
// for.
func fillFields(t *testing.T, v reflect.Value, next *int) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		*next++
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(int64(*next))
		case reflect.Float64:
			f.SetFloat(float64(*next) + 0.25)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Struct:
			fillFields(t, f, next)
		default:
			t.Fatalf("%s.%s: a %s field, which the wire codec has no case for",
				v.Type(), v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestWireAllocs pins the hot path: decoding a canonical task body and
// appending its answer allocate nothing.
func TestWireAllocs(t *testing.T) {
	body := canonicalTask()
	rd := bytes.NewReader(body)
	var sink dispatch.Task
	if n := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		wb := getBuf()
		task, err := decodeTask(wb, rd)
		if err != nil {
			t.Fatal(err)
		}
		sink = task
		putBuf(wb)
	}); n != 0 {
		t.Errorf("decoding a canonical task body: %v allocations, want 0", n)
	}
	if sink.ID != 417 {
		t.Fatalf("decoded %+v", sink)
	}
	a := dispatch.Assignment{TaskID: 417, Assigned: true, DriverID: 1203, PickupBy: 3190.0626, DecidedAt: 3071.2513}
	wb := getBuf()
	defer putBuf(wb)
	if n := testing.AllocsPerRun(200, func() { wb.b = appendAssignment(wb.b[:0], a) }); n != 0 {
		t.Errorf("appending an assignment: %v allocations, want 0", n)
	}
}
