package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/model"
)

// traceHash is the sha256 of every field of drivers and tasks, floats by
// their bits, in order.
func traceHash(drivers []model.Driver, tasks []model.Task) string {
	h := sha256.New()
	var b []byte
	f := func(x float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x)) }
	pt := func(p geo.Point) { f(p.Lat); f(p.Lon) }
	for _, d := range drivers {
		b = binary.LittleEndian.AppendUint64(b[:0], uint64(d.ID))
		pt(d.Source)
		pt(d.Dest)
		f(d.Start)
		f(d.End)
		f(d.SpeedKmh)
		h.Write(b)
	}
	for _, t := range tasks {
		b = binary.LittleEndian.AppendUint64(b[:0], uint64(t.ID))
		f(t.Publish)
		pt(t.Source)
		pt(t.Dest)
		f(t.StartBy)
		f(t.EndBy)
		f(t.Price)
		f(t.WTP)
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorBitsPinned holds the generator's output to the bit: any
// change to how a trace is drawn — the thinning tests, the Pareto
// constants, the hotspot weights — must leave these hashes as they are.
// The last case runs a day longer than 24 h from a non-zero start, so
// the thinning also decides times outside the envelope.
func TestGeneratorBitsPinned(t *testing.T) {
	longDay := func(c Config) Config {
		c.DayStart, c.DayEnd = 3600, 30*3600
		return c
	}
	cases := []struct {
		name          string
		cfg           Config
		drivers, both string
	}{
		{"seed27/home", NewConfig(27, 1500, 3000, HomeWorkHome),
			"8fc524b96384d69eb0b8f0074643b0402a8b2fe2f6a271bc1c08700e512c9df5",
			"df26326328cb46c71b3f1840f72b253175dee5b7a7a517af47d83b5196d4edfb"},
		{"seed27/hitch", NewConfig(27, 1500, 3000, Hitchhiking),
			"07262a9ab24ff240a3b6d256bc51da2784a976b41649e7936a1b4ba28e3e61bb",
			"c7a4288ae995eefa054305e73516fb32f701dad579c18a9dbd1ecb6b1fc62aab"},
		{"seed53/home", NewConfig(53, 1500, 3000, HomeWorkHome),
			"505763487b21bc407b7bcf74592e88a4807ae04e5c5983f72e474f7e0cf60b2c",
			"f9e6273a9025605a215b4106b2847305dea9c5469c03bbc955d9a3386f088f1c"},
		{"seed53/hitch", NewConfig(53, 1500, 3000, Hitchhiking),
			"db5694afe4ecafdd404790d899ce80f02982b3a15f1fe704a29e0e756110f43c",
			"39845ff3c29089d13e478b6540d8856dcef8cd2946a25e49c0f4ad37d5c78829"},
		{"seed1/longday", longDay(NewConfig(1, 1500, 3000, Hitchhiking)),
			"dbe5febcb0b3b19e14cbc3c343b32f7b0c5e9a906fef8696966f07e2dd1bffb1",
			"4dd159b57027ea2ac73cedfcb82ce43c847dad6dc12ca86c785c404e6041a7aa"},
	}
	for _, tc := range cases {
		if got := traceHash(NewGenerator(tc.cfg).GenerateDrivers(), nil); got != tc.drivers {
			t.Errorf("%s: GenerateDrivers hash %s, want %s", tc.name, got, tc.drivers)
		}
		tr := NewGenerator(tc.cfg).Generate(nil)
		if got := traceHash(tr.Drivers, tr.Tasks); got != tc.both {
			t.Errorf("%s: Generate(nil) hash %s, want %s", tc.name, got, tc.both)
		}
	}
}
