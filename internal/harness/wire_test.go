package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wisync/internal/config"
)

// TestServeWireRoundTrip pins the subprocess protocol end to end in one
// process: a spec encoded down the pipe comes back as the byte-identical
// row PointSpec.Run produces, and an invalid spec comes back as a
// structured error response — never a dead serve loop.
func TestServeWireRoundTrip(t *testing.T) {
	good := PointSpec{Workload: "tightloop", Kind: config.WiSync, Cores: 16, Seed: 1}
	wantRow, err := good.Run()
	if err != nil {
		t.Fatalf("inproc run: %v", err)
	}
	bad := PointSpec{Workload: "mystery", Kind: config.WiSync, Cores: 16, Seed: 1}

	var in, out bytes.Buffer
	for i, spec := range []PointSpec{good, bad, good} {
		if err := EncodeWire(&in, WireRequest{Seq: uint64(i + 1), Spec: spec}); err != nil {
			t.Fatalf("encoding request %d: %v", i, err)
		}
	}
	if err := ServeWire(&in, &out); err != nil {
		t.Fatalf("ServeWire: %v", err)
	}

	var resps []WireResponse
	dec := newWireDecoder(t, &out)
	for {
		var r WireResponse
		if !dec(&r) {
			break
		}
		resps = append(resps, r)
	}
	if len(resps) != 3 {
		t.Fatalf("got %d responses, want 3", len(resps))
	}
	if resps[0].Seq != 1 || resps[0].Err || resps[0].Row != wantRow {
		t.Fatalf("good response drifted: %+v, want row %q", resps[0], wantRow)
	}
	if resps[1].Seq != 2 || !resps[1].Err || !strings.Contains(resps[1].Error, "unknown workload") {
		t.Fatalf("bad spec response: %+v", resps[1])
	}
	if resps[2].Row != wantRow {
		t.Fatalf("repeat response differs from first: %q vs %q", resps[2].Row, wantRow)
	}
}

// TestServeWireGarbage pins that a corrupt request stream is a returned
// error, not a hang or panic.
func TestServeWireGarbage(t *testing.T) {
	var out bytes.Buffer
	if err := ServeWire(strings.NewReader("{not json\n"), &out); err == nil {
		t.Fatal("garbage request stream did not error")
	}
}

// newWireDecoder returns a closure decoding one response per call,
// reporting false at EOF and failing the test on anything malformed.
func newWireDecoder(t *testing.T, r io.Reader) func(*WireResponse) bool {
	t.Helper()
	dec := json.NewDecoder(r)
	return func(v *WireResponse) bool {
		err := dec.Decode(v)
		if err == io.EOF {
			return false
		}
		if err != nil {
			t.Fatalf("decoding response: %v", err)
		}
		return true
	}
}

// decodeWireLine decodes line as ServeWire decodes the request stream.
func decodeWireLine(line []byte) (WireRequest, error) {
	var req WireRequest
	err := json.NewDecoder(bytes.NewReader(line)).Decode(&req)
	return req, err
}

// wireDecision is what a worker decides about a decoded spec before it
// runs it: the spec's normal form and whether it normalizes and validates.
type wireDecision struct {
	norm              PointSpec
	normErr, validErr string
}

func decideWire(s PointSpec) wireDecision {
	if s.Faults != nil {
		// Normalize sorts a fault plan in place; decide on a copy.
		p := *s.Faults
		p.Outages, p.TokenLoss = slices.Clone(p.Outages), slices.Clone(p.TokenLoss)
		s.Faults = &p
	}
	var d wireDecision
	n, err := s.Normalize()
	if err != nil {
		d.normErr = err.Error()
	} else {
		d.norm = n
	}
	if err := s.Validate(); err != nil {
		d.validErr = err.Error()
	}
	return d
}

// FuzzWireRequestDecode decodes arbitrary bytes as one WireRequest line,
// as a worker does, and checks what the worker decides before it would run
// the point: no input panics, the same bytes get the same decision twice,
// and an accepted request keeps its Normalize and Validate decisions
// through a round trip through EncodeWire. It never runs a point.
func FuzzWireRequestDecode(f *testing.F) {
	for _, spec := range []PointSpec{
		{Workload: "tightloop", Kind: config.WiSync, Cores: 16, Seed: 1},
		{Workload: "liv2", Kind: config.Baseline, Cores: 64, Seed: 42, N: 50},
		{Workload: "mystery", Kind: config.WiSyncNoT, Cores: 16},
		{Workload: "tightloop", Kind: config.BaselinePlus, Cores: 500},
	} {
		var buf bytes.Buffer
		if err := EncodeWire(&buf, WireRequest{Seq: 7, Spec: spec}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"seq":3,"spec":{"workload":"cas-add","kind":"WiSync","cores":16,"mac":"token","channel":"burst","ber":0.001,` +
		`"faults":{"outages":[{"node":5,"at":900},{"node":1,"at":100,"for":50}],"token_loss":[70,20]}}}`))
	f.Add([]byte(`{"seq":1,"spec":{"workload":"app:fft","kind":"Baseline","cores":16,"iters":-3,"budget":18446744073709551615}}`))
	f.Add([]byte(`{"seq":2,"spec":{"workload":"tightloop","kind":"Quantum"}}`))
	f.Add([]byte(`{"seq":-1}`))
	f.Add([]byte(`{"seq":1,"spec":{"variant":"SlowNet","ber":-0,"pgb":1e-400}}` + "\n" + `{"seq":2}`))
	f.Add([]byte(`{"spec":`))
	f.Add([]byte("not json\n"))
	f.Fuzz(func(t *testing.T, line []byte) {
		req, err := decodeWireLine(line)
		again, err2 := decodeWireLine(line)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("same bytes, different decode decisions: %v then %v", err, err2)
		}
		if err != nil {
			return
		}
		d := decideWire(req.Spec)
		if d2 := decideWire(again.Spec); !reflect.DeepEqual(d, d2) {
			t.Fatalf("same bytes, different decisions:\n%+v\n%+v", d, d2)
		}
		var buf bytes.Buffer
		if err := EncodeWire(&buf, req); err != nil {
			t.Fatalf("decoded request does not encode: %v", err)
		}
		back, err := decodeWireLine(buf.Bytes())
		if err != nil {
			t.Fatalf("encoded request %s does not decode: %v", buf.Bytes(), err)
		}
		if back.Seq != req.Seq {
			t.Fatalf("seq %d came back as %d", req.Seq, back.Seq)
		}
		if d2 := decideWire(back.Spec); !reflect.DeepEqual(d, d2) {
			t.Fatalf("decisions moved in a round trip through %s:\n%+v\n%+v", buf.Bytes(), d, d2)
		}
	})
}
