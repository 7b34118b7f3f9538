package fault

import (
	"encoding/json"
	"testing"
)

// FuzzFaultPlanParse drives Parse — the fault-plan input of the -faults
// flag and, through the same JSON, of server jobs — with arbitrary bytes.
// No input may panic, the same input must get the same decision twice, and
// an accepted plan must round-trip through Normalize, Marshal and Parse to
// the same canonical JSON.
func FuzzFaultPlanParse(f *testing.F) {
	for _, seed := range []string{
		`{"outages":[{"node":3,"at":500},{"node":1,"at":100,"for":50}],"token_loss":[900,200]}`,
		`{"outages":[{"node":3,"at":1000,"for":20000}]}`,
		`{"token_loss":[5,5,1]}`,
		`{"outages":[]}`,
		`{}`,
		`null`,
		`{"outage":[{"node":0,"at":1}]}`,
		`{"outages":[{"node":-1,"at":1}]}`,
		`{"outages":[{"node":1,"at":-1}]}`,
		`[1,2]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		p2, err2 := Parse(data)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("same bytes, different decisions: %v then %v", err, err2)
		}
		if err != nil {
			return
		}
		p.Normalize()
		canon, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted plan does not encode: %v", err)
		}
		if again, _ := json.Marshal(p2); string(again) != string(canon) {
			t.Fatalf("same bytes, different plans: %s then %s", canon, again)
		}
		q, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %s does not parse: %v", canon, err)
		}
		if back, _ := json.Marshal(q); string(back) != string(canon) {
			t.Fatalf("canonical form %s round-trips to %s", canon, back)
		}
	})
}
