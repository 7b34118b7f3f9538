package wireless

import (
	"fmt"
	"testing"

	"wisync/internal/sim"
)

// commitTrace runs a fixed contended scenario — 16 nodes, 4 messages each,
// seeded random inter-send sleeps, one mid-flight cancellation — and
// returns the full commit trace as "src.msg@cycle" entries. The scenario
// covers every arbitration path: idle-slot wins, busy deferral, collisions
// with backoff retries, and a withdrawal while queued. It also returns the
// MAC's counters, so a caller can confirm which arbitration paths ran.
func commitTrace(p Params, seed uint64) ([]string, MACStats) {
	eng := sim.NewEngine(seed)
	n := New(eng, 16, p)
	var trace []string
	n.Subscribe(func(m Msg, at sim.Time) {
		trace = append(trace, fmt.Sprintf("%d.%d@%d", m.Src, m.Val, at))
	})
	var tok Token
	for c := 0; c < 16; c++ {
		c := c
		eng.Go(fmt.Sprintf("n%d", c), func(pp *sim.Proc) {
			for i := 0; i < 4; i++ {
				t := &Token{}
				if c == 3 && i == 2 {
					t = &tok
				}
				n.Send(pp, Msg{Src: c, Val: uint64(i)}, t)
				pp.Sleep(sim.Time(pp.Engine().Rand().Intn(9)))
			}
		})
	}
	eng.Go("canceler", func(pp *sim.Proc) {
		pp.Sleep(7)
		tok.Cancel()
	})
	if err := eng.Run(); err != nil {
		panic(err)
	}
	return trace, n.MACCounters()
}

// preRefactorTraces were recorded from the monolithic pre-MAC-refactor
// arbitration code (PR 2 state, commit 7a52ee1) with the scenario above.
// The default backoff MAC must reproduce them bit-for-bit: the refactor
// moved the arbitration logic behind the MAC interface without changing a
// single decision, random draw, or event position. The four scenarios
// cover the default configuration (two seeds) plus the DeferContend /
// BackoffPerMessage and BackoffAdaptive ablations, all of which are now
// served by the same backoff MAC implementation.
var preRefactorTraces = []struct {
	name string
	p    func() Params
	seed uint64
	want []string
}{
	{"default-s123", DefaultParams, 123, []string{
		"9.0@17", "10.0@22", "11.0@27", "14.0@32", "15.0@37", "2.0@42", "12.0@47", "13.0@52", "6.0@57", "3.0@62", "4.0@71", "5.0@80", "9.1@85", "10.1@90", "11.1@95", "15.1@100", "3.1@113", "0.0@120", "2.1@141", "4.1@154", "9.2@159", "10.2@164", "15.2@171", "5.1@176", "13.1@187", "7.0@192", "8.0@197", "3.2@208", "2.2@219", "14.1@226", "1.0@237", "3.3@244", "10.3@251", "6.1@260", "14.2@265", "2.3@270", "15.3@275", "5.2@280", "0.1@285", "1.1@290", "13.2@295", "9.3@300", "8.1@305", "6.2@310", "14.3@315", "12.1@320", "11.2@325", "7.1@330", "4.2@335", "0.2@342", "1.2@347", "8.2@354", "12.2@361", "4.3@368", "7.2@373", "5.3@378", "0.3@383", "13.3@388", "8.3@393", "12.3@398", "6.3@403", "7.3@408", "1.3@413", "11.3@418"}},
	{"default-s7", DefaultParams, 7, []string{
		"1.0@19", "7.0@26", "15.0@33", "6.0@38", "5.0@43", "12.0@48", "8.0@53", "3.0@58", "14.0@63", "9.0@68", "2.0@75", "13.0@80", "4.0@85", "1.1@90", "6.1@103", "5.1@108", "12.1@113", "8.1@118", "3.1@123", "9.1@128", "14.1@133", "2.1@138", "13.1@143", "0.0@150", "10.0@155", "11.0@162", "1.2@167", "6.2@172", "3.2@185", "9.2@190", "14.2@195", "13.2@200", "15.1@211", "12.2@224", "3.3@231", "7.1@238", "9.3@243", "13.3@250", "4.1@255", "10.1@264", "11.1@269", "12.3@274", "15.2@279", "2.2@284", "7.2@289", "6.3@294", "14.3@299", "4.2@304", "1.3@311", "5.2@318", "8.2@325", "15.3@330", "2.3@335", "7.3@340", "4.3@345", "8.3@352", "11.2@357", "5.3@362", "0.1@367", "10.2@372", "11.3@377", "0.2@382", "10.3@387", "0.3@394"}},
	{"contend-permsg-s123", func() Params {
		p := DefaultParams()
		p.Defer = DeferContend
		p.Backoff = BackoffPerMessage
		return p
	}, 123, []string{
		"13.0@17", "13.1@32", "0.0@42", "0.1@53", "10.0@62", "10.1@69", "0.2@78", "10.2@85", "0.3@92", "15.0@103", "15.1@110", "8.0@126", "8.1@141", "6.0@148", "8.2@169", "2.0@176", "3.0@192", "7.0@202", "7.1@224", "14.0@233", "10.3@240", "14.1@249", "6.1@267", "12.0@291", "4.0@298", "2.1@305", "5.0@314", "8.3@327", "2.2@334", "5.1@341", "11.0@348", "5.2@355", "9.0@372", "9.1@383", "9.2@395", "7.2@402", "9.3@410", "13.2@417", "1.0@428", "1.1@445", "14.2@450", "5.3@457", "14.3@464", "3.1@471", "3.2@480", "3.3@496", "11.1@503", "7.3@512", "11.2@519", "2.3@526", "11.3@533", "6.2@538", "1.2@545", "15.2@552", "15.3@563", "1.3@577", "12.1@582", "12.2@589", "13.3@594", "12.3@602", "6.3@615", "4.1@632", "4.2@638", "4.3@643"}},
	{"adaptive-backoff-s5", func() Params {
		p := DefaultParams()
		p.Backoff = BackoffAdaptive
		return p
	}, 5, []string{
		"2.0@13", "4.0@18", "5.0@23", "12.0@34", "13.0@39", "15.0@44", "3.0@53", "6.0@58", "1.0@63", "9.0@68", "14.0@77", "7.0@82", "5.1@91", "10.0@96", "13.1@101", "15.1@106", "11.0@111", "0.0@116", "3.1@121", "6.1@126", "1.1@131", "9.1@136", "2.1@141", "4.1@146", "5.2@159", "10.1@164", "13.2@169", "15.2@174", "11.1@179", "0.1@184", "14.1@199", "12.1@206", "4.2@211", "7.1@218", "10.2@223", "15.3@230", "1.2@239", "6.2@244", "2.2@249", "3.2@256", "4.3@261", "14.2@272", "11.2@279", "10.3@284", "13.3@289", "1.3@294", "6.3@299", "0.2@304", "9.2@309", "2.3@314", "3.3@319", "12.2@324", "7.2@329", "8.0@338", "11.3@343", "0.3@348", "9.3@353", "14.3@358", "7.3@363", "5.3@368", "12.3@373", "8.1@378", "8.2@388", "8.3@393"}},
}

// TestDefaultMACMatchesPreRefactorTraces proves the MAC extraction is
// behavior-preserving: the default (backoff) MAC reproduces the commit
// traces recorded before the arbitration logic moved behind the interface.
func TestDefaultMACMatchesPreRefactorTraces(t *testing.T) {
	for _, sc := range preRefactorTraces {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			got, _ := commitTrace(sc.p(), sc.seed)
			if len(got) != len(sc.want) {
				t.Fatalf("trace length %d, want %d\n got: %v", len(got), len(sc.want), got)
			}
			for i := range got {
				if got[i] != sc.want[i] {
					t.Fatalf("trace[%d] = %s, want %s (default MAC diverged from pre-refactor arbitration)",
						i, got[i], sc.want[i])
				}
			}
		})
	}
}

// adaptiveDrainTraces were recorded with the backoff MAC's contention slots
// kept in two maps keyed by cycle, before the slots became a list. In each
// scenario the adaptive MAC hands over from backoff to token once, so the
// backoff MAC's drain migrates its busy-deferred senders and its pending
// contention slots mid-run. The golden matrices use only the default MAC,
// so these traces are what pins drain's order.
var adaptiveDrainTraces = []struct {
	seed uint64
	want []string
}{
	{1, []string{
		"6.0@13", "13.0@26", "12.0@39", "3.0@44", "5.0@49", "10.0@54", "6.1@63", "9.0@68", "13.1@75", "15.0@80", "1.0@85", "7.0@90", "14.0@95", "12.1@100", "0.0@105", "3.1@110", "0.1@116", "1.1@122", "2.0@128", "3.2@134", "4.0@140", "5.1@146", "6.2@152", "7.1@158", "8.0@164", "9.1@170", "10.1@176", "11.0@182", "12.2@188", "13.2@194", "14.1@200", "15.1@206", "0.2@212", "1.2@218", "2.1@224", "3.3@230", "4.1@236", "5.2@242", "6.3@248", "7.2@254", "8.1@260", "9.2@266", "10.2@272", "11.1@278", "12.3@284", "13.3@290", "14.2@296", "15.2@302", "0.3@308", "1.3@314", "2.2@320", "4.2@327", "5.3@333", "7.3@340", "8.2@346", "9.3@352", "10.3@358", "11.2@364", "14.3@372", "15.3@378", "2.3@386", "4.3@393", "8.3@402", "11.3@410"}},
	{5, []string{
		"2.0@13", "4.0@18", "5.0@23", "7.0@28", "8.0@33", "10.0@38", "11.0@49", "0.0@54", "3.0@59", "9.0@64", "14.0@71", "2.1@78", "7.1@87", "8.1@92", "0.1@107", "14.1@116", "0.2@122", "1.0@128", "2.2@134", "3.1@140", "4.1@146", "5.1@152", "6.0@158", "7.2@164", "8.2@170", "9.1@176", "10.1@182", "11.1@188", "12.0@194", "13.0@200", "14.2@206", "15.0@212", "0.3@218", "1.1@224", "2.3@230", "3.2@236", "4.2@242", "5.2@248", "6.1@254", "7.3@260", "8.3@266", "9.2@272", "10.2@278", "11.2@284", "12.1@290", "13.1@296", "14.3@302", "15.1@308", "1.2@315", "3.3@322", "4.3@328", "5.3@334", "6.2@340", "9.3@348", "10.3@354", "11.3@360", "12.2@366", "13.2@372", "15.2@379", "1.3@386", "6.3@396", "12.3@407", "13.3@413", "15.3@420"}},
	{123, []string{
		"9.0@17", "10.0@22", "11.0@27", "14.0@32", "15.0@37", "2.0@42", "12.0@47", "13.0@52", "6.0@57", "3.0@62", "4.0@71", "5.0@80", "9.1@85", "10.1@90", "11.1@95", "15.1@100", "0.0@106", "1.0@112", "2.1@118", "3.1@124", "4.1@130", "5.1@136", "6.1@142", "7.0@148", "8.0@154", "9.2@160", "10.2@166", "11.2@172", "12.1@178", "13.1@184", "14.1@190", "15.2@196", "0.1@202", "1.1@208", "2.2@214", "3.2@220", "4.2@226", "5.2@232", "6.2@238", "7.1@244", "8.1@250", "9.3@256", "10.3@262", "11.3@268", "12.2@274", "13.2@280", "14.2@286", "15.3@292", "0.2@298", "1.2@304", "2.3@310", "3.3@316", "4.3@322", "5.3@328", "6.3@334", "7.2@340", "8.2@346", "12.3@355", "13.3@361", "14.3@367", "0.3@374", "1.3@380", "7.3@391", "8.3@397"}},
}

// TestAdaptiveMACDrainMatchesRecordedTraces replays the contended scenario
// under the adaptive MAC and compares every commit with the recorded trace.
func TestAdaptiveMACDrainMatchesRecordedTraces(t *testing.T) {
	for _, sc := range adaptiveDrainTraces {
		sc := sc
		t.Run(fmt.Sprintf("s%d", sc.seed), func(t *testing.T) {
			got, mc := commitTrace(adaptiveTestParams(), sc.seed)
			if mc.ModeSwitches < 1 {
				t.Fatalf("ModeSwitches = %d: the scenario no longer reaches the backoff MAC's drain", mc.ModeSwitches)
			}
			if len(got) != len(sc.want) {
				t.Fatalf("trace length %d, want %d\n got: %v", len(got), len(sc.want), got)
			}
			for i := range got {
				if got[i] != sc.want[i] {
					t.Fatalf("trace[%d] = %s, want %s (backoff drain order changed)", i, got[i], sc.want[i])
				}
			}
		})
	}
}
