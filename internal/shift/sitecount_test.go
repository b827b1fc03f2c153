package shift_test

import (
	"fmt"
	"testing"

	"shift/internal/attacks"
	"shift/internal/instrument"
	"shift/internal/isa"
	"shift/internal/machine"
	"shift/internal/policy"
	"shift/internal/shift"
	"shift/internal/staticcheck/reach"
	"shift/internal/taint"
	"shift/internal/workload"
)

// TestSiteCountsMatchReach pins the pass's site accounting to the
// reachability analysis's own summary, over every Fig-7 workload,
// Table-2 attack and corpus scenario: both count the same sites, the
// selective pass skips the same ones, and every site the analysis keeps
// (every site, for the full pass) is either rewritten or a compare the
// pass's local cleanliness tracker proved NaT-free. The output backs
// the pass's own split: its exempt set is the skipped sites, and under
// the NaT-aware compare its verbatim compares are the clean ones.
func TestSiteCountsMatchReach(t *testing.T) {
	type program struct {
		name string
		prog *isa.Program
		conf *policy.Config
	}
	var progs []program
	add := func(name string, p *isa.Program, err error, conf *policy.Config) {
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		progs = append(progs, program{name, p, conf})
	}
	for _, b := range workload.All() {
		p, err := shift.Build([]shift.Source{{Name: b.Name, Text: b.Source}}, shift.Options{})
		add(b.Name, p, err, b.Config())
	}
	for _, a := range attacks.All() {
		p, err := shift.Build([]shift.Source{{Name: a.Program, Text: a.Source}}, shift.Options{})
		add(a.Program, p, err, a.Config())
	}
	for _, s := range attacks.Corpus() {
		var p *isa.Program
		var err error
		if s.Asm {
			p, err = shift.BuildAsm(s.Program, s.Source, shift.Options{})
		} else {
			p, err = shift.Build([]shift.Source{{Name: s.Program, Text: s.Source}}, shift.Options{})
		}
		add(s.Name, p, err, s.Config())
	}

	for _, pr := range progs {
		for _, gran := range []taint.Granularity{taint.Byte, taint.Word} {
			rs := reach.Analyze(pr.prog, reach.Config{
				Sources:    pr.conf.Sources,
				Gran:       gran,
				Permissive: pr.conf.NoTrack,
			}).Stats()
			for _, selective := range []bool{false, true} {
				// The full pass skips nothing; the selective one skips
				// exactly what the analysis does.
				wantSkipped, wantKept := 0, rs.Sites
				if selective {
					wantSkipped, wantKept = rs.Skipped, rs.Kept
				}
				for _, optimize := range []bool{false, true} {
					for _, feat := range []machine.Features{{}, {NaTAwareCmp: true}} {
						label := fmt.Sprintf("%s/gran=%d/selective=%v/optimize=%v/cmp.na=%v",
							pr.name, gran, selective, optimize, feat.NaTAwareCmp)
						var st instrument.Stats
						out, exempt, err := instrument.ApplyWithExempt(pr.prog, instrument.Options{
							Gran:             gran,
							Feat:             feat,
							Optimize:         optimize,
							Permissive:       pr.conf.NoTrack,
							Selective:        selective,
							SelectiveSources: pr.conf.Sources,
							Stats:            &st,
						})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if st.Sites != rs.Sites || st.Skipped != wantSkipped || st.Kept+st.CleanCompares != wantKept {
							t.Errorf("%s: pass sites=%d skipped=%d kept=%d clean=%d, want sites=%d skipped=%d kept+clean=%d",
								label, st.Sites, st.Skipped, st.Kept, st.CleanCompares, rs.Sites, wantSkipped, wantKept)
						}
						if len(exempt) != st.Skipped {
							t.Errorf("%s: %d exempt output sites, %d skipped", label, len(exempt), st.Skipped)
						}
						if !feat.NaTAwareCmp {
							continue
						}
						// Every kept compare became a cmp.na, so the program
						// compares left verbatim outside the exempt set are
						// exactly the clean ones.
						verbatim := 0
						for pc := range out.Text {
							ins := &out.Text[pc]
							if ins.Site() == isa.SiteCompare && ins.Class == isa.ClassOrig && !exempt[pc] {
								verbatim++
							}
						}
						if verbatim != st.CleanCompares {
							t.Errorf("%s: %d verbatim compares, %d counted clean", label, verbatim, st.CleanCompares)
						}
					}
				}
			}
		}
	}
}
