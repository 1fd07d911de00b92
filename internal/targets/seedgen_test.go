package targets

import (
	"math/rand"
	"testing"

	"glade/internal/cfg"
)

// TestSeedGenProducesValidInputs: every generated realistic seed must be in
// the target language under both definitions.
func TestSeedGenProducesValidInputs(t *testing.T) {
	for _, tgt := range All() {
		if tgt.SeedGen == nil {
			t.Fatalf("%s: no SeedGen", tgt.Name)
		}
		p := cfg.NewParser(tgt.Grammar)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 300; i++ {
			s := tgt.SeedGen(rng)
			if !tgt.Oracle(s) {
				t.Fatalf("%s: oracle rejects generated seed %q", tgt.Name, s)
			}
			if !p.Accepts(s) {
				t.Fatalf("%s: grammar rejects generated seed %q", tgt.Name, s)
			}
		}
	}
}

func TestEvalSamplerValid(t *testing.T) {
	for _, tgt := range All() {
		es := tgt.EvalSampler()
		rng := rand.New(rand.NewSource(8))
		for i := 0; i < 100; i++ {
			s := es(rng)
			if !tgt.Oracle(s) {
				t.Fatalf("%s: invalid eval sample %q", tgt.Name, s)
			}
		}
	}
}
