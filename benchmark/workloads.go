package main

import (
	"fmt"
	"os"
	"path/filepath"

	"glade/internal/oracle"
	"glade/internal/service"
)

// workload is one program's two journeys through glade-serve: learn jobs
// for it and batch checks against its grammar, each measured for the
// run's duration. The primary journey runs first, right after setup; the
// setup of a check workload learns the grammar through the job API, while
// a learn workload's setup stores the grammar its jobs must reproduce.
type workload struct {
	name string
	// primary is "learn" or "check".
	primary string
	// isolation lists the layers the workload was chosen to isolate.
	isolation []isolation
	job       func(c Config) (learnJob, error)
}

// isolation is one layer's share of the end-to-end time it belongs to in
// a traced run: core self time of learn_s ("core"), or ladder time of
// check handler time ("cfg"). above says whether the share must exceed
// one half or stay below it.
type isolation struct {
	layer string
	above bool
}

// learn-xml's learns are mostly the learner's own CPU, and its checks on
// xml's grammar are mostly JSON, router and store, since the DFA and VM
// rungs decide them fast. check-sed's checks are mostly the ladder: sed's
// grammar cannot take the VM rung, so the Earley rung decides many inputs.
var workloads = []workload{
	{name: "learn-xml", primary: "learn", isolation: []isolation{{"core", true}, {"cfg", false}},
		job: namedJob(oracle.SpecProgram, "xml", "golden_xml_w1.grammar")},
	{name: "check-sed", primary: "check", isolation: []isolation{{"cfg", true}},
		job: namedJob(oracle.SpecProgram, "sed", "golden_sed_w1.grammar")},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// namedJob learns a registered in-process oracle from its bundled seeds at
// workers 1; the fetched grammar must equal the learner's committed golden.
func namedJob(kind, name, golden string) func(Config) (learnJob, error) {
	return func(c Config) (learnJob, error) {
		reg, ok := oracle.LookupNamed(kind, name)
		if !ok {
			return learnJob{}, fmt.Errorf("no %s oracle %q", kind, name)
		}
		path := filepath.Join(c.Root, "internal", "core", "testdata", golden)
		if c.XMLGolden != "" && name == "xml" {
			path = c.XMLGolden
		}
		want, err := os.ReadFile(path)
		if err != nil {
			return learnJob{}, err
		}
		return learnJob{
			spec: service.JobSpec{
				Oracle:  oracle.Spec{Type: kind, Name: name},
				Options: &service.JobOptions{Workers: 1},
			},
			seeds:   reg.Seeds,
			want:    string(want),
			wantSrc: path,
		}, nil
	}
}
