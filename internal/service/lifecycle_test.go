package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"glade/internal/campaign"
	"glade/internal/oracle"
)

// diskRecord is the lifecycle part of a job or campaign record on disk.
type diskRecord struct {
	State  JobState         `json:"state"`
	Report *campaign.Report `json:"report"`
}

func readRecord(t *testing.T, path string) diskRecord {
	t.Helper()
	var rec diskRecord
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return rec // no record yet: the zero state
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("bad record %s: %v", path, err)
	}
	return rec
}

// watchUntilTerminal follows a ?watch=1 stream and returns the state of
// the first line that carries a terminal one.
func watchUntilTerminal(t *testing.T, url string) JobState {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line struct {
			State JobState `json:"state"`
		}
		if json.Unmarshal(sc.Bytes(), &line) == nil && line.State.terminal() {
			return line.State
		}
	}
	t.Fatalf("watch stream %s ended without a terminal snapshot (err %v)", url, sc.Err())
	return ""
}

// TestPersistBeforeNotify checks a run shown terminal is already durable:
// the moment a watch stream delivers the terminal snapshot, the record on
// disk says the same. The rounds make the check sensitive to a lifecycle
// that wakes watchers before it writes.
func TestPersistBeforeNotify(t *testing.T) {
	const rounds = 10
	dir := t.TempDir()
	srv, ts := testServer(t, dir)
	ctx := context.Background()

	t.Run("job", func(t *testing.T) {
		for i := range rounds {
			j, err := srv.Submit(ctx, JobSpec{Oracle: oracle.Spec{Type: oracle.SpecProgram, Name: "grep"}, Options: &JobOptions{CharGen: new(bool)}})
			if err != nil {
				t.Fatal(err)
			}
			shown := watchUntilTerminal(t, ts.URL+"/v1/jobs/"+j.ID+"?watch=1")
			if got := readRecord(t, filepath.Join(dir, "jobs", j.ID+".json")).State; got != shown {
				t.Fatalf("round %d: watch showed %q while the record on disk says %q", i, shown, got)
			}
		}
	})
	t.Run("campaign", func(t *testing.T) {
		putGrepGrammar(t, srv, "grepgram")
		for i := range rounds {
			cr, err := srv.SubmitCampaign(ctx, CampaignSpec{GrammarID: "grepgram", DurationMS: 50})
			if err != nil {
				t.Fatal(err)
			}
			shown := watchUntilTerminal(t, ts.URL+"/v1/campaigns/"+cr.ID+"?watch=1")
			if got := readRecord(t, filepath.Join(dir, "campaigns", cr.ID+".json")).State; got != shown {
				t.Fatalf("round %d: watch showed %q while the record on disk says %q", i, shown, got)
			}
		}
	})
}

// TestPersistOrderedCheckpoints races progress checkpoints against the
// terminal write: the checkpoints still in flight when the campaign
// finishes land in any order, yet the record ends terminal with the final
// report, never a stale running checkpoint.
func TestPersistOrderedCheckpoints(t *testing.T) {
	dir := t.TempDir()
	srv, _ := testServer(t, dir)
	final := campaign.Report{Inputs: 1 << 20, Done: true}
	for round := range 20 {
		cr := newCampaignRun(CampaignSpec{GrammarID: "g"})
		cr.begin(func() { cr.phase = "fuzz" })
		var checkpoints atomic.Int64
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					srv.checkpoint(cr, campaign.Report{Inputs: w*1000 + i})
					checkpoints.Add(1)
				}
			}()
		}
		for checkpoints.Load() < 8 {
			runtime.Gosched()
		}
		srv.campaigns.finish(cr, nil, func() { cr.report, cr.hasReport = final, true })
		stop.Store(true)
		wg.Wait()
		rec := readRecord(t, filepath.Join(dir, "campaigns", cr.ID+".json"))
		if rec.State != JobDone || rec.Report == nil || rec.Report.Inputs != final.Inputs {
			t.Fatalf("round %d: record on disk regressed: state %q report %+v", round, rec.State, rec.Report)
		}
	}
}

// TestLifecycleFirstTerminalWins cancels a queued campaign, then lets
// Close drain it and a late worker pop it after the base context is gone:
// neither may overwrite canceled, on disk or in the counters.
func TestLifecycleFirstTerminalWins(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{DataDir: dir, MaxCampaigns: 1, MaxCampaignDuration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	putGrepGrammar(t, srv, "gg")
	ctx := context.Background()
	// The long campaign holds the only worker, so the next one stays queued.
	if _, err := srv.SubmitCampaign(ctx, CampaignSpec{GrammarID: "gg", DurationMS: 3_600_000}); err != nil {
		t.Fatal(err)
	}
	queued, err := srv.SubmitCampaign(ctx, CampaignSpec{GrammarID: "gg", DurationMS: 3_600_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.CancelCampaign(queued.ID); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.runCampaign(queued)
	if _, won := srv.campaigns.finish(queued, nil, nil); won {
		t.Fatal("a second terminal transition won")
	}
	canceled := func(s *Server) float64 {
		return snapValue(s.Registry().Snapshot(), "glade_campaigns_canceled_total")
	}
	if got := queued.status().State; got != JobCanceled {
		t.Fatalf("state after Close = %q, want canceled", got)
	}
	if got := canceled(srv); got != 1 {
		t.Fatalf("glade_campaigns_canceled_total = %v, want 1", got)
	}

	srv2, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cr, ok := srv2.Campaign(queued.ID)
	if !ok {
		t.Fatal("canceled campaign vanished after restart")
	}
	if got := cr.status().State; got != JobCanceled {
		t.Fatalf("state after restart = %q, want canceled", got)
	}
	if got := canceled(srv2); got != 1 {
		t.Fatalf("restored glade_campaigns_canceled_total = %v, want 1", got)
	}
}
