package neurocard_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"neurocard"
)

// buildToy assembles a 3-table schema through the public API only.
func buildToy(t *testing.T) *neurocard.Schema {
	t.Helper()
	mb, err := neurocard.NewTableBuilder("movies", []neurocard.ColSpec{
		{Name: "id", Kind: neurocard.KindInt},
		{Name: "year", Kind: neurocard.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 30; i++ {
		mb.MustAppend(neurocard.Int(int64(i)), neurocard.Int(int64(1980+i%40)))
	}
	rb, err := neurocard.NewTableBuilder("ratings", []neurocard.ColSpec{
		{Name: "movie_id", Kind: neurocard.KindInt},
		{Name: "score", Kind: neurocard.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 30; i++ {
		for j := 0; j < i%4; j++ {
			rb.MustAppend(neurocard.Int(int64(i)), neurocard.Int(int64(50+i%50)))
		}
	}
	tb, err := neurocard.NewTableBuilder("tags", []neurocard.ColSpec{
		{Name: "movie_id", Kind: neurocard.KindInt},
		{Name: "tag", Kind: neurocard.KindStr},
	})
	if err != nil {
		t.Fatal(err)
	}
	tags := []string{"drama", "comedy", "noir"}
	for i := 1; i <= 30; i += 2 {
		tb.MustAppend(neurocard.Int(int64(i)), neurocard.Str(tags[i%3]))
	}
	sch, err := neurocard.NewSchema(
		[]*neurocard.Table{mb.MustBuild(), rb.MustBuild(), tb.MustBuild()},
		"movies",
		[]neurocard.Edge{
			{LeftTable: "movies", LeftCol: "id", RightTable: "ratings", RightCol: "movie_id"},
			{LeftTable: "movies", LeftCol: "id", RightTable: "tags", RightCol: "movie_id"},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// TestPublicAPIEndToEnd drives the whole public surface: build, train,
// estimate, compare against the exact executor, and round-trip the model.
func TestPublicAPIEndToEnd(t *testing.T) {
	sch := buildToy(t)
	cfg := neurocard.DefaultConfig()
	cfg.Model.Hidden = 32
	cfg.Model.EmbedDim = 8
	cfg.Model.Blocks = 1
	cfg.Model.LR = 5e-3
	cfg.BatchSize = 128
	cfg.PSamples = 400
	cfg.SamplerWorkers = 2
	est, err := neurocard.Build(sch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Train(30_000); err != nil {
		t.Fatal(err)
	}
	q := neurocard.Query{
		Tables: []string{"movies", "ratings"},
		Filters: []neurocard.Filter{
			{Table: "movies", Col: "year", Op: neurocard.OpGe, Val: neurocard.Int(2000)},
		},
	}
	truth, err := neurocard.TrueCardinality(sch, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	truth = math.Max(truth, 1)
	if qerr := math.Max(got/truth, truth/got); qerr > 3 {
		t.Errorf("estimate %v vs truth %v (q-error %.2f)", got, truth, qerr)
	}
	// String-filter query through a different table subset.
	q2 := neurocard.Query{
		Tables: []string{"movies", "tags"},
		Filters: []neurocard.Filter{
			{Table: "tags", Col: "tag", Op: neurocard.OpEq, Val: neurocard.Str("drama")},
		},
	}
	if _, err := est.Estimate(q2); err != nil {
		t.Fatal(err)
	}
	// Deterministic seeded estimation.
	a, err := neurocard.EstimateSeeded(est, q, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := neurocard.EstimateSeeded(est, q, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("seeded estimates differ: %v vs %v", a, b)
	}
	// Full-estimator checkpoint: the restored estimator serves the same
	// seeded estimates and can keep training.
	var ckpt bytes.Buffer
	if err := neurocard.SaveEstimator(est, &ckpt); err != nil {
		t.Fatal(err)
	}
	restored, err := neurocard.LoadEstimator(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := neurocard.EstimateSeeded(est, q, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	gotR, err := neurocard.EstimateSeeded(restored, q, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotR-want) > 1e-9*math.Max(1, want) {
		t.Errorf("restored estimator: %v, want %v", gotR, want)
	}
	if _, err := restored.Train(2_000); err != nil {
		t.Errorf("restored estimator cannot train: %v", err)
	}
	// Atomic file save: byte-identical to the streaming writer, restores the
	// same, and leaves no temp debris behind.
	path := filepath.Join(t.TempDir(), "est.ckpt")
	if err := neurocard.SaveEstimatorFile(est, path); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, ckpt.Bytes()) {
		t.Errorf("SaveEstimatorFile bytes differ from SaveEstimator (%d vs %d)", len(onDisk), ckpt.Len())
	}
	fromFile, err := neurocard.LoadEstimator(bytes.NewReader(onDisk))
	if err != nil {
		t.Fatal(err)
	}
	gotF, err := neurocard.EstimateSeeded(fromFile, q, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotF-want) > 1e-9*math.Max(1, want) {
		t.Errorf("file-restored estimator: %v, want %v", gotF, want)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("atomic save left temp debris: %v", entries)
	}
	if _, err := neurocard.InnerJoinSize(sch, []string{"movies", "ratings"}); err != nil {
		t.Fatal(err)
	}
}

func TestSyntheticGenerators(t *testing.T) {
	d, err := neurocard.SyntheticJOBLight(neurocard.SyntheticConfig{Seed: 1, Scale: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	if d.Schema.NumTables() != 6 {
		t.Errorf("JOB-light tables = %d", d.Schema.NumTables())
	}
	m, err := neurocard.SyntheticJOBM(neurocard.SyntheticConfig{Seed: 1, Scale: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	if m.Schema.NumTables() != 16 {
		t.Errorf("JOB-M tables = %d", m.Schema.NumTables())
	}
}
