// Package neurocard is a from-scratch Go implementation of NeuroCard
// ("NeuroCard: One Cardinality Estimator for All Tables", VLDB 2020): a
// single deep autoregressive density model trained on unbiased samples of
// the full outer join of all tables in a schema, answering cardinality
// queries over any connected subset of tables with no independence
// assumptions.
//
// The package exposes the complete pipeline:
//
//	tables  → Builder / NewSchema          (column store + join tree)
//	build   → Build(schema, config)        (join counts + sampler + ResMADE)
//	train   → Estimator.Train(nTuples)     (maximum likelihood on join samples)
//	query   → Estimator.Estimate(query)    (progressive sampling + schema subsetting)
//	truth   → TrueCardinality(schema, q)   (exact executor, for evaluation)
//
// A minimal end-to-end example lives in examples/quickstart; the full
// benchmark suite reproducing the paper's evaluation is in bench_test.go
// and cmd/bench.
package neurocard

import (
	"io"
	"math/rand"

	"neurocard/internal/core"
	"neurocard/internal/datagen"
	"neurocard/internal/exec"
	"neurocard/internal/made"
	"neurocard/internal/query"
	"neurocard/internal/schema"
	"neurocard/internal/table"
	"neurocard/internal/value"
)

// Value is a typed scalar cell: NULL, int64, or string.
type Value = value.Value

// Null is the SQL NULL value.
var Null = value.Null

// Int builds an integer Value.
func Int(v int64) Value { return value.Int(v) }

// Str builds a string Value.
func Str(s string) Value { return value.Str(s) }

// Value kinds, for ColSpec declarations.
const (
	KindInt = value.KindInt
	KindStr = value.KindStr
)

// ColSpec declares a column when building tables.
type ColSpec = table.ColSpec

// Builder accumulates rows into an immutable dictionary-encoded Table.
type Builder = table.Builder

// Table is an immutable column-store table with lazily built join indexes.
type Table = table.Table

// NewTableBuilder starts building a table.
func NewTableBuilder(name string, specs []ColSpec) (*Builder, error) {
	return table.NewBuilder(name, specs)
}

// Edge declares an equi-join relationship between two tables' int columns.
type Edge = schema.Edge

// Schema is a validated join tree over a set of tables.
type Schema = schema.Schema

// NewSchema validates tables and join edges into a schema rooted at root.
// The edges must form a tree spanning all tables.
func NewSchema(tables []*Table, root string, edges []Edge) (*Schema, error) {
	return schema.New(tables, root, edges)
}

// Op is a filter comparison operator.
type Op = query.Op

// Supported filter operators.
const (
	OpEq        = query.OpEq
	OpLt        = query.OpLt
	OpLe        = query.OpLe
	OpGt        = query.OpGt
	OpGe        = query.OpGe
	OpIn        = query.OpIn
	OpNeq       = query.OpNeq
	OpNotIn     = query.OpNotIn
	OpBetween   = query.OpBetween
	OpIsNull    = query.OpIsNull
	OpIsNotNull = query.OpIsNotNull
)

// Filter is a single-column predicate clause: Table.Col Op Val, Col IN/NOT
// IN Set, Col BETWEEN Val AND Hi, or Col IS [NOT] NULL — optionally widened
// into a disjunction via Or (alternatives on the same column).
type Filter = query.Filter

// Query is an inner equi-join over a connected table subset plus a
// conjunction of filter clauses (each clause may be an OR group).
type Query = query.Query

// ModelConfig sets the ResMADE architecture and optimizer.
type ModelConfig = made.Config

// Config assembles an estimator: model architecture, factorization bits,
// modeled columns, training batch/workers, and progressive-sample count.
type Config = core.Config

// DefaultConfig returns a CPU-friendly configuration mirroring the paper's
// base setup.
func DefaultConfig() Config { return core.DefaultConfig() }

// Estimator is a trained NeuroCard cardinality estimator.
type Estimator = core.Estimator

// Build prepares the join sampler (Exact-Weight join counts), the
// factorized encoder, and an untrained model for the schema. Call Train
// before Estimate.
func Build(sch *Schema, cfg Config) (*Estimator, error) {
	return core.Build(sch, cfg)
}

// BuildWithDomain builds against a dictionary-defining domain schema while
// modeling a (possibly filtered) data snapshot — the setup for incremental
// update workflows.
func BuildWithDomain(domain, data *Schema, cfg Config) (*Estimator, error) {
	return core.BuildWithDomain(domain, data, cfg)
}

// TrueCardinality computes the exact result count of a query (linear-time
// dynamic programming over the join tree). Used for evaluation and for
// labeling supervised baselines.
func TrueCardinality(sch *Schema, q Query) (float64, error) {
	return exec.Cardinality(sch, q)
}

// InnerJoinSize returns the unfiltered inner-join row count of a table set.
func InnerJoinSize(sch *Schema, tables []string) (float64, error) {
	return exec.InnerJoinSize(sch, tables)
}

// SaveEstimator writes a full-estimator checkpoint: schema metadata and
// dictionaries, the encoder/factorization configuration, the sampler's
// join-count tables, and the model weights at full precision. The resulting
// file restores to a ready-to-serve estimator with LoadEstimator (or a
// neurocardd model load), producing estimates identical to the original's at
// a fixed seed.
func SaveEstimator(e *Estimator, w io.Writer) error {
	return core.SaveCheckpoint(e, w)
}

// SaveEstimatorFile writes a full-estimator checkpoint to path atomically:
// the bytes land in a same-directory temp file that is fsynced and renamed
// over path only after a fully successful write, so a crash (or failed disk)
// mid-save can never leave a torn checkpoint where a loadable one — or
// nothing — used to be.
func SaveEstimatorFile(e *Estimator, path string) error {
	return core.WriteCheckpointFile(e, path)
}

// LoadEstimator restores a checkpoint written by SaveEstimator to a
// ready-to-serve estimator: Estimate/EstimateBatch work immediately, and
// Train/UpdateData continue to work for incremental updates after a restart.
func LoadEstimator(r io.Reader) (*Estimator, error) {
	return core.LoadCheckpoint(r)
}

// SyntheticConfig controls the bundled synthetic IMDB generator.
type SyntheticConfig = datagen.Config

// SyntheticDataset bundles a generated schema with its filterable columns.
type SyntheticDataset = datagen.Dataset

// SyntheticJOBLight generates the 6-table JOB-light star schema with
// planted correlations (the paper's IMDB substitute; see DESIGN.md).
func SyntheticJOBLight(cfg SyntheticConfig) (*SyntheticDataset, error) {
	return datagen.JOBLight(cfg)
}

// SyntheticJOBM generates the 16-table JOB-M snowflake schema.
func SyntheticJOBM(cfg SyntheticConfig) (*SyntheticDataset, error) {
	return datagen.JOBM(cfg)
}

// EstimateSeeded runs one estimate with an explicit sample count and RNG
// seed (deterministic; useful in tests and examples).
func EstimateSeeded(e *Estimator, q Query, samples int, seed int64) (float64, error) {
	return e.EstimateWithSamples(q, samples, rand.New(rand.NewSource(seed)))
}

// EstimateBatch estimates many queries concurrently on up to `workers`
// goroutines (≤ 0 uses GOMAXPROCS), each worker owning a reusable inference
// session. Query i's randomness derives from (config seed, i), so results
// are identical run to run regardless of scheduling — the serving-side
// throughput API for evaluating workloads or answering optimizer traffic.
func EstimateBatch(e *Estimator, queries []Query, workers int) ([]float64, error) {
	return e.EstimateBatch(queries, workers)
}
