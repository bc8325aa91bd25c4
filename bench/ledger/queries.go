package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"neurocard/internal/datagen"
	"neurocard/internal/ingest"
	"neurocard/internal/query"
	"neurocard/internal/schema"
	"neurocard/internal/server"
	"neurocard/internal/table"
	"neurocard/internal/value"
)

// queryT is one generated query in the forms the load generator sends.
type queryT struct {
	q    query.Query
	wire server.QueryJSON
}

// queryGen makes the load generator's inputs from -seed. The data and the
// model never see the seed; they see only the queries and rows made here.
type queryGen struct {
	d   *datagen.Dataset
	rng *rand.Rand
}

func newQueryGen(d *datagen.Dataset, seed int64) *queryGen {
	return &queryGen{d: d, rng: rand.New(rand.NewSource(seed))}
}

func wrap(q query.Query) (queryT, error) {
	w, err := server.EncodeQuery(q)
	return queryT{q: q, wire: w}, err
}

// probes returns the 18 filter-less join-size probes, in a seeded order.
func (g *queryGen) probes() []queryT {
	out := make([]queryT, len(jobLightGraphs))
	for i, p := range g.rng.Perm(len(jobLightGraphs)) {
		out[i], _ = wrap(query.Query{Tables: jobLightGraphs[p]}) // no filters: nothing to reject
	}
	return out
}

// rangeCols take range predicates; every other content column takes equality.
var rangeCols = map[string]bool{
	"production_year": true, "episode_nr": true, "season_nr": true,
	"nr_order": true, "info_val": true, "company_id": true,
}

// filtered returns n distinct filtered queries. Query i's shape — its join
// graph and filter count — depends on i alone, so the mix of cheap and
// expensive queries is the same for every seed and a run's throughput does
// not depend on which seed it drew; the seed picks the filtered columns and
// the literals, which are read from a stored row so most filters match data.
func (g *queryGen) filtered(n int) []queryT {
	out := make([]queryT, 0, n)
	seen := make(map[string]bool, n)
	var key []byte
	for attempts := 0; len(out) < n; attempts++ {
		if attempts > 100*n {
			panic(fmt.Sprintf("ledger: the data cannot supply %d distinct filtered queries", n))
		}
		i := len(out)
		graph := jobLightGraphs[i%len(jobLightGraphs)]
		type tc struct{ tbl, col string }
		var cands []tc
		for _, tbl := range graph {
			for _, col := range g.d.ContentCols[tbl] {
				cands = append(cands, tc{tbl, col})
			}
		}
		g.rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
		want := 1 + (i/len(jobLightGraphs))%4
		q := query.Query{Tables: graph}
		for _, c := range cands {
			if len(q.Filters) == want {
				break
			}
			if f, ok := g.filter(c.tbl, c.col); ok {
				q.Filters = append(q.Filters, f)
			}
		}
		if len(q.Filters) != want {
			continue
		}
		key = q.AppendKey(key[:0])
		if seen[string(key)] {
			continue
		}
		qt, err := wrap(q)
		if err != nil {
			continue
		}
		seen[string(key)] = true
		out = append(out, qt)
	}
	return out
}

func (g *queryGen) filter(tbl, col string) (query.Filter, bool) {
	c := g.d.Schema.Table(tbl).MustCol(col)
	v := c.Value(g.rng.Intn(c.NumRows()))
	if v.IsNull() {
		return query.Filter{}, false
	}
	f := query.Filter{Table: tbl, Col: col, Op: query.OpEq, Val: v}
	if rangeCols[col] {
		switch g.rng.Intn(4) {
		case 0:
			f.Op = query.OpLe
		case 1:
			f.Op = query.OpGe
		case 2:
			hi := c.Value(g.rng.Intn(c.NumRows()))
			if hi.IsNull() {
				return query.Filter{}, false
			}
			if hi.Compare(v) < 0 {
				v, hi = hi, v
			}
			f.Op, f.Val, f.Hi = query.OpBetween, v, hi
		}
	}
	return f, true
}

// reqKind says how a response is validated.
type reqKind int

const (
	kindEstJSON reqKind = iota
	kindEstBin
	kindIngest
)

// request is one prepared HTTP request body. Bodies are encoded before the
// clock starts, so the load generator's own cost per request stays small and
// constant.
type request struct {
	kind reqKind
	body []byte
	n    int // estimates asked for, or rows sent
	key  int // position in the workload's cycle of distinct requests
}

const (
	estimatePath = "/v1/estimate"
	ingestPath   = "/v1/models/" + modelName + "/ingest"
)

// frame returns the queries of request key: group consecutive queries of the
// cycle starting at query key, wrapping round. With group > 1 the frames
// overlap, so a hot set of 64 queries makes 64 distinct requests whose costs
// differ smoothly rather than 4 whose median latency one expensive frame
// decides.
func frame(qs []queryT, key, group int) []queryT {
	out := make([]queryT, group)
	for i := range out {
		out[i] = qs[(key+i)%len(qs)]
	}
	return out
}

// estimateRequests turns a workload's queries into its cycle of requests:
// JSON singles, or NCB frames of group queries each.
func estimateRequests(qs []queryT, binary bool, group int) ([]request, error) {
	if !binary {
		group = 1
	}
	out := make([]request, len(qs))
	for key := range out {
		r, err := encodeRequest(frame(qs, key, group), binary, nil)
		if err != nil {
			return nil, err
		}
		r.key = key
		out[key] = r
	}
	return out, nil
}

// encodeRequest encodes qs as one request: an NCB frame, a JSON single, or a
// JSON "queries" batch, so the two formats can be compared answer for answer.
func encodeRequest(qs []queryT, binary bool, seed *int64) (request, error) {
	if binary {
		plain := make([]query.Query, len(qs))
		for i := range qs {
			plain[i] = qs[i].q
		}
		return request{kind: kindEstBin, body: server.AppendBinRequest(nil, "", seed, plain), n: len(qs)}, nil
	}
	er := server.EstimateRequest{Seed: seed}
	if len(qs) == 1 {
		er.Query = &qs[0].wire
	} else {
		er.Queries = make([]server.QueryJSON, len(qs))
		for i := range qs {
			er.Queries[i] = qs[i].wire
		}
	}
	body, err := json.Marshal(er)
	return request{kind: kindEstJSON, body: body, n: len(qs)}, err
}

// ingestTables are the fact tables the writer appends to, join key first.
var ingestTables = []struct {
	name string
	cols []string
}{
	{"movie_keyword", []string{"movie_id", "keyword_id"}},
	{"movie_companies", []string{"movie_id", "company_id", "company_type_id"}},
}

// ingestPlan makes nBatches row batches of rowsPer rows, split evenly over
// ingestTables. As the harness drift experiment does, rows fill the coldest
// movie_id keys up to the table's trained maximum fan-out and no further, so
// every refresh stays checkpointable; the seed picks the other columns.
func (g *queryGen) ingestPlan(sch *schema.Schema, nBatches, rowsPer int) ([]*ingest.RowBatch, error) {
	per := rowsPer / len(ingestTables)
	slots := make([][]int32, len(ingestTables))
	for ti, it := range ingestTables {
		tbl := sch.Table(it.name)
		if tbl == nil {
			return nil, fmt.Errorf("ingest plan: schema has no table %s", it.name)
		}
		slots[ti] = coldSlots(tbl.MustCol(it.cols[0]))
		if need := nBatches * per; len(slots[ti]) < need {
			return nil, fmt.Errorf("ingest plan: %s has room for %d rows under its trained fan-out, want %d", it.name, len(slots[ti]), need)
		}
	}
	out := make([]*ingest.RowBatch, nBatches)
	for b := range out {
		rb := &ingest.RowBatch{}
		for ti, it := range ingestTables {
			tbl := sch.Table(it.name)
			rows := make([][]value.Value, per)
			for r := range rows {
				row := make([]value.Value, len(it.cols))
				row[0] = tbl.MustCol(it.cols[0]).ValueForID(slots[ti][b*per+r])
				for ci := 1; ci < len(it.cols); ci++ {
					c := tbl.MustCol(it.cols[ci])
					row[ci] = c.ValueForID(int32(1 + g.rng.Intn(c.DictSize()-1))) // id 0 is NULL
				}
				rows[r] = row
			}
			rb.Tables = append(rb.Tables, ingest.TableRows{Table: it.name, Columns: it.cols, Rows: rows})
		}
		out[b] = rb
	}
	return out, nil
}

// coldSlots lists, coldest key first, one entry per row a join key can still
// take before it reaches the column's current maximum fan-out.
func coldSlots(key *table.Column) []int32 {
	counts := make([]int, key.DictSize())
	for _, id := range key.IDs() {
		if id != table.NullID {
			counts[id]++
		}
	}
	maxFan := 0
	for _, c := range counts[1:] {
		maxFan = max(maxFan, c)
	}
	ids := make([]int32, 0, len(counts)-1)
	for id := int32(1); id < int32(len(counts)); id++ {
		ids = append(ids, id)
	}
	sort.SliceStable(ids, func(a, b int) bool { return counts[ids[a]] < counts[ids[b]] })
	var slots []int32
	for _, id := range ids {
		for free := maxFan - counts[id]; free > 0; free-- {
			slots = append(slots, id)
		}
	}
	return slots
}

func ingestRequests(plan []*ingest.RowBatch) []request {
	out := make([]request, len(plan))
	for i, rb := range plan {
		out[i] = request{kind: kindIngest, body: ingest.EncodeBatch(nil, rb), n: rb.NumRows(), key: i}
	}
	return out
}
