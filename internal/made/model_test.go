package made

import (
	"math"
	"math/rand"
	"testing"

	"neurocard/internal/nn"
)

func tinyConfig(seed int64) Config {
	return Config{EmbedDim: 3, Hidden: 8, Blocks: 1, LR: 5e-3, ClipNorm: 5, Seed: seed}
}

func randBatch(rng *rand.Rand, doms []int, n int) [][]int32 {
	out := make([][]int32, n)
	for i := range out {
		row := make([]int32, len(doms))
		for c, d := range doms {
			row[c] = int32(rng.Intn(d))
		}
		out[i] = row
	}
	return out
}

func TestNewErrors(t *testing.T) {
	if _, err := New(tinyConfig(1), nil); err == nil {
		t.Error("no columns accepted")
	}
	if _, err := New(tinyConfig(1), []int{3, 0}); err == nil {
		t.Error("zero domain accepted")
	}
	bad := tinyConfig(1)
	bad.Hidden = 0
	if _, err := New(bad, []int{3}); err == nil {
		t.Error("zero hidden accepted")
	}
}

// TestAutoregressiveProperty is the MADE invariant: the conditional for
// column i must be bit-identical when any token at position ≥ i changes.
func TestAutoregressiveProperty(t *testing.T) {
	doms := []int{3, 4, 2, 5, 3}
	m, err := New(tinyConfig(2), doms)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	// Random weights beyond init noise: take a few training steps so all
	// parameters are non-trivial.
	for s := 0; s < 5; s++ {
		m.TrainStep(randBatch(rng, doms, 16), 0.3)
	}
	base := randBatch(rng, doms, 4)
	for col := 0; col < len(doms); col++ {
		want := nn.NewMat(len(base), doms[col])
		m.Conditional(base, col, want)
		// Perturb all positions ≥ col.
		perturbed := make([][]int32, len(base))
		for r := range base {
			row := make([]int32, len(doms))
			copy(row, base[r])
			for c := col; c < len(doms); c++ {
				row[c] = int32(rng.Intn(doms[c]))
			}
			perturbed[r] = row
		}
		got := nn.NewMat(len(base), doms[col])
		m.Conditional(perturbed, col, got)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("col %d: conditional depends on position ≥ %d (Δ=%g)",
					col, col, got.Data[i]-want.Data[i])
			}
		}
	}
}

func TestConditionalNormalized(t *testing.T) {
	doms := []int{4, 3, 6}
	m, err := New(tinyConfig(3), doms)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	batch := randBatch(rng, doms, 8)
	for col := range doms {
		out := nn.NewMat(len(batch), doms[col])
		m.Conditional(batch, col, out)
		for r := 0; r < out.Rows; r++ {
			sum := 0.0
			for _, v := range out.Row(r) {
				if v < 0 {
					t.Fatalf("negative probability %v", v)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("col %d row %d: probs sum to %v", col, r, sum)
			}
		}
	}
}

// TestGradientCheck validates the entire ResMADE backward pass — embeddings
// (input and tied output paths), masked trunk, residual blocks, per-column
// heads — against central finite differences of the NLL.
func TestGradientCheck(t *testing.T) {
	doms := []int{3, 4, 2}
	m, err := New(tinyConfig(4), doms)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	batch := randBatch(rng, doms, 5)
	// Include a wildcard-masked input row to exercise MASK embedding grads.
	inputs := make([][]int32, len(batch))
	for i := range batch {
		inputs[i] = append([]int32(nil), batch[i]...)
	}
	inputs[0][1] = MaskToken

	loss := m.backward(inputs, batch)
	if loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}

	nll := func() float64 {
		// Recompute the same objective: NLL of targets given (masked) inputs.
		b := len(inputs)
		st := m.forwardTrunk(inputs)
		h := st.top()
		hm := nn.NewMat(b, m.cfg.Hidden)
		tgt := make([]int32, b)
		total := 0.0
		for i := 0; i < m.n; i++ {
			proj := nn.NewMat(b, m.cfg.EmbedDim)
			logits := nn.NewMat(b, m.doms[i])
			m.headLogits(h, i, hm, proj, logits)
			for r := range batch {
				tgt[r] = batch[r][i]
			}
			scratch := nn.NewMat(b, m.doms[i])
			total += nn.CrossEntropy(logits, tgt, scratch)
		}
		return total / float64(b)
	}

	// Entries zeroed by the autoregressive masks are enforced by projection
	// (weights and grads both zeroed), so finite differences — which probe
	// the unprojected function — do not apply to them.
	maskOf := map[*nn.Param]*nn.Mat{m.inW: m.inMask}
	for _, blk := range m.blocks {
		maskOf[blk.w1] = m.hhMask
		maskOf[blk.w2] = m.hhMask
	}

	const eps = 1e-6
	checked := 0
	for _, p := range m.params {
		for i := range p.Val.Data {
			if mask, ok := maskOf[p]; ok && mask.Data[i] == 0 {
				if p.Grad.Data[i] != 0 {
					t.Fatalf("%s[%d]: masked entry has gradient %v", p.Name, i, p.Grad.Data[i])
				}
				continue
			}
			analytic := p.Grad.Data[i]
			orig := p.Val.Data[i]
			p.Val.Data[i] = orig + eps
			up := nll()
			p.Val.Data[i] = orig - eps
			down := nll()
			p.Val.Data[i] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", p.Name, i, analytic, numeric)
			}
			checked++
		}
	}
	if checked < 100 {
		t.Fatalf("only %d parameters checked", checked)
	}
}

// TestMaskedWeightsStayMasked: autoregressive zeros must survive training.
func TestMaskedWeightsStayMasked(t *testing.T) {
	doms := []int{3, 3, 3}
	m, err := New(tinyConfig(6), doms)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for s := 0; s < 20; s++ {
		m.TrainStep(randBatch(rng, doms, 16), 0.2)
	}
	for i := range m.inW.Val.Data {
		if m.inMask.Data[i] == 0 && m.inW.Val.Data[i] != 0 {
			t.Fatal("input mask violated after training")
		}
	}
	for _, blk := range m.blocks {
		for i := range blk.w1.Val.Data {
			if m.hhMask.Data[i] == 0 && (blk.w1.Val.Data[i] != 0 || blk.w2.Val.Data[i] != 0) {
				t.Fatal("hidden mask violated after training")
			}
		}
	}
}

// TestLearnsCorrelation: X1 ≡ X0 must be captured, and the wildcard MASK
// conditional must approximate the marginal.
func TestLearnsCorrelation(t *testing.T) {
	doms := []int{2, 2}
	cfg := tinyConfig(7)
	cfg.Hidden = 16
	m, err := New(cfg, doms)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for step := 0; step < 400; step++ {
		batch := make([][]int32, 64)
		for i := range batch {
			x := int32(rng.Intn(2))
			batch[i] = []int32{x, x}
		}
		m.TrainStep(batch, 0.5)
	}
	out := nn.NewMat(2, 2)
	m.Conditional([][]int32{{0, 0}, {1, 0}}, 1, out)
	if out.At(0, 0) < 0.9 {
		t.Errorf("p(X1=0|X0=0) = %v, want > 0.9", out.At(0, 0))
	}
	if out.At(1, 1) < 0.9 {
		t.Errorf("p(X1=1|X0=1) = %v, want > 0.9", out.At(1, 1))
	}
	// Wildcard on X0: conditional must be near the marginal (0.5).
	wout := nn.NewMat(1, 2)
	m.Conditional([][]int32{{MaskToken, 0}}, 1, wout)
	if math.Abs(wout.At(0, 0)-0.5) > 0.15 {
		t.Errorf("p(X1=0|X0=*) = %v, want ≈ 0.5", wout.At(0, 0))
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	doms := []int{5, 5, 5}
	m, err := New(tinyConfig(10), doms)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	// Skewed correlated data: X1 = X0, X2 = (X0+1)%5.
	gen := func(n int) [][]int32 {
		out := make([][]int32, n)
		for i := range out {
			x := int32(rng.Intn(5))
			out[i] = []int32{x, x, (x + 1) % 5}
		}
		return out
	}
	first := m.TrainStep(gen(64), 0)
	var last float64
	for s := 0; s < 200; s++ {
		last = m.TrainStep(gen(64), 0)
	}
	if last >= first*0.7 {
		t.Errorf("loss did not drop: first %v, last %v", first, last)
	}
	if m.SamplesSeen() != 64*201 {
		t.Errorf("SamplesSeen = %d", m.SamplesSeen())
	}
}

func TestSingleColumnMarginal(t *testing.T) {
	m, err := New(tinyConfig(12), []int{3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	// Marginal: p(0)=0.7, p(1)=0.2, p(2)=0.1.
	probs := []float64{0.7, 0.2, 0.1}
	for s := 0; s < 300; s++ {
		batch := make([][]int32, 64)
		for i := range batch {
			u := rng.Float64()
			switch {
			case u < 0.7:
				batch[i] = []int32{0}
			case u < 0.9:
				batch[i] = []int32{1}
			default:
				batch[i] = []int32{2}
			}
		}
		m.TrainStep(batch, 0)
	}
	out := nn.NewMat(1, 3)
	m.Conditional([][]int32{{0}}, 0, out)
	for i, want := range probs {
		if math.Abs(out.At(0, i)-want) > 0.05 {
			t.Errorf("p(%d) = %v, want ≈ %v", i, out.At(0, i), want)
		}
	}
}

func TestBytesAccounting(t *testing.T) {
	m, err := New(tinyConfig(13), []int{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if m.Bytes() != m.NumParams()*4 {
		t.Errorf("Bytes = %d, want 4·%d", m.Bytes(), m.NumParams())
	}
	if m.NumCols() != 2 || m.DomainSize(1) != 20 {
		t.Error("metadata accessors wrong")
	}
}
