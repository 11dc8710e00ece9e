package topics

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("We propose a Novel, query-processing engine for XML streams!")
	want := []string{"novel", "query", "processing", "engine", "xml", "streams"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tokenize = %v, want %v", got, want)
		}
	}
	if len(Tokenize("a an of to")) != 0 {
		t.Fatal("stopwords not removed")
	}
}

func TestVocabulary(t *testing.T) {
	v := NewVocabulary()
	id1 := v.Add("graph")
	id2 := v.Add("query")
	if id1 == id2 {
		t.Fatal("distinct words share an id")
	}
	if again := v.Add("graph"); again != id1 {
		t.Fatal("re-adding a word changed its id")
	}
	if v.Size() != 2 {
		t.Fatalf("Size = %d", v.Size())
	}
	if w := v.Word(id2); w != "query" {
		t.Fatalf("Word = %q", w)
	}
	if _, ok := v.ID("missing"); ok {
		t.Fatal("unknown word resolved")
	}
	words := v.Words()
	words[0] = "mutated"
	if v.Word(id1) == "mutated" {
		t.Fatal("Words() exposed internal storage")
	}
}

func TestCorpusValidate(t *testing.T) {
	c := NewCorpus(2)
	if err := c.Validate(); err == nil {
		t.Fatal("empty corpus accepted")
	}
	if err := c.AddText("graph mining algorithms", []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.AddText("bad author", []int{5}); err == nil {
		t.Fatal("out-of-range author accepted")
	}
	c.Docs = append(c.Docs, Document{Words: []int{99}, Authors: []int{0}})
	if err := c.Validate(); err == nil {
		t.Fatal("out-of-range word accepted")
	}
}

// syntheticCorpus builds a corpus with two clearly separated topics:
// author 0 writes only topic-A words, author 1 only topic-B words, and
// author 2 writes both.
func syntheticCorpus(docsPerAuthor int) (*Corpus, []string, []string) {
	wordsA := []string{"spatial", "index", "road", "trajectory", "nearest", "neighbor"}
	wordsB := []string{"privacy", "anonymity", "secure", "encryption", "attack", "noise"}
	c := NewCorpus(3)
	rng := rand.New(rand.NewSource(7))
	makeDoc := func(words []string) string {
		var sb strings.Builder
		for i := 0; i < 30; i++ {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteByte(' ')
		}
		return sb.String()
	}
	for i := 0; i < docsPerAuthor; i++ {
		_ = c.AddText(makeDoc(wordsA), []int{0})
		_ = c.AddText(makeDoc(wordsB), []int{1})
		_ = c.AddText(makeDoc(wordsA)+" "+makeDoc(wordsB), []int{2})
	}
	return c, wordsA, wordsB
}

func TestFitATMSeparatesTopics(t *testing.T) {
	c, wordsA, wordsB := syntheticCorpus(12)
	res, err := FitATM(c, ATMConfig{Topics: 2, Iterations: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Rows are probability distributions.
	for a, row := range res.AuthorTopic {
		sum := 0.0
		for _, x := range row {
			if x < 0 {
				t.Fatalf("author %d has a negative weight", a)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("author %d topic vector sums to %v", a, sum)
		}
	}
	// Authors 0 and 1 should be concentrated on different topics.
	top := func(row []float64) int {
		best := 0
		for t := range row {
			if row[t] > row[best] {
				best = t
			}
		}
		return best
	}
	t0, t1 := top(res.AuthorTopic[0]), top(res.AuthorTopic[1])
	if t0 == t1 {
		t.Fatalf("authors with disjoint vocabularies mapped to the same topic: %v vs %v",
			res.AuthorTopic[0], res.AuthorTopic[1])
	}
	if res.AuthorTopic[0][t0] < 0.8 || res.AuthorTopic[1][t1] < 0.8 {
		t.Fatalf("single-topic authors not concentrated: %v %v", res.AuthorTopic[0], res.AuthorTopic[1])
	}
	// The mixed author should spread over both topics.
	if res.AuthorTopic[2][t0] < 0.2 || res.AuthorTopic[2][t1] < 0.2 {
		t.Fatalf("mixed author not spread: %v", res.AuthorTopic[2])
	}
	// Topic-word distributions should separate the two vocabularies.
	topWords0 := TopWords(res.TopicWord[t0], c.Vocab, 6)
	for _, w := range topWords0 {
		for _, b := range wordsB {
			if w == b {
				t.Fatalf("topic %d mixes vocabularies: %v", t0, topWords0)
			}
		}
	}
	topWords1 := TopWords(res.TopicWord[t1], c.Vocab, 6)
	for _, w := range topWords1 {
		for _, a := range wordsA {
			if w == a {
				t.Fatalf("topic %d mixes vocabularies: %v", t1, topWords1)
			}
		}
	}
}

func TestFitATMDeterministicWithSeed(t *testing.T) {
	c, _, _ := syntheticCorpus(4)
	r1, err := FitATM(c, ATMConfig{Topics: 2, Iterations: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := FitATM(c, ATMConfig{Topics: 2, Iterations: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for a := range r1.AuthorTopic {
		for t2 := range r1.AuthorTopic[a] {
			if r1.AuthorTopic[a][t2] != r2.AuthorTopic[a][t2] {
				t.Fatal("same seed produced different ATM fits")
			}
		}
	}
}

func TestFitATMRejectsEmptyCorpus(t *testing.T) {
	if _, err := FitATM(NewCorpus(1), ATMConfig{}); err == nil {
		t.Fatal("empty corpus accepted")
	}
}

func TestInferDocument(t *testing.T) {
	c, wordsA, wordsB := syntheticCorpus(12)
	res, err := FitATM(c, ATMConfig{Topics: 2, Iterations: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	top := func(row []float64) int {
		best := 0
		for t := range row {
			if row[t] > row[best] {
				best = t
			}
		}
		return best
	}
	tA := top(res.AuthorTopic[0])

	vecA, err := InferDocument(strings.Join(wordsA, " "), c.Vocab, res.TopicWord, InferConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if top(vecA) != tA || vecA[tA] < 0.8 {
		t.Fatalf("pure topic-A document inferred as %v", vecA)
	}
	mixed, err := InferDocument(strings.Join(append(append([]string{}, wordsA...), wordsB...), " "), c.Vocab, res.TopicWord, InferConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if mixed[0] < 0.2 || mixed[1] < 0.2 {
		t.Fatalf("mixed document not spread over both topics: %v", mixed)
	}
	// Unknown words only: uniform.
	unk, err := InferDocument("zzzz qqqq", c.Vocab, res.TopicWord, InferConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range unk {
		if math.Abs(x-0.5) > 1e-9 {
			t.Fatalf("unknown-word document should be uniform, got %v", unk)
		}
	}
}

func TestInferDocumentErrors(t *testing.T) {
	if _, err := InferDocument("anything", NewVocabulary(), nil, InferConfig{}); err == nil {
		t.Fatal("missing topics accepted")
	}
}

// Property: EM inference never decreases the likelihood of Equation 11
// compared to the uniform initialisation.
func TestInferImprovesLikelihood(t *testing.T) {
	c, _, _ := syntheticCorpus(8)
	res, err := FitATM(c, ATMConfig{Topics: 2, Iterations: 80, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Build a random document from the corpus vocabulary.
		n := 5 + rng.Intn(30)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "%s ", c.Vocab.Word(rng.Intn(c.Vocab.Size())))
		}
		text := sb.String()
		words := WordIDs(text, c.Vocab)
		if len(words) == 0 {
			return true
		}
		uniform := []float64{0.5, 0.5}
		inferred, err := InferDocument(text, c.Vocab, res.TopicWord, InferConfig{})
		if err != nil {
			return false
		}
		return Likelihood(words, inferred, res.TopicWord) >= Likelihood(words, uniform, res.TopicWord)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTopWords(t *testing.T) {
	v := NewVocabulary()
	v.Add("alpha")
	v.Add("beta")
	v.Add("gamma")
	dist := []float64{0.2, 0.5, 0.3}
	got := TopWords(dist, v, 2)
	if len(got) != 2 || got[0] != "beta" || got[1] != "gamma" {
		t.Fatalf("TopWords = %v", got)
	}
	if len(TopWords(dist, v, 10)) != 3 {
		t.Fatal("TopWords should clamp k to the vocabulary size")
	}
}
