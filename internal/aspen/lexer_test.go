package aspen

import "testing"

// lexAll tokenizes the whole input (excluding the trailing EOF token).
func lexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	var toks []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == TokEOF {
			return toks, nil
		}
		toks = append(toks, t)
	}
}

func kinds(toks []Token) []TokenKind {
	out := make([]TokenKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexBasicTokens(t *testing.T) {
	toks, err := lexAll(`model vm { param n = 8 }`)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{TokIdent, TokIdent, TokLBrace, TokIdent, TokIdent, TokAssign, TokNumber, TokRBrace}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token kinds %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d: %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexNumbers(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"42", 42},
		{"3.5", 3.5},
		{"1e3", 1000},
		{"2.5e-2", 0.025},
		{"4K", 4096},
		{"2M", 2 << 20},
		{"1G", 1 << 30},
		{".5", 0.5},
	}
	for _, c := range cases {
		toks, err := lexAll(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if len(toks) != 1 || toks[0].Kind != TokNumber || toks[0].Num != c.want {
			t.Errorf("%q lexed to %+v, want number %g", c.src, toks, c.want)
		}
	}
}

func TestLexMagnitudeSuffixNotPartOfIdent(t *testing.T) {
	// "4Kb" must not silently become 4096 followed by "b".
	toks, err := lexAll("4Kb")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Num != 4 {
		t.Errorf("4Kb: first token %+v, want plain 4", toks[0])
	}
}

func TestLexString(t *testing.T) {
	toks, err := lexAll(`order "r(Ap)p(xp)"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != TokString || toks[1].Text != "r(Ap)p(xp)" {
		t.Errorf("string token: %+v", toks[1])
	}
}

func TestLexComments(t *testing.T) {
	toks, err := lexAll("a // line comment\n /* block\ncomment */ b")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2 || toks[0].Text != "a" || toks[1].Text != "b" {
		t.Errorf("comment handling: %+v", toks)
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := lexAll("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != (Pos{1, 1}) || toks[1].Pos != (Pos{2, 3}) {
		t.Errorf("positions: %v %v", toks[0].Pos, toks[1].Pos)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "/* unterminated", "@"} {
		if _, err := lexAll(src); err == nil {
			t.Errorf("%q: expected lex error", src)
		}
	}
}

func TestLexOperators(t *testing.T) {
	toks, err := lexAll("+-*/%^(),:=")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{TokPlus, TokMinus, TokStar, TokSlash, TokPercent,
		TokCaret, TokLParen, TokRParen, TokComma, TokColon, TokAssign}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("operator %d: %v, want %v", i, got[i], want[i])
		}
	}
}
