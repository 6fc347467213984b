package aspen

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// stripPositions zeroes every Pos field so structural comparison ignores
// source locations.
func stripPositions(v reflect.Value) {
	switch v.Kind() {
	case reflect.Ptr:
		if !v.IsNil() {
			stripPositions(v.Elem())
		}
	case reflect.Interface:
		if !v.IsNil() {
			stripPositions(v.Elem())
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(Pos{}) {
			if v.CanSet() {
				v.Set(reflect.Zero(v.Type()))
			}
			return
		}
		for i := 0; i < v.NumField(); i++ {
			stripPositions(v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			stripPositions(v.Index(i))
		}
	}
}

func normalized(t *testing.T, m *Model) *Model {
	t.Helper()
	stripPositions(reflect.ValueOf(m))
	return m
}

func TestFormatRoundTripKnownModels(t *testing.T) {
	for _, src := range []string{vmSource, mgSource, cgSource} {
		orig, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		formatted := Format(orig)
		reparsed, err := Parse(formatted)
		if err != nil {
			t.Fatalf("formatted source does not parse: %v\n%s", err, formatted)
		}
		if !reflect.DeepEqual(normalized(t, orig), normalized(t, reparsed)) {
			t.Errorf("round trip changed the model:\n%s", formatted)
		}
	}
}

func TestFormatIsIdempotent(t *testing.T) {
	m, err := Parse(vmSource)
	if err != nil {
		t.Fatal(err)
	}
	once := Format(m)
	m2, err := Parse(once)
	if err != nil {
		t.Fatal(err)
	}
	if twice := Format(m2); twice != once {
		t.Errorf("Format not idempotent:\n--- once ---\n%s\n--- twice ---\n%s", once, twice)
	}
}

func TestFormatExprMinimalParens(t *testing.T) {
	cases := []struct{ src, want string }{
		{"1 + 2 * 3", "1 + 2 * 3"},
		{"(1 + 2) * 3", "(1 + 2) * 3"},
		{"1 - (2 - 3)", "1 - (2 - 3)"},
		{"1 - 2 - 3", "1 - 2 - 3"},
		{"2 ^ 3 ^ 4", "2 ^ 3 ^ 4"},
		{"(2 ^ 3) ^ 4", "(2 ^ 3) ^ 4"},
		{"-2 ^ 2", "-2 ^ 2"},
		{"2 * -3", "2 * (-3)"},
		{"ceil(8 / 3) + min(1, 2)", "ceil(8 / 3) + min(1, 2)"},
		{"a * b / c", "a * b / c"},
		{"a / (b * c)", "a / (b * c)"},
		{"10 % 3", "10 % 3"},
	}
	for _, c := range cases {
		m, err := Parse("model m { param x = " + c.src + " }")
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if got := FormatExpr(m.Params[0].Expr); got != c.want {
			t.Errorf("FormatExpr(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

// randomExpr builds a random expression tree for round-trip fuzzing.
func randomExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return &NumLit{Value: float64(rng.Intn(100))}
		}
		return &VarRef{Name: string(rune('a' + rng.Intn(4)))}
	}
	switch rng.Intn(6) {
	case 0:
		return &Neg{Operand: randomExpr(rng, depth-1)}
	case 1:
		return &Call{Name: "min", Args: []Expr{randomExpr(rng, depth-1), randomExpr(rng, depth-1)}}
	default:
		ops := []TokenKind{TokPlus, TokMinus, TokStar, TokSlash, TokPercent, TokCaret}
		return &BinOp{
			Op:  ops[rng.Intn(len(ops))],
			Lhs: randomExpr(rng, depth-1),
			Rhs: randomExpr(rng, depth-1),
		}
	}
}

// Property: formatting a random expression and reparsing yields the same
// numeric value under a fixed environment (value-level round trip, robust
// to benign structural normalizations).
func TestFormatExprRoundTripProperty(t *testing.T) {
	env := map[string]float64{"a": 3, "b": 5, "c": 7, "d": 11}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomExpr(rng, 4)
		src := FormatExpr(e)
		m, err := Parse("model m { param x = " + src + " }")
		if err != nil {
			t.Logf("seed %d: %q failed to parse: %v", seed, src, err)
			return false
		}
		v1, err1 := evalExpr(e, env)
		v2, err2 := evalExpr(m.Params[0].Expr, env)
		if err1 != nil || err2 != nil {
			// Division by zero etc. must at least fail identically.
			return (err1 == nil) == (err2 == nil)
		}
		if v1 != v2 && !(v1 != v1 && v2 != v2) { // NaN == NaN structurally
			t.Logf("seed %d: %q evaluates to %g vs %g", seed, src, v1, v2)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFormatTemplateModel(t *testing.T) {
	m, err := Parse(mgSource)
	if err != nil {
		t.Fatal(err)
	}
	out := Format(m)
	for _, want := range []string{"pattern template(8)", "dims (n3, n2, n1)", "range (R(2, 1, 1)"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted MG model missing %q:\n%s", want, out)
		}
	}
}

func TestFormatOrderString(t *testing.T) {
	m, err := Parse(cgSource)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Format(m), `order "r(Ap)p(xp)(Ap)r(rp)"`) {
		t.Error("order string not preserved")
	}
}
