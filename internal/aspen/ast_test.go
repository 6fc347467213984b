package aspen

import (
	"fmt"
	"testing"
)

func TestPatternClausePositions(t *testing.T) {
	m := mustParse(t, `
model m {
    data S { size 80   pattern streaming(8, 10, 1) }
    data R { size 320  pattern random(10, 32, 2, 100, 1.0) }
    data U { size 80   pattern reuse(100, 3) }
    data T { size 64   pattern template(8) { list (0, 1) } }
}`)
	for _, d := range m.Data {
		if d.Pattern.pos().Line == 0 {
			t.Errorf("%s: pattern position missing", d.Name)
		}
		if d.Pattern.patternName() == "" {
			t.Errorf("%s: pattern name missing", d.Name)
		}
	}
}

func TestExprPositions(t *testing.T) {
	m := mustParse(t, `model m { param x = -ceil(1 + a * 2) }`)
	var walk func(e Expr)
	walk = func(e Expr) {
		if e.exprPos().Line == 0 {
			t.Errorf("%T: position missing", e)
		}
		switch n := e.(type) {
		case *Neg:
			walk(n.Operand)
		case *BinOp:
			walk(n.Lhs)
			walk(n.Rhs)
		case *Call:
			for _, a := range n.Args {
				walk(a)
			}
		}
	}
	walk(m.Params[0].Expr)
}

// FindData returns the named data declaration.
func (m *Model) FindData(name string) (*Data, error) {
	for _, d := range m.Data {
		if d.Name == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("aspen: model %q has no data structure %q", m.Name, name)
}

func TestFindDataAndParam(t *testing.T) {
	m := mustParse(t, `model m { param n = 4 data A { size 8 pattern streaming(8,1,1) } }`)
	if _, err := m.FindData("A"); err != nil {
		t.Error(err)
	}
	if _, err := m.FindData("Z"); err == nil {
		t.Error("unknown data found")
	}
	if _, ok := m.FindParam("n"); !ok {
		t.Error("param n not found")
	}
	if _, ok := m.FindParam("zz"); ok {
		t.Error("unknown param found")
	}
}
