package aspen

// Model is the root of an extended-Aspen program: one application model
// with its parameters, machine description, data structures and kernels.
type Model struct {
	Name    string
	Params  []*Param
	Machine *Machine
	Data    []*Data
	Kernels []*KernelClause
	Pos     Pos
}

// Param is a named constant: param n = 1000.
type Param struct {
	Name string
	Expr Expr
	Pos  Pos
}

// Machine describes the target hardware: the last-level cache geometry
// (Table III) and the main-memory failure rate (Table VII).
type Machine struct {
	Cache  *CacheClause
	Memory *MemoryClause
	Pos    Pos
}

// CacheClause is the cache geometry: assoc/sets/line, with capacity derived.
type CacheClause struct {
	Assoc Expr
	Sets  Expr
	Line  Expr
	Pos   Pos
}

// MemoryClause carries the memory failure rate in FIT/Mbit.
type MemoryClause struct {
	FIT Expr
	Pos Pos
}

// Data declares one data structure with its size and access pattern.
type Data struct {
	Name    string
	Size    Expr // bytes
	Pattern PatternClause
	Pos     Pos
}

// PatternClause is implemented by the four access-pattern declarations.
type PatternClause interface {
	patternName() string
	pos() Pos
}

// StreamingPattern is the paper's (E, N, S) streaming tuple, optionally
// with a repeat count for structures traversed multiple times.
type StreamingPattern struct {
	ElemSize Expr
	Count    Expr
	Stride   Expr
	Repeats  Expr // optional; nil means 1
	Pos      Pos
}

func (*StreamingPattern) patternName() string { return "streaming" }
func (p *StreamingPattern) pos() Pos          { return p.Pos }

// RandomPattern is the paper's (N, E, k, iter, r) random tuple.
type RandomPattern struct {
	Count    Expr
	ElemSize Expr
	K        Expr
	Iter     Expr
	Ratio    Expr
	Pos      Pos
}

func (*RandomPattern) patternName() string { return "random" }
func (p *RandomPattern) pos() Pos          { return p.Pos }

// ReusePattern models predictable reuse under interference: the target
// size comes from the data declaration; the clause gives the aggregate
// interfering bytes and the number of reuse events.
type ReusePattern struct {
	OtherBytes Expr
	Reuses     Expr
	Pos        Pos
}

func (*ReusePattern) patternName() string { return "reuse" }
func (p *ReusePattern) pos() Pos          { return p.Pos }

// TemplatePattern is the template-based pattern: the element size plus a
// Matlab-style ranged template (the paper's start:step:end groups over a
// multi-dimensional structure) and/or an explicit element list, repeated
// `Repeats` times (nil means 1).
type TemplatePattern struct {
	ElemSize Expr
	Dims     []Expr    // dimension extents for Ref linearization, outermost first
	Ranges   []*RangeT // ranged groups
	List     []Expr    // explicit element indices
	Repeats  Expr      // optional
	Pos      Pos
}

func (*TemplatePattern) patternName() string { return "template" }
func (p *TemplatePattern) pos() Pos          { return p.Pos }

// RangeT is one ranged template: a group of starting references advanced
// by Step until the ending references are reached — the paper's
// {(R(2,1,1), ...) : 1 : (R(n3-1,...), ...)} syntax.
type RangeT struct {
	From []*Ref
	Step Expr
	To   []*Ref
	Pos  Pos
}

// Ref is a multi-dimensional reference R(i, j, k), linearized against the
// enclosing template's dims as in the paper: R(i,j,k) = i*n2*n1 + j*n1 + k.
type Ref struct {
	Indices []Expr
	Pos     Pos
}

// KernelClause carries the execution-scale facts the DVF computation
// needs: flop count, optional explicit execution time (seconds), and an
// optional access-order string (the paper's r(Ap)p(xp)... notation).
type KernelClause struct {
	Name  string
	Flops Expr   // optional
	Time  Expr   // optional, seconds
	Order string // optional access-order string
	Pos   Pos
}

// Expr is an arithmetic expression over numbers and parameters.
type Expr interface {
	exprPos() Pos
}

// NumLit is a numeric literal.
type NumLit struct {
	Value float64
	Pos   Pos
}

func (e *NumLit) exprPos() Pos { return e.Pos }

// VarRef references a param (or a builtin like ceil's argument names).
type VarRef struct {
	Name string
	Pos  Pos
}

func (e *VarRef) exprPos() Pos { return e.Pos }

// BinOp is a binary arithmetic operation.
type BinOp struct {
	Op       TokenKind // TokPlus, TokMinus, TokStar, TokSlash, TokPercent, TokCaret
	Lhs, Rhs Expr
	Pos      Pos
}

func (e *BinOp) exprPos() Pos { return e.Pos }

// Neg is unary minus.
type Neg struct {
	Operand Expr
	Pos     Pos
}

func (e *Neg) exprPos() Pos { return e.Pos }

// Call is a builtin function application (ceil, floor, min, max, log2).
type Call struct {
	Name string
	Args []Expr
	Pos  Pos
}

func (e *Call) exprPos() Pos { return e.Pos }

// FindParam returns the named parameter declaration.
func (m *Model) FindParam(name string) (*Param, bool) {
	for _, p := range m.Params {
		if p.Name == name {
			return p, true
		}
	}
	return nil, false
}
