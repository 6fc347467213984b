package aspen

import "fmt"

// Check performs the semantic validation pass of the extended-Aspen
// compiler (Figure 3's "syntax analysis" stage): duplicate declarations,
// resolvable parameters, complete data declarations, and well-formed
// pattern parameter tuples. A model that passes Check will evaluate
// without declaration-level errors (data-dependent errors, such as a
// template index outside its structure, are still reported at evaluation).
func Check(m *Model) error {
	if m.Name == "" {
		return fmt.Errorf("aspen: model has no name")
	}
	vars, err := bindParams(m)
	if err != nil {
		return err
	}

	seen := map[string]Pos{}
	for _, d := range m.Data {
		if prev, dup := seen[d.Name]; dup {
			return errAt(d.Pos, "duplicate data structure %q (first declared at %s)", d.Name, prev)
		}
		if _, isParam := m.FindParam(d.Name); isParam {
			return errAt(d.Pos, "data structure %q shadows a parameter of the same name", d.Name)
		}
		seen[d.Name] = d.Pos
		if d.Size == nil {
			return errAt(d.Pos, "data %q lacks a size", d.Name)
		}
		if _, err := evalExpr(d.Size, vars); err != nil {
			return err
		}
		if d.Pattern == nil {
			return errAt(d.Pos, "data %q lacks an access pattern", d.Name)
		}
		if err := checkPattern(m, d, vars); err != nil {
			return err
		}
	}

	if m.Machine != nil && m.Machine.Cache != nil {
		if _, _, err := machineConfig(m, vars); err != nil {
			return err
		}
	}

	names := dataNames(m)
	kernelSeen := map[string]Pos{}
	for _, k := range m.Kernels {
		if prev, dup := kernelSeen[k.Name]; dup {
			return errAt(k.Pos, "duplicate kernel %q (first declared at %s)", k.Name, prev)
		}
		kernelSeen[k.Name] = k.Pos
		if k.Order != "" {
			if _, err := ParseOrder(k.Order, names); err != nil {
				return errAt(k.Pos, "kernel %q: %v", k.Name, err)
			}
		}
		if k.Flops != nil {
			if _, err := evalExpr(k.Flops, vars); err != nil {
				return err
			}
		}
		if k.Time != nil {
			if _, err := evalExpr(k.Time, vars); err != nil {
				return err
			}
		}
	}
	return nil
}

func checkPattern(m *Model, d *Data, vars env) error {
	switch p := d.Pattern.(type) {
	case *StreamingPattern:
		for _, e := range []Expr{p.ElemSize, p.Count, p.Stride} {
			if _, err := evalExpr(e, vars); err != nil {
				return err
			}
		}
	case *RandomPattern:
		for _, e := range []Expr{p.Count, p.ElemSize, p.K, p.Iter, p.Ratio} {
			if _, err := evalExpr(e, vars); err != nil {
				return err
			}
		}
		ratio, _ := evalExpr(p.Ratio, vars)
		if ratio <= 0 || ratio > 1 {
			return errAt(p.Pos, "random cache ratio %g must be in (0, 1]", ratio)
		}
	case *ReusePattern:
		if ref, ok := p.OtherBytes.(*VarRef); ok && ref.Name == "auto" {
			hasOrder := false
			for _, k := range m.Kernels {
				if k.Order != "" {
					hasOrder = true
				}
			}
			if !hasOrder {
				return errAt(p.Pos, "data %q uses reuse(auto, ...) but no kernel declares an order string", d.Name)
			}
		} else if _, err := evalExpr(p.OtherBytes, vars); err != nil {
			return err
		}
		if _, err := evalExpr(p.Reuses, vars); err != nil {
			return err
		}
	case *TemplatePattern:
		if len(p.Ranges) == 0 && len(p.List) == 0 {
			return errAt(p.Pos, "data %q: template declares no accesses", d.Name)
		}
		if len(p.Ranges) > 0 && len(p.Dims) == 0 {
			return errAt(p.Pos, "data %q: ranged template requires dims", d.Name)
		}
		repeats, err := templateRepeats(p, vars)
		if err != nil {
			return err
		}
		if _, err := lowerTemplateWalk(p, vars, repeats); err != nil {
			return err
		}
	default:
		return errAt(d.Pos, "data %q: unknown pattern clause", d.Name)
	}
	return nil
}
