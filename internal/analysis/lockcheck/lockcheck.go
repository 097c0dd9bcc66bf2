package lockcheck

import (
	"go/ast"
	"go/types"

	"saqp/internal/analysis"
)

// Analyzer flags unguarded access to mutex-protected struct fields.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc: "flags writes to struct fields that are guarded elsewhere by a " +
		"sync.Mutex of the same struct, when the writing function never " +
		"locks that mutex",
	Run: run,
}

// write is one recorded field assignment.
type write struct {
	structObj *types.TypeName
	field     string
	pos       ast.Expr // the field's selector, at or inside the expression written
	base      ast.Expr // the expression the field is selected from
	fn        *ast.FuncDecl
}

func run(pass *analysis.Pass) error {
	structs := mutexStructs(pass)
	if len(structs) == 0 {
		return nil
	}

	var writes []write
	// locked[fn] holds the struct types whose mutex fn locks (any of the
	// struct's mutex fields counts).
	locked := make(map[*ast.FuncDecl]map[*types.TypeName]bool)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			locked[fn] = make(map[*types.TypeName]bool)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.CallExpr:
					if obj := lockTarget(pass.TypesInfo, structs, node); obj != nil {
						locked[fn][obj] = true
					}
				case *ast.AssignStmt:
					for _, lhs := range node.Lhs {
						recordWrite(pass.TypesInfo, structs, fn, lhs, &writes)
					}
				case *ast.IncDecStmt:
					recordWrite(pass.TypesInfo, structs, fn, node.X, &writes)
				}
				return true
			})
		}
	}

	// A field is guarded if at least one write to it happens in a
	// function that locks the struct's mutex.
	type key struct {
		s *types.TypeName
		f string
	}
	guarded := make(map[key]bool)
	for _, w := range writes {
		if locked[w.fn][w.structObj] {
			guarded[key{w.structObj, w.field}] = true
		}
	}

	for _, w := range writes {
		if !guarded[key{w.structObj, w.field}] || locked[w.fn][w.structObj] {
			continue
		}
		if locallyConstructed(pass.TypesInfo, w.base, w.fn) {
			continue
		}
		pass.Reportf(w.pos.Pos(),
			"write to %s.%s without holding %s's mutex (field is locked elsewhere); lock it or excuse with //lint:allow saqpvet/lockcheck",
			w.structObj.Name(), w.field, w.structObj.Name())
	}
	return nil
}

// mutexStructs maps each package-level struct type to the names of its
// sync.Mutex / sync.RWMutex fields.
func mutexStructs(pass *analysis.Pass) map[*types.TypeName][]string {
	out := make(map[*types.TypeName][]string)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			obj, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
			if !ok {
				return true
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				return true
			}
			var mus []string
			for i := 0; i < st.NumFields(); i++ {
				if isSyncMutex(st.Field(i).Type()) {
					mus = append(mus, st.Field(i).Name())
				}
			}
			if len(mus) > 0 {
				out[obj] = mus
			}
			return true
		})
	}
	return out
}

func isSyncMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// baseStruct resolves expr to one of the recorded struct types, seeing
// through one level of pointer.
func baseStruct(info *types.Info, structs map[*types.TypeName][]string, expr ast.Expr) *types.TypeName {
	t := info.TypeOf(expr)
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := structs[named.Obj()]; ok {
		return named.Obj()
	}
	return nil
}

// lockTarget reports which recorded struct a call like s.mu.Lock(),
// s.mu.RLock() or s.Lock() (embedded mutex) locks, or nil.
func lockTarget(info *types.Info, structs map[*types.TypeName][]string, call *ast.CallExpr) *types.TypeName {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
		return nil
	}
	// s.mu.Lock(): the mutex is a named field of a recorded struct.
	if inner, ok := sel.X.(*ast.SelectorExpr); ok {
		if obj := baseStruct(info, structs, inner.X); obj != nil {
			for _, mu := range structs[obj] {
				if inner.Sel.Name == mu {
					return obj
				}
			}
		}
	}
	// s.Lock(): promoted method of an embedded mutex.
	if obj := baseStruct(info, structs, sel.X); obj != nil {
		for _, mu := range structs[obj] {
			if mu == "Mutex" || mu == "RWMutex" {
				return obj
			}
		}
	}
	return nil
}

// recordWrite records lhs as a write to a mutex struct's field. Selector,
// index and dereference chains are peeled down to the nearest mutex-struct
// base, so x.f.g++, x.f[i] = v and x.f[i].g = v are all writes to f: a
// write anywhere inside a guarded field is a write to that field.
func recordWrite(info *types.Info, structs map[*types.TypeName][]string, fn *ast.FuncDecl, lhs ast.Expr, writes *[]write) {
	e := lhs
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			obj := baseStruct(info, structs, x.X)
			if obj == nil {
				e = x.X
				continue
			}
			for _, mu := range structs[obj] {
				if x.Sel.Name == mu {
					return // writing the mutex field itself (e.g. zeroing) is out of scope
				}
			}
			*writes = append(*writes, write{structObj: obj, field: x.Sel.Name, pos: x, base: x.X, fn: fn})
			return
		default:
			return
		}
	}
}

// locallyConstructed reports whether base is a variable declared inside
// fn's body — the value is still being built and cannot be shared yet.
func locallyConstructed(info *types.Info, base ast.Expr, fn *ast.FuncDecl) bool {
	id, ok := ast.Unparen(base).(*ast.Ident)
	if !ok {
		return false
	}
	obj, ok := info.Uses[id].(*types.Var)
	if !ok {
		return false
	}
	return obj.Pos() >= fn.Body.Pos() && obj.Pos() <= fn.Body.End()
}
