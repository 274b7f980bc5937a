// Package codegen converts trained decision trees into Go source code —
// the paper's "simple code generation algorithm" that turns internal tree
// nodes into nested if statements and leaves into parameter assignments,
// producing the low-overhead compiled decision function Apollo evaluates
// at every kernel launch.
//
// The generated function has the shape of the paper's example model:
//
//	func ApolloBeginForall(numIndices float64, ...) raja.Params {
//	    var p raja.Params
//	    if numIndices <= 103938.0 {
//	        if numIndices <= 19965.5 {
//	            p.Policy = raja.SeqExec
//	        } else {
//	            p.Policy = raja.OmpParallelForExec
//	        }
//	    }
//	    ...
//	    return p
//	}
//
// Go has no dlopen-style model reloading, so the runtime tuner evaluates
// the tree directly (package tuner): Model.Params(Model.Predict(x), base)
// is the in-process equivalent of linking the generated function.
package codegen

import (
	"fmt"
	"go/token"
	"strings"

	"apollo/internal/core"
	"apollo/internal/dtree"
	"apollo/internal/raja"
)

// GoIdent converts a feature name into an exported-safe Go identifier
// fragment, e.g. "num_indices" -> "numIndices".
func GoIdent(feature string) string {
	parts := strings.FieldsFunc(feature, func(r rune) bool { return r == '_' || r == '.' || r == '-' })
	if len(parts) == 0 {
		return "x"
	}
	var b strings.Builder
	b.WriteString(parts[0])
	for _, p := range parts[1:] {
		if p == "" {
			continue
		}
		b.WriteString(strings.ToUpper(p[:1]))
		b.WriteString(p[1:])
	}
	ident := b.String()
	if ident == "" {
		return "x"
	}
	if token.IsKeyword(ident) {
		// e.g. the "func" feature would otherwise shadow a Go keyword.
		ident += "Feature"
	}
	return ident
}

// assignment renders the leaf assignment for a class of the parameter.
func assignment(param core.Parameter, class int) string {
	switch param {
	case core.ExecutionPolicy:
		switch raja.Policy(class) {
		case raja.SeqExec:
			return "p.Policy = raja.SeqExec"
		case raja.OmpParallelForExec:
			return "p.Policy = raja.OmpParallelForExec"
		}
	case core.ChunkSize:
		if class >= 0 && class < len(raja.ChunkSizes) {
			return fmt.Sprintf("p.Chunk = %d", raja.ChunkSizes[class])
		}
	}
	return fmt.Sprintf("p = p // unknown class %d", class)
}

// Generate renders the model as a compilable Go source file containing a
// single decision function named funcName in package pkg. The function
// takes the model's features as float64 parameters, in schema order.
func Generate(m *core.Model, pkg, funcName string) string {
	names := m.Schema.Names()
	params := make([]string, len(names))
	for i, n := range names {
		params[i] = GoIdent(n) + " float64"
	}

	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by apollo codegen from a %s model; DO NOT EDIT.\n", m.Param)
	fmt.Fprintf(&b, "package %s\n\n", pkg)
	b.WriteString("import \"apollo/internal/raja\"\n\n")
	fmt.Fprintf(&b, "// %s selects %s parameters for one kernel launch.\n", funcName, m.Param)
	fmt.Fprintf(&b, "func %s(%s) raja.Params {\n", funcName, strings.Join(params, ", "))
	b.WriteString("\tvar p raja.Params\n")
	emitNode(&b, m, m.Tree.Root, "\t")
	b.WriteString("\treturn p\n")
	b.WriteString("}\n")
	return b.String()
}

func emitNode(b *strings.Builder, m *core.Model, n *dtree.Node, indent string) {
	if n == nil {
		return
	}
	if n.IsLeaf() {
		fmt.Fprintf(b, "%s%s\n", indent, assignment(m.Param, n.Label))
		return
	}
	fmt.Fprintf(b, "%sif %s <= %s {\n", indent, GoIdent(m.Schema.Name(n.Feature)), formatFloat(n.Threshold))
	emitNode(b, m, n.Left, indent+"\t")
	fmt.Fprintf(b, "%s} else {\n", indent)
	emitNode(b, m, n.Right, indent+"\t")
	fmt.Fprintf(b, "%s}\n", indent)
}

func formatFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	// Ensure the literal is a float (codegen parameters are float64).
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}
