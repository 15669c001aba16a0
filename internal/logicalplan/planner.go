package logicalplan

import (
	"fmt"
	"strconv"
	"strings"

	"prestroid/internal/sqlparse"
)

// Plan lowers a parsed SELECT statement to a logical plan rooted at an
// Output node. The lowering follows the textbook pipeline
// scan → filter → join → aggregate → having → distinct → sort/topN → limit →
// project, with Exchange nodes inserted above scans and joins the way a
// distributed engine such as Presto stages its fragments.
func Plan(stmt *sqlparse.SelectStmt) (*Node, error) {
	body, err := planQuery(stmt)
	if err != nil {
		return nil, err
	}
	return NewNode(OpOutput, body), nil
}

func planQuery(stmt *sqlparse.SelectStmt) (*Node, error) {
	node, err := planFrom(stmt.From)
	if err != nil {
		return nil, err
	}
	if stmt.Where != nil {
		node = &Node{Op: OpFilter, Pred: stmt.Where, Children: []*Node{node}}
	}
	if len(stmt.GroupBy) > 0 || hasAggregate(stmt) {
		node = &Node{Op: OpAggregate, Detail: groupDetail(stmt), Children: []*Node{node}}
		// Distributed engines add an exchange before the final aggregation.
		node = &Node{Op: OpExchange, Detail: "repartition", Children: []*Node{node}}
	}
	if stmt.Having != nil {
		node = &Node{Op: OpFilter, Pred: stmt.Having, Children: []*Node{node}}
	}
	if stmt.Distinct {
		node = &Node{Op: OpDistinct, Children: []*Node{node}}
	}
	switch {
	case len(stmt.OrderBy) > 0 && stmt.Limit >= 0:
		node = &Node{Op: OpTopN, Detail: orderDetail(stmt), Children: []*Node{node}}
	case len(stmt.OrderBy) > 0:
		node = &Node{Op: OpSort, Detail: orderDetail(stmt), Children: []*Node{node}}
	case stmt.Limit >= 0:
		node = &Node{Op: OpLimit, Detail: strconv.Itoa(stmt.Limit), Children: []*Node{node}}
	}
	node = &Node{Op: OpProject, Detail: projectDetail(stmt), Children: []*Node{node}}

	if stmt.Union != nil {
		rest, err := planQuery(stmt.Union)
		if err != nil {
			return nil, err
		}
		node = &Node{Op: OpUnion, Children: []*Node{node, rest}}
	}
	return node, nil
}

func planFrom(te sqlparse.TableExpr) (*Node, error) {
	switch v := te.(type) {
	case *sqlparse.TableRef:
		scan := &Node{Op: OpTableScan, Table: v.Name}
		return &Node{Op: OpExchange, Detail: "source", Children: []*Node{scan}}, nil
	case *sqlparse.SubqueryRef:
		return planQuery(v.Query)
	case *sqlparse.JoinExpr:
		left, err := planFrom(v.Left)
		if err != nil {
			return nil, err
		}
		right, err := planFrom(v.Right)
		if err != nil {
			return nil, err
		}
		return &Node{
			Op:       OpJoin,
			JoinKind: v.Kind,
			Pred:     v.On,
			Children: []*Node{left, right},
		}, nil
	default:
		return nil, fmt.Errorf("logicalplan: unsupported table expression %T", te)
	}
}

func hasAggregate(stmt *sqlparse.SelectStmt) bool {
	for _, c := range stmt.Columns {
		if _, ok := c.Expr.(*sqlparse.FuncExpr); ok {
			return true
		}
	}
	return false
}

func groupDetail(stmt *sqlparse.SelectStmt) string {
	if len(stmt.GroupBy) == 0 {
		return "global"
	}
	keys := make([]string, len(stmt.GroupBy))
	for i, c := range stmt.GroupBy {
		keys[i] = c.String()
	}
	return "by " + strings.Join(keys, ", ")
}

func orderDetail(stmt *sqlparse.SelectStmt) string {
	keys := make([]string, len(stmt.OrderBy))
	for i, o := range stmt.OrderBy {
		dir := "asc"
		if o.Desc {
			dir = "desc"
		}
		keys[i] = o.Col.String() + " " + dir
	}
	s := strings.Join(keys, ", ")
	if stmt.Limit >= 0 {
		s += " limit " + strconv.Itoa(stmt.Limit)
	}
	return s
}

func projectDetail(stmt *sqlparse.SelectStmt) string {
	parts := make([]string, 0, len(stmt.Columns))
	for _, c := range stmt.Columns {
		if c.Star {
			parts = append(parts, "*")
			continue
		}
		parts = append(parts, sqlparse.ExprString(c.Expr))
	}
	return strings.Join(parts, ", ")
}

// PlanSQL parses src and lowers it to a logical plan in one step.
func PlanSQL(src string) (*Node, error) {
	stmt, err := sqlparse.Parse(src)
	if err != nil {
		return nil, err
	}
	return Plan(stmt)
}
