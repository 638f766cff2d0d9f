package catalog

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"bdcc/internal/vector"
)

// ParseDDL parses a script of DDL statements into a schema. Supported
// statements (case-insensitive, `--` line comments, optional trailing
// semicolons):
//
//	CREATE TABLE t (col TYPE, ...,
//	    PRIMARY KEY (c, ...),
//	    [CONSTRAINT name] FOREIGN KEY (c, ...) REFERENCES t2 [(c, ...)])
//	ALTER TABLE t ADD [CONSTRAINT name] FOREIGN KEY (c, ...) REFERENCES t2 [(c, ...)]
//	CREATE INDEX name ON t (c, ...)
//
// Types map as: INT/INTEGER/BIGINT/SMALLINT/DATE → int64; DECIMAL(p,s) and
// NUMERIC(p,s) → int64 at scale s (0 when omitted); FLOAT/DOUBLE/REAL →
// float64; CHAR/VARCHAR/TEXT → string.
// Omitted REFERENCES columns default to the referenced table's primary key.
func ParseDDL(src string) (*Schema, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, schema: NewSchema()}
	for !p.done() {
		if p.accept(";") {
			continue
		}
		if err := p.statement(); err != nil {
			return nil, err
		}
	}
	return p.schema, nil
}

// MustParseDDL is ParseDDL panicking on error, for static workload fixtures.
func MustParseDDL(src string) *Schema {
	s, err := ParseDDL(src)
	if err != nil {
		panic(err)
	}
	return s
}

type token struct {
	text string // lower-cased
	pos  int
}

func tokenize(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case unicode.IsSpace(rune(c)):
			i++
		case c == '(' || c == ')' || c == ',' || c == ';':
			toks = append(toks, token{string(c), i})
			i++
		case isIdentByte(c) || (c >= '0' && c <= '9'):
			j := i
			for j < len(src) && (isIdentByte(src[j]) || (src[j] >= '0' && src[j] <= '9')) {
				j++
			}
			toks = append(toks, token{strings.ToLower(src[i:j]), i})
			i = j
		default:
			return nil, fmt.Errorf("catalog: unexpected character %q at offset %d", c, i)
		}
	}
	return toks, nil
}

func isIdentByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

type parser struct {
	toks   []token
	i      int
	schema *Schema
}

func (p *parser) done() bool { return p.i >= len(p.toks) }

func (p *parser) peek() string {
	if p.done() {
		return ""
	}
	return p.toks[p.i].text
}

func (p *parser) next() string {
	t := p.peek()
	p.i++
	return t
}

func (p *parser) accept(text string) bool {
	if p.peek() == text {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return fmt.Errorf("catalog: expected %q, found %q (token %d)", text, p.peek(), p.i)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t == "" || !isIdentByte(t[0]) {
		return "", fmt.Errorf("catalog: expected identifier, found %q (token %d)", t, p.i)
	}
	p.i++
	return t, nil
}

func (p *parser) identList() ([]string, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var cols []string
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		if p.accept(",") {
			continue
		}
		break
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return cols, nil
}

func (p *parser) statement() error {
	switch p.peek() {
	case "create":
		p.next()
		switch p.peek() {
		case "table":
			p.next()
			return p.createTable()
		case "index", "unique":
			p.accept("unique")
			p.accept("index")
			return p.createIndex()
		default:
			return fmt.Errorf("catalog: CREATE %q unsupported", p.peek())
		}
	case "alter":
		p.next()
		return p.alterTable()
	default:
		return fmt.Errorf("catalog: unsupported statement starting at %q", p.peek())
	}
}

func (p *parser) createTable() error {
	name, err := p.ident()
	if err != nil {
		return err
	}
	t := &TableDef{Name: name}
	var fks []*ForeignKey
	if err := p.expect("("); err != nil {
		return err
	}
	for {
		switch p.peek() {
		case "primary":
			p.next()
			if err := p.expect("key"); err != nil {
				return err
			}
			cols, err := p.identList()
			if err != nil {
				return err
			}
			t.PrimaryKey = cols
		case "constraint", "foreign":
			fk, err := p.foreignKey(name)
			if err != nil {
				return err
			}
			fks = append(fks, fk)
		default:
			col, err := p.ident()
			if err != nil {
				return err
			}
			kind, scale, err := p.columnType()
			if err != nil {
				return fmt.Errorf("catalog: table %q column %q: %w", name, col, err)
			}
			// Tolerate NOT NULL noise words.
			if p.accept("not") {
				if err := p.expect("null"); err != nil {
					return err
				}
			}
			t.Columns = append(t.Columns, Column{Name: col, Kind: kind, Scale: scale})
		}
		if p.accept(",") {
			continue
		}
		break
	}
	if err := p.expect(")"); err != nil {
		return err
	}
	p.accept(";")
	if err := p.schema.AddTable(t); err != nil {
		return err
	}
	for _, fk := range fks {
		if err := p.addFK(fk); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) columnType() (vector.Kind, uint8, error) {
	tname, err := p.ident()
	if err != nil {
		return 0, 0, err
	}
	// Optional length/precision arguments: VARCHAR(25), DECIMAL(15,2).
	var args []string
	if p.accept("(") {
		for p.peek() != ")" && !p.done() {
			args = append(args, p.next())
		}
		if err := p.expect(")"); err != nil {
			return 0, 0, err
		}
	}
	switch tname {
	case "int", "integer", "bigint", "smallint", "date":
		return vector.Int64, 0, nil
	case "decimal", "numeric":
		if len(args) < 3 {
			return vector.Int64, 0, nil
		}
		if s, err := strconv.Atoi(args[2]); err == nil && s >= 0 && s <= vector.MaxScale {
			return vector.Int64, uint8(s), nil
		}
		return 0, 0, fmt.Errorf("%s scale %q is not 0…%d", tname, args[2], vector.MaxScale)
	case "float", "double", "real":
		return vector.Float64, 0, nil
	case "char", "varchar", "text", "string":
		return vector.String, 0, nil
	default:
		return 0, 0, fmt.Errorf("unknown type %q", tname)
	}
}

func (p *parser) foreignKey(table string) (*ForeignKey, error) {
	fk := &ForeignKey{Table: table}
	if p.accept("constraint") {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		fk.Name = name
	}
	if err := p.expect("foreign"); err != nil {
		return nil, err
	}
	if err := p.expect("key"); err != nil {
		return nil, err
	}
	cols, err := p.identList()
	if err != nil {
		return nil, err
	}
	fk.Cols = cols
	if err := p.expect("references"); err != nil {
		return nil, err
	}
	ref, err := p.ident()
	if err != nil {
		return nil, err
	}
	fk.RefTable = ref
	if p.peek() == "(" {
		refCols, err := p.identList()
		if err != nil {
			return nil, err
		}
		fk.RefCols = refCols
	}
	return fk, nil
}

// addFK resolves defaulted referenced columns (primary key) and registers.
func (p *parser) addFK(fk *ForeignKey) error {
	if len(fk.RefCols) == 0 {
		ref := p.schema.Table(fk.RefTable)
		if ref == nil {
			return fmt.Errorf("catalog: foreign key references unknown table %q", fk.RefTable)
		}
		if len(ref.PrimaryKey) == 0 {
			return fmt.Errorf("catalog: foreign key to %q needs explicit columns (no primary key)", fk.RefTable)
		}
		fk.RefCols = append([]string(nil), ref.PrimaryKey...)
	}
	return p.schema.AddForeignKey(fk)
}

func (p *parser) alterTable() error {
	if err := p.expect("table"); err != nil {
		return err
	}
	name, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.expect("add"); err != nil {
		return err
	}
	fk, err := p.foreignKey(name)
	if err != nil {
		return err
	}
	p.accept(";")
	return p.addFK(fk)
}

func (p *parser) createIndex() error {
	name, err := p.ident()
	if err != nil {
		return err
	}
	if err := p.expect("on"); err != nil {
		return err
	}
	table, err := p.ident()
	if err != nil {
		return err
	}
	cols, err := p.identList()
	if err != nil {
		return err
	}
	p.accept(";")
	return p.schema.AddIndex(&Index{Name: name, Table: table, Cols: cols})
}
