package dataset

import "fmt"

// Dictionary maps external term strings (query strings, product names) to the
// compact Term IDs used internally, and back. IDs are assigned densely in
// insertion order starting from 0.
type Dictionary struct {
	byName map[string]Term
	byID   []string
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{byName: make(map[string]Term)}
}

// Intern returns the Term for name, assigning a fresh ID if the name has not
// been seen before.
func (d *Dictionary) Intern(name string) Term {
	if id, ok := d.byName[name]; ok {
		return id
	}
	id := Term(len(d.byID))
	d.byName[name] = id
	d.byID = append(d.byID, name)
	return id
}

// Lookup returns the Term for name and whether it is known.
func (d *Dictionary) Lookup(name string) (Term, bool) {
	id, ok := d.byName[name]
	return id, ok
}

// Name returns the external string of a term. Unknown terms render as "#id".
func (d *Dictionary) Name(t Term) string {
	if int(t) >= 0 && int(t) < len(d.byID) {
		return d.byID[t]
	}
	return fmt.Sprintf("#%d", t)
}

// Len returns the number of interned terms.
func (d *Dictionary) Len() int { return len(d.byID) }

// Names renders a record through the dictionary, sorted by term ID.
func (d *Dictionary) Names(r Record) []string {
	out := make([]string, len(r))
	for i, t := range r {
		out[i] = d.Name(t)
	}
	return out
}

// InternRecord interns every name and returns the normalized record.
func (d *Dictionary) InternRecord(names ...string) Record {
	terms := make([]Term, len(names))
	for i, n := range names {
		terms[i] = d.Intern(n)
	}
	return NewRecord(terms...)
}
