// Fixture for the cowdict analyzer: the copy-on-write dictionary protocol.
// The types mirror internal/vec's unexported fields (dict, foreign) — the
// analyzer matches the protocol's field and method names.
package cowdict

type Dict struct {
	m map[string]int32
}

func NewDict() *Dict                  { return &Dict{} }
func (d *Dict) Intern(s string) int32 { return 0 }
func (d *Dict) clone() *Dict          { return &Dict{} }

type Vector struct {
	dict    *Dict
	foreign bool
	codes   []int32
}

func (v *Vector) internUnguarded(s string) {
	v.codes = append(v.codes, v.dict.Intern(s)) // want "without the copy-on-write guard"
}

func (v *Vector) internGuarded(s string) {
	if v.dict == nil {
		v.dict = NewDict()
	} else if v.foreign {
		v.dict = v.dict.clone()
		v.foreign = false
	}
	v.codes = append(v.codes, v.dict.Intern(s))
}

// guardAfterDoesNotCount: the clone must precede the intern.
func (v *Vector) guardAfter(s string) {
	v.codes = append(v.codes, v.dict.Intern(s)) // want "without the copy-on-write guard"
	if v.foreign {
		v.dict = v.dict.clone()
	}
}

func (v *Vector) adoptWithoutFlag(src *Vector) {
	v.dict = src.dict // want "without setting the foreign flag"
}

// regather: a reused output vector keeps its dictionary across resets and
// re-adopts its source's batch after batch; every adoption sets the flag.
func (v *Vector) regatherWithoutFlag(src *Vector) {
	v.codes = v.codes[:0]
	if v.dict == nil || v.dict == src.dict {
		v.dict = src.dict // want "without setting the foreign flag"
	}
}

func (v *Vector) adoptProperly(src *Vector) {
	v.dict = src.dict
	v.foreign = true
}

// cloneLiteral: composite-literal adoption is the sanctioned idiom — the
// literal can (and does) set foreign in the same expression.
func (v *Vector) cloneLiteral() *Vector {
	return &Vector{dict: v.dict, foreign: v.dict != nil}
}

// reclone: self-reassignment through clone is ownership-preserving, not
// adoption.
func (v *Vector) reclone() {
	v.dict = v.dict.clone()
}
