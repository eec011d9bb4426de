package fixture

// gob fixtures: gob does not sort map keys, so any map reachable from an
// encoded value fails, named or not; slices and structs in a fixed
// order pass, and recursive types terminate the walk.

import "encoding/gob"

// modelFile keys its tensors by name: a map one struct field down.
type modelFile struct {
	Name    string
	Tensors map[string][]float32
}

// archive holds map-bearing files behind a slice of pointers.
type archive struct {
	Files []*modelFile
}

// tensor and orderedFile store the same data as a slice in fixed order.
type tensor struct {
	Name string
	Data []float32
}

type orderedFile struct {
	Name    string
	Tensors []tensor
}

// chain is recursive and map-free.
type chain struct {
	Next *chain
	Vals []int
}

// failGobStruct encodes a struct with a map field.
func failGobStruct(enc *gob.Encoder, mf *modelFile) error {
	return enc.Encode(mf) // want "mf has a map in its type and is gob encoded"
}

// failGobNamed encodes a named map type, which JSON would accept.
func failGobNamed(enc *gob.Encoder, p Profile) error {
	return enc.Encode(p) // want "gob walks maps in random order"
}

// failGobDeep finds the map two levels down.
func failGobDeep(enc *gob.Encoder, a archive) error {
	return enc.Encode(&a) // want "&a has a map in its type"
}

// passGobOrdered encodes tensors as an ordered slice.
func passGobOrdered(enc *gob.Encoder, f orderedFile) error {
	return enc.Encode(&f)
}

// passGobRecursive walks a recursive type without a map.
func passGobRecursive(enc *gob.Encoder, c *chain) error {
	return enc.Encode(c)
}
