package core

import (
	"slices"
	"sort"
)

// blockCap is the most records one block of a keyOrder holds: an
// insert shifts at most this many pointers, and the outer search runs
// over n/blockCap first keys.
const blockCap = 512

// keyOrder is the owner's relation in key order, all the §3.2 index the
// data aggregator needs: get, the chain neighbours of a key, update or
// insert, delete, and an in-order scan. It is a two-level sorted array —
// blocks of at most blockCap records, keys ascending across them, with
// each block's first key in firsts for the outer binary search — so it
// costs about one pointer per record. A key past every stored one
// appends to the last block, which a key-ascending load fills in turn.
type keyOrder struct {
	firsts []int64     // firsts[b] == blocks[b][0].Key
	blocks [][]*Record // each non-empty
	n      int
}

// Len returns the number of records held.
func (o *keyOrder) Len() int { return o.n }

// find returns the block key falls in — the last whose first key is not
// above it, else the first — and key's position there, with whether the
// record at that position holds key (never, when nothing is held).
func (o *keyOrder) find(key int64) (b, i int, ok bool) {
	if o.n == 0 {
		return 0, 0, false
	}
	b = max(sort.Search(len(o.firsts), func(j int) bool { return o.firsts[j] > key })-1, 0)
	blk := o.blocks[b]
	i = sort.Search(len(blk), func(j int) bool { return blk[j].Key >= key })
	return b, i, i < len(blk) && blk[i].Key == key
}

// get returns the record holding key, or nil.
func (o *keyOrder) get(key int64) *Record {
	b, i, ok := o.find(key)
	if !ok {
		return nil
	}
	return o.blocks[b][i]
}

// around returns the records with the greatest key below key and the
// least key above it, each nil when there is none: key's chain
// neighbours.
func (o *keyOrder) around(key int64) (pred, succ *Record) {
	if o.n == 0 {
		return nil, nil
	}
	b, i, ok := o.find(key)
	blk := o.blocks[b]
	if i > 0 {
		pred = blk[i-1]
	} else if b > 0 {
		prev := o.blocks[b-1]
		pred = prev[len(prev)-1]
	}
	if ok {
		i++
	}
	if i < len(blk) {
		succ = blk[i]
	} else if b+1 < len(o.blocks) {
		succ = o.blocks[b+1][0]
	}
	return pred, succ
}

// put makes rec the record holding its key, inserting it if the key is
// new. A full block splits in half, except that a key past the end of a
// full last block opens a new block, so ascending keys leave full blocks.
func (o *keyOrder) put(rec *Record) {
	b, i, ok := o.find(rec.Key)
	if ok {
		o.blocks[b][i] = rec
		return
	}
	o.n++
	if len(o.blocks) == 0 || b == len(o.blocks)-1 && i == blockCap {
		o.firsts = append(o.firsts, rec.Key)
		o.blocks = append(o.blocks, append(make([]*Record, 0, blockCap), rec))
		return
	}
	if blk := o.blocks[b]; len(blk) == blockCap {
		h := blockCap / 2
		right := append(make([]*Record, 0, blockCap), blk[h:]...)
		clear(blk[h:])
		o.blocks[b] = blk[:h]
		o.firsts = slices.Insert(o.firsts, b+1, right[0].Key)
		o.blocks = slices.Insert(o.blocks, b+1, right)
		if i > h {
			b, i = b+1, i-h
		}
	}
	o.blocks[b] = slices.Insert(o.blocks[b], i, rec)
	o.firsts[b] = o.blocks[b][0].Key
}

// delete drops the record holding key, if any; a block left empty goes.
func (o *keyOrder) delete(key int64) {
	b, i, ok := o.find(key)
	if !ok {
		return
	}
	o.n--
	blk := slices.Delete(o.blocks[b], i, i+1)
	if len(blk) == 0 {
		o.firsts = slices.Delete(o.firsts, b, b+1)
		o.blocks = slices.Delete(o.blocks, b, b+1)
		return
	}
	o.blocks[b], o.firsts[b] = blk, blk[0].Key
}

// scan calls fn on every record in key order until fn returns false.
func (o *keyOrder) scan(fn func(*Record) bool) {
	for _, blk := range o.blocks {
		for _, rec := range blk {
			if !fn(rec) {
				return
			}
		}
	}
}
