// Package cluster seeds the barriersafe violation shapes: sharded state
// touched outside a barrier, in a closure, by a shard method reaching into
// another shard, and a shard method called outside a barrier. Barrier code,
// waived closures and a shard method's own receiver stay silent.
package cluster

// cellState is per-cell property of the parallel phase.
//
//qos:sharded
type cellState struct {
	id   int
	load int
}

// Cluster federates the cells.
type Cluster struct {
	cells []*cellState
}

// barrier runs single-threaded between epochs: cross-cell access is legal.
//
//qos:barrier
func (c *Cluster) barrier() {
	for _, cs := range c.cells {
		cs.load = 0
	}
}

// leak reads cell state outside any barrier function.
func (c *Cluster) leak() int {
	return c.cells[0].load
}

// step shows the closure trap: the parallel-phase closure does not inherit
// the enclosing function's annotation.
//
//qos:barrier
func (c *Cluster) step() {
	run(func(i int) {
		c.cells[i].load++
	})
}

// stepWaived is the sanctioned parallel phase: the shard-ownership argument
// is stated where review can see it.
//
//qos:barrier
func (c *Cluster) stepWaived() {
	run(func(i int) {
		//lint:allow barriersafe fixture: each job touches only its own shard
		c.cells[i].load++
	})
}

// advance is a shard method: its own receiver is its own shard.
func (cs *cellState) advance() {
	cs.load++
}

// merge reaches into another shard from a shard method.
func (cs *cellState) merge(other *cellState) {
	cs.load += other.load
}

// later hands its receiver to a closure, which may run anywhere.
func (cs *cellState) later() {
	run(func(int) {
		cs.load++
	})
}

// stepMethod is the parallel phase as a shard method plus one waived call.
//
//qos:barrier
func (c *Cluster) stepMethod() {
	run(func(i int) {
		//lint:allow barriersafe fixture: job i calls only cell i's own method
		c.cells[i].advance()
	})
}

// callLeak calls a shard method outside any barrier function.
func (c *Cluster) callLeak() {
	c.cells[0].advance()
}

func run(f func(int)) { f(0) }
